/**
 * @file
 * The five zk-SNARK pipeline stages (paper Fig. 1), the observation
 * record one instrumented stage run produces, and measureStage, the
 * one measured region every stage of every scheme runs in: the SNARK
 * stages through StageRunner (core/pipeline.h), the STARK prover and
 * verifier (stark/stark.h) directly.
 */

#ifndef ZKP_CORE_STAGE_H
#define ZKP_CORE_STAGE_H

#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/memprof.h"
#include "obs/pmu.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/counters.h"
#include "sim/memtrace.h"

namespace zkp::core {

/** Pipeline stages in execution order. */
enum class Stage : unsigned
{
    Compile,
    Setup,
    Witness,
    Proving,
    Verifying,
    NumStages
};

constexpr std::size_t kNumStages = (std::size_t)Stage::NumStages;

/** All stages, iteration helper. */
constexpr std::array<Stage, kNumStages> kAllStages{
    Stage::Compile, Stage::Setup, Stage::Witness, Stage::Proving,
    Stage::Verifying};

/** Paper-style lowercase stage name. */
const char* stageName(Stage s);

/**
 * Static uop footprint estimate of the stage's hot code, the
 * uop-cache pressure input of the top-down model. Values are
 * order-of-magnitude estimates of the inlined kernel sizes in this
 * library: the constraint builder and allocator paths (compile), the
 * fixed-base encoder (setup), the gate interpreter (witness), the
 * NTT + Pippenger + field kernels (proving) and the fully inlined
 * Fp12 pairing tower (verifying).
 *
 * The witness footprint scales with the circuit: circom's witness
 * calculator emits straight-line generated code per signal, so its
 * instruction working set grows with the constraint count — the
 * mechanism that keeps the witness stage front-end bound on every
 * CPU in the paper.
 */
double stageFootprintUops(Stage s, std::size_t constraints = 4096);

/** Measurement of one stage execution. */
struct StageRun
{
    /// Wall-clock seconds (averaged over repeats by the harness).
    double seconds = 0;
    /// Instrumented event counters for the stage (all threads merged).
    sim::Counters counters;
    /// Measured hardware counters (all threads merged); hw.available
    /// is false when the machine denies perf_event access.
    obs::pmu::HwStats hw;
    /// Memory accounting: RSS/peak-RSS deltas always, allocator
    /// counters when ZKP_MEMPROF=1 (mem.tracked marks validity).
    obs::memprof::StageMem mem;
};

/** Flatten a counter delta into the run report's generic pairs. */
std::vector<std::pair<std::string, double>>
counterPairs(const sim::Counters& c);

namespace detail {

/**
 * The probe readings measureStage takes before its region, and the
 * reading after it that turns them into a StageRun and its
 * obs::StageReport.
 */
class StageBracket
{
  public:
    /** Snapshot span aggregates, counters, PMU and memory. */
    StageBracket();

    /**
     * Complete @p run (seconds already set) with the deltas since
     * construction and append its record to the run report.
     */
    void finish(StageRun& run, const char* stage, const std::string& tag,
                std::size_t work, std::size_t threads) const;

  private:
    bool counted_;
    std::vector<obs::SpanStat> spansBefore_;
    sim::Counters countersBefore_;
    bool hwOn_ = false;
    obs::pmu::Sample hwBefore_;
    obs::memprof::Snapshot memBefore_;
};

} // namespace detail

/**
 * Execute @p fn as one measured stage and return its StageRun.
 *
 * The stage counts (sim::CountingScope) when something reads its
 * counters: the caller's own scope, the at-exit run report
 * (ZKP_REPORT), or the trace sinks, for which the stage takes a scope
 * itself. A stage that counts or runs under span tracing also reads
 * the PMU and memory probes and appends an obs::StageReport; one with
 * neither reader is only timed and records nothing, so a prover
 * served in a loop leaves no per-call state behind.
 *
 * @param stage  report stage name ("proving", "stark_fri", ...); must
 *               be a string literal (span aggregation keys on the
 *               pointer)
 * @param tag    curve slot of the report (the STARK carries its
 *               field/AIR tag, "gl64/fib")
 * @param work   constraint-count slot (STARK: steps x columns)
 * @param threads worker threads used by the stage
 * @param sinks  trace sinks for the memory-system models; empty
 *               disables address tracing
 * @param sample_mask memory-trace sampling mask (sim::ScopedTrace)
 */
template <typename Fn>
StageRun
measureStage(const char* stage, const std::string& tag, std::size_t work,
             std::size_t threads, std::vector<sim::TraceSink*> sinks,
             sim::u32 sample_mask, Fn&& fn)
{
    std::optional<sim::CountingScope> counting;
    if (obs::reportAtExit() || !sinks.empty())
        counting.emplace();
    std::optional<detail::StageBracket> bracket;
    if (sim::countingEnabled() || obs::tracingEnabled())
        bracket.emplace();

    StageRun out;
    Timer timer;
    {
        sim::ScopedTrace trace(std::move(sinks), sample_mask);
        ZKP_TRACE_SCOPE(stage);
        fn();
    }
    out.seconds = timer.seconds();
    if (bracket) {
        counting.reset();
        bracket->finish(out, stage, tag, work, threads);
    }
    return out;
}

} // namespace zkp::core

#endif // ZKP_CORE_STAGE_H
