/**
 * @file
 * Stage instrumentation for the STARK pipeline.
 *
 * The SNARK side measures its five fixed stages through
 * core::StageRunner; the STARK prover has its own stage vocabulary
 * (trace_gen, lde, commit, fri, query — plus verify), so this header
 * factors the measurement bracket out of core/pipeline.h into a
 * free-standing helper: snapshot sim counters, PMU, and memory around
 * a callable, then append an obs::StageReport so STARK runs land in
 * the same run-report JSON (ZKP_REPORT) as Groth16/PLONK stages, with
 * per-kernel span attribution when tracing is on.
 *
 * Trace sinks and the sampling mask pass through to sim::ScopedTrace,
 * which is what lets the cache/MPKI analyses replay the STARK prover
 * through the modelled hierarchies (EXPERIMENTS.md §E14).
 */

#ifndef ZKP_STARK_PIPELINE_H
#define ZKP_STARK_PIPELINE_H

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/stage.h"
#include "obs/memprof.h"
#include "obs/pmu.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/counters.h"
#include "sim/memtrace.h"

namespace zkp::stark {

/** Counter delta (after - before); mirrors core::countersDelta. */
inline sim::Counters
starkCountersDelta(const sim::Counters& before,
                   const sim::Counters& after)
{
    sim::Counters d;
    d.compute = after.compute - before.compute;
    d.control = after.control - before.control;
    d.data = after.data - before.data;
    d.loads = after.loads - before.loads;
    d.stores = after.stores - before.stores;
    d.branches = after.branches - before.branches;
    for (std::size_t i = 0; i < sim::kNumPrimOps; ++i)
        d.prim[i] = after.prim[i] - before.prim[i];
    d.imuls = after.imuls - before.imuls;
    d.allocBytes = after.allocBytes - before.allocBytes;
    d.memcpyBytes = after.memcpyBytes - before.memcpyBytes;
    return d;
}

/**
 * Execute @p fn as one instrumented STARK stage and append the
 * obs::StageReport. Returns the measured core::StageRun. Its sim
 * counters are zero unless counting was on (sim::CountingScope): the
 * stage takes a scope itself only for the at-exit run report or when
 * trace sinks are attached.
 *
 * @param stage  report stage name ("stark_fri", ...); must be a
 *               string literal (span aggregation keys on the pointer)
 * @param tag    curve slot of the report; the STARK has no curve, so
 *               the field carries the field/AIR tag ("gl64/fib")
 * @param work   constraint-count slot (trace cells: steps x columns)
 * @param threads worker threads used by the stage
 * @param sinks  trace sinks for the memory-system models; empty
 *               disables address tracing
 * @param sample_mask memory-trace sampling mask (sim::ScopedTrace)
 */
template <typename Fn>
core::StageRun
runStarkStage(const char* stage, const std::string& tag,
              std::size_t work, std::size_t threads,
              std::vector<sim::TraceSink*> sinks,
              sim::u32 sample_mask, Fn&& fn)
{
    std::vector<obs::SpanStat> spans_before;
    if (obs::tracingEnabled())
        spans_before = obs::spanAggregates();

    // Every STARK prove runs through here, so the stage counts only
    // when something reads its counters: the at-exit run report, the
    // trace sinks, or a caller's own CountingScope.
    std::optional<sim::CountingScope> counting;
    if (obs::reportAtExit() || !sinks.empty())
        counting.emplace();
    const bool counted = sim::countingEnabled();
    sim::drainWorkerCounters();
    const sim::Counters before = sim::counters();
    obs::pmu::Sample hw_before;
    const bool hw_on = obs::pmu::enabled() &&
                       (obs::pmu::drainWorkerDeltas(),
                        obs::pmu::readThread(hw_before));
    const obs::memprof::Snapshot mem_before = obs::memprof::snapshot();
    Timer timer;
    {
        sim::ScopedTrace trace(std::move(sinks), sample_mask);
        ZKP_TRACE_SCOPE(stage);
        fn();
    }
    const double seconds = timer.seconds();
    sim::drainWorkerCounters();
    counting.reset();

    core::StageRun out;
    out.seconds = seconds;
    out.counters = starkCountersDelta(before, sim::counters());
    out.mem = obs::memprof::stageDelta(mem_before);
    if (hw_on) {
        obs::pmu::Sample hw_after;
        if (obs::pmu::readThread(hw_after)) {
            obs::pmu::Sample d = obs::pmu::delta(hw_before, hw_after);
            d += obs::pmu::drainWorkerDeltas();
            out.hw = obs::pmu::deriveStats(d, seconds);
        }
    }

    obs::StageReport rep;
    rep.stage = stage;
    rep.curve = tag;
    rep.constraints = work;
    rep.threads = threads;
    rep.seconds = out.seconds;
    // An uncounted stage reports no counters rather than zeros.
    if (counted) {
        const sim::Counters& c = out.counters;
        rep.counters = {
            {"instructions", (double)c.instructions()},
            {"compute", (double)c.compute},
            {"control", (double)c.control},
            {"data", (double)c.data},
            {"loads", (double)c.loads},
            {"stores", (double)c.stores},
            {"branches", (double)c.branches},
            {"imuls", (double)c.imuls},
            {"alloc_bytes", (double)c.allocBytes},
            {"memcpy_bytes", (double)c.memcpyBytes},
        };
    }
    rep.hwAvailable = out.hw.available;
    rep.hw = obs::pmu::statPairs(out.hw);
    rep.mem = out.mem;
    if (obs::tracingEnabled()) {
        for (const obs::SpanStat& after : obs::spanAggregates()) {
            obs::u64 prev_count = 0, prev_ns = 0;
            obs::u64 prev_cyc = 0, prev_ins = 0, prev_alloc = 0;
            for (const obs::SpanStat& b : spans_before) {
                if (b.name == after.name) {
                    prev_count = b.count;
                    prev_ns = b.totalNs;
                    prev_cyc = b.totalCycles;
                    prev_ins = b.totalInstructions;
                    prev_alloc = b.totalAllocBytes;
                    break;
                }
            }
            if (after.count > prev_count) {
                obs::KernelStat k;
                k.name = after.name;
                k.count = after.count - prev_count;
                k.seconds = (double)(after.totalNs - prev_ns) / 1e9;
                k.hwCycles = after.totalCycles - prev_cyc;
                k.hwInstructions = after.totalInstructions - prev_ins;
                k.allocBytes = after.totalAllocBytes - prev_alloc;
                rep.topSpans.push_back(std::move(k));
            }
        }
    }
    obs::recordStageReport(std::move(rep));
    return out;
}

} // namespace zkp::stark

#endif // ZKP_STARK_PIPELINE_H
