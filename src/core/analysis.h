/**
 * @file
 * The paper's four analyses (Fig. 3): top-down microarchitecture,
 * memory, code (function- and instruction-level) and scalability.
 *
 * Every analysis drives the instrumented pipeline through StageRunner,
 * attaches the simulated hardware (one cache hierarchy and one branch
 * predictor per modelled CPU) as trace sinks, and post-processes the
 * collected events into the structures the bench binaries print as the
 * paper's tables and figures.
 */

#ifndef ZKP_CORE_ANALYSIS_H
#define ZKP_CORE_ANALYSIS_H

#include <memory>
#include <string>
#include <vector>

#include "core/calibrate.h"
#include "core/pipeline.h"
#include "core/scaling_fit.h"
#include "sim/branch.h"
#include "sim/cache.h"
#include "sim/cpu_model.h"
#include "sim/topdown.h"

namespace zkp::core {

/** Common sweep parameters. */
struct SweepConfig
{
    /// Constraint counts to sweep (the paper uses 2^10 .. 2^18).
    std::vector<std::size_t> sizes;
    /// Memory-trace sampling: trace 1 in (mask + 1) accesses.
    sim::u32 sampleMask = 0;
    /// Worker threads for the stage execution itself.
    std::size_t threads = 1;
    /// Instruction window for bandwidth tracking.
    u64 bandwidthWindowInstr = 2'000'000;
};

/** Per-CPU microarchitectural observation of one stage run. */
struct CpuObservation
{
    const sim::CpuModel* cpu = nullptr;
    double l1Misses = 0;
    double l2Misses = 0;
    double llcLoadMisses = 0;
    double llcTotalMisses = 0;
    double dramBytes = 0;
    double peakWindowBytes = 0;
    u64 windowInstr = 0;
    double branchEvents = 0;
    double branchMispredicts = 0;
};

/** One instrumented stage run plus what the simulated hardware saw. */
struct StageObservation
{
    Stage stage = Stage::Compile;
    std::size_t constraints = 0;
    StageRun run;
    /// Seconds spent in parallelizable regions (threads == 1 runs).
    double parallelSeconds = 0;
    std::vector<CpuObservation> cpus;
};

/**
 * The simulated hardware of every modelled CPU, one cache hierarchy
 * and one branch predictor each, attached as the trace sinks of one
 * measured run: a StageRunner stage (observeStage) or a STARK prove
 * (bench_stark --mix).
 */
class CpuSinks
{
  public:
    explicit CpuSinks(const SweepConfig& cfg);

    /** The sinks to hand to the measured run. */
    const std::vector<sim::TraceSink*>& sinks() const { return sinks_; }

    /** What each CPU saw, scaled back up by the sampling rate. */
    std::vector<CpuObservation> observations() const;

  private:
    double scale_;
    u64 windowInstr_;
    std::vector<std::unique_ptr<sim::CacheHierarchy>> caches_;
    std::vector<std::unique_ptr<sim::GsharePredictor>> predictors_;
    std::vector<sim::TraceSink*> sinks_;
};

/**
 * Execute one stage under full instrumentation for all modelled CPUs.
 */
template <typename Curve>
StageObservation
observeStage(StageRunner<Curve>& runner, Stage stage,
             const SweepConfig& cfg)
{
    const CpuSinks sinks(cfg);
    resetParallelWorkSeconds();
    StageObservation obs;
    obs.stage = stage;
    obs.constraints = runner.constraints();
    obs.run = runner.run(stage, cfg.threads, sinks.sinks(), cfg.sampleMask);
    obs.parallelSeconds = parallelWorkSeconds();
    obs.cpus = sinks.observations();
    return obs;
}

/** Build top-down model inputs from an observation for one CPU. */
inline sim::StageEvents
stageEventsFor(const StageObservation& obs, const CpuObservation& cpu)
{
    sim::StageEvents ev;
    ev.counters = obs.run.counters;
    // Charge each level only for the accesses it actually served:
    // L2 hits = L1 misses that did not miss L2, etc.
    ev.l1Misses = std::max(0.0, cpu.l1Misses - cpu.l2Misses);
    ev.l2Misses = std::max(0.0, cpu.l2Misses - cpu.llcTotalMisses);
    ev.llcMisses = cpu.llcTotalMisses;
    ev.branchEvents = cpu.branchEvents;
    ev.branchMispredicts = cpu.branchMispredicts;
    ev.hotCodeUops = stageFootprintUops(obs.stage, obs.constraints);
    return ev;
}

// --------------------------------------------------------------------
// Top-down analysis (Fig. 4)
// --------------------------------------------------------------------

/** One cell of the paper's Fig. 4 grid. */
struct TopDownCell
{
    Stage stage;
    std::size_t constraints;
    std::string cpu;
    sim::TopDownResult result;
};

template <typename Curve>
std::vector<TopDownCell>
runTopDownAnalysis(const SweepConfig& cfg)
{
    std::vector<TopDownCell> out;
    for (std::size_t n : cfg.sizes) {
        StageRunner<Curve> runner(n);
        for (Stage s : kAllStages) {
            StageObservation obs = observeStage(runner, s, cfg);
            for (const auto& cpu : obs.cpus) {
                out.push_back({s, n, cpu.cpu->name,
                               sim::classifyTopDown(
                                   stageEventsFor(obs, cpu), *cpu.cpu)});
            }
        }
    }
    return out;
}

// --------------------------------------------------------------------
// Memory analysis (Fig. 5, Tables II & III)
// --------------------------------------------------------------------

/**
 * Concurrency the bandwidth model assumes per stage: fraction of the
 * CPU's P-cores a stage keeps busy in the paper's #threads==#cores
 * configuration (the parallel stages saturate all cores; witness and
 * verifying are mostly serial).
 */
double stageBandwidthConcurrency(Stage s, const sim::CpuModel& cpu);

/** Memory behaviour of one stage at one size. */
struct MemoryCell
{
    Stage stage;
    std::size_t constraints;
    double loads = 0;
    double stores = 0;

    struct PerCpu
    {
        std::string cpu;
        double mpki = 0;
        double avgBandwidthGBps = 0;
        double maxBandwidthGBps = 0;
    };
    std::vector<PerCpu> perCpu;
};

template <typename Curve>
std::vector<MemoryCell>
runMemoryAnalysis(const SweepConfig& cfg)
{
    std::vector<MemoryCell> out;
    for (std::size_t n : cfg.sizes) {
        StageRunner<Curve> runner(n);
        for (Stage s : kAllStages) {
            StageObservation obs = observeStage(runner, s, cfg);
            MemoryCell cell;
            cell.stage = s;
            cell.constraints = n;
            cell.loads = (double)obs.run.counters.loads;
            cell.stores = (double)obs.run.counters.stores;

            const double instr =
                (double)obs.run.counters.instructions();
            for (const auto& cpu : obs.cpus) {
                auto td = sim::classifyTopDown(stageEventsFor(obs, cpu),
                                               *cpu.cpu);
                const double hz = cpu.cpu->frequencyGHz * 1e9;
                const double seconds_model = td.totalCycles / hz;
                const double conc =
                    stageBandwidthConcurrency(s, *cpu.cpu);
                const double cap = cpu.cpu->memBandwidthGBps * 1e9;

                MemoryCell::PerCpu pc;
                pc.cpu = cpu.cpu->name;
                pc.mpki = instr > 0
                              ? cpu.llcLoadMisses / (instr / 1000.0)
                              : 0.0;
                if (seconds_model > 0) {
                    pc.avgBandwidthGBps =
                        std::min(cap, cpu.dramBytes / seconds_model *
                                          conc) /
                        1e9;
                    const double window_sec =
                        (double)cpu.windowInstr *
                        (td.totalCycles / std::max(instr, 1.0)) / hz;
                    if (window_sec > 0 && cpu.peakWindowBytes > 0) {
                        pc.maxBandwidthGBps =
                            std::min(cap, cpu.peakWindowBytes /
                                              window_sec * conc) /
                            1e9;
                    }
                }
                cell.perCpu.push_back(pc);
            }
            out.push_back(std::move(cell));
        }
    }
    return out;
}

// --------------------------------------------------------------------
// Code analysis (Tables IV & V)
// --------------------------------------------------------------------

/** Instruction-class percentages (Table V row). */
struct OpcodeMix
{
    double computePct = 0;
    double controlPct = 0;
    double dataPct = 0;
};

/** Time share of one function family (Table IV analog). */
struct FunctionShare
{
    std::string function;
    double pct = 0;
};

struct CodeCell
{
    Stage stage;
    std::size_t constraints;
    OpcodeMix mix;
    std::vector<FunctionShare> functions;
};

/** Derive the opcode mix of a counter set. */
inline OpcodeMix
opcodeMixOf(const sim::Counters& c)
{
    const double total = (double)c.instructions();
    OpcodeMix m;
    if (total > 0) {
        m.computePct = 100.0 * (double)c.compute / total;
        m.controlPct = 100.0 * (double)c.control / total;
        m.dataPct = 100.0 * (double)c.data / total;
    }
    return m;
}

/** Attribute a stage's wall time to function families. */
std::vector<FunctionShare> attributeFunctions(const StageRun& run,
                                              unsigned base_limbs);

template <typename Curve>
std::vector<CodeCell>
runCodeAnalysis(const SweepConfig& cfg)
{
    constexpr unsigned base_limbs = Curve::G1::Field::N;
    std::vector<CodeCell> out;
    for (std::size_t n : cfg.sizes) {
        StageRunner<Curve> runner(n);
        for (Stage s : kAllStages) {
            StageRun run = runner.run(s, cfg.threads);
            CodeCell cell;
            cell.stage = s;
            cell.constraints = n;
            cell.mix = opcodeMixOf(run.counters);
            cell.functions = attributeFunctions(run, base_limbs);
            out.push_back(std::move(cell));
        }
    }
    return out;
}

// --------------------------------------------------------------------
// Scalability analysis (Figs. 6 & 7, Table VI)
// --------------------------------------------------------------------

/** One stage's strong-scaling curve on one modelled CPU. */
struct StrongScalingCurve
{
    Stage stage;
    std::size_t constraints;
    /// Parallelizable share measured by the work/span instrumentation.
    double measuredParallelFraction = 0;
    /// (threads, modelled speedup) points.
    std::vector<SpeedupPoint> speedups;
    /// Serial fraction recovered by the Amdahl fit of the curve.
    double fittedSerial = 1.0;
};

/** Per-thread-spawn overhead used by the scaling model (seconds). */
constexpr double kThreadSpawnSeconds = 40e-6;

/**
 * Model the strong-scaling speedup of a stage whose single-thread
 * time is @p total_sec with @p parallel_sec of it parallelizable.
 */
double modelStrongSpeedup(double total_sec, double parallel_sec,
                          unsigned threads, const sim::CpuModel& cpu);

template <typename Curve>
std::vector<StrongScalingCurve>
runStrongScaling(const SweepConfig& cfg,
                 const std::vector<unsigned>& thread_counts,
                 const sim::CpuModel& cpu)
{
    std::vector<StrongScalingCurve> out;
    for (std::size_t n : cfg.sizes) {
        StageRunner<Curve> runner(n);
        for (Stage s : kAllStages) {
            resetParallelWorkSeconds();
            StageRun run = runner.run(s, 1);
            const double par = parallelWorkSeconds();

            StrongScalingCurve curve;
            curve.stage = s;
            curve.constraints = n;
            curve.measuredParallelFraction =
                run.seconds > 0
                    ? std::min(1.0, par / run.seconds)
                    : 0.0;
            for (unsigned t : thread_counts) {
                curve.speedups.emplace_back(
                    t, modelStrongSpeedup(run.seconds, par, t, cpu));
            }
            curve.fittedSerial = fitAmdahlSerial(curve.speedups);
            out.push_back(std::move(curve));
        }
    }
    return out;
}

/** One stage's weak-scaling curve (threads and size double together). */
struct WeakScalingCurve
{
    Stage stage;
    /// (threads, modelled weak-scaling speedup) points; size at point
    /// k is baseConstraints * threads.
    std::size_t baseConstraints = 0;
    std::vector<SpeedupPoint> speedups;
    double fittedSerial = 1.0;
};

template <typename Curve>
std::vector<WeakScalingCurve>
runWeakScaling(std::size_t base_constraints,
               const std::vector<unsigned>& thread_counts,
               const sim::CpuModel& cpu)
{
    std::vector<WeakScalingCurve> out;
    for (Stage s : kAllStages) {
        WeakScalingCurve curve;
        curve.stage = s;
        curve.baseConstraints = base_constraints;
        out.push_back(std::move(curve));
    }

    // Baseline: one thread at the base size. One runner per size times
    // all five stages in order, so every stage runs once per size on a
    // runner whose prerequisites already ran.
    std::array<double, kNumStages> t1{};
    {
        StageRunner<Curve> base(base_constraints);
        for (Stage s : kAllStages)
            t1[(std::size_t)s] = base.run(s, 1).seconds;
    }

    for (unsigned t : thread_counts) {
        if (t == 1) {
            // Same size, same thread count as the baseline.
            for (auto& curve : out)
                curve.speedups.emplace_back(1, 1.0);
            continue;
        }
        StageRunner<Curve> runner(base_constraints * t);
        for (Stage s : kAllStages) {
            resetParallelWorkSeconds();
            StageRun run = runner.run(s, 1);
            const double par = parallelWorkSeconds();
            const double speed =
                modelStrongSpeedup(run.seconds, par, t, cpu);
            const double tn = run.seconds / speed;
            out[(std::size_t)s].speedups.emplace_back(
                t, tn > 0 ? t1[(std::size_t)s] * (double)t / tn : 0.0);
        }
    }
    for (auto& curve : out)
        curve.fittedSerial = fitGustafsonSerial(curve.speedups);
    return out;
}

} // namespace zkp::core

#endif // ZKP_CORE_ANALYSIS_H
