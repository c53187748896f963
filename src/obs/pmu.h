/**
 * @file
 * Hardware PMU profiling via Linux perf_event_open.
 *
 * The paper's microarchitecture numbers (Fig. 4 top-down, Table II
 * LLC MPKI, Table III DRAM bandwidth) came from VTune on real
 * hardware; the simulator in src/sim/ only models them. This layer
 * reads the machine's actual counters so the simulator's calibration
 * error becomes measurable: StageRunner records a per-stage hardware
 * sample next to every simulated one, and the bench binaries print
 * sim-vs-PMU side-by-side tables (bench_paper --hw fig4 table2 table3).
 *
 * Design:
 *  - Counters are per-thread (pid=0, cpu=-1, no inherit): the main
 *    thread samples around each measured region and pool workers
 *    sample around their region participation, accumulating deltas
 *    into a process-wide aggregate the runner drains — mirroring how
 *    sim::drainWorkerCounters merges simulated counters.
 *  - Events open in small groups (cycles/instructions/branches and
 *    the LLC set) so each group fits the PMU's programmable counters
 *    and schedules as a unit; the top-down level-1 metric events
 *    share a group led by the "slots" fixed counter, as the kernel
 *    requires. Reads use PERF_FORMAT_GROUP with
 *    time_enabled/time_running, and values are scaled by
 *    enabled/running to undo multiplexing.
 *  - Availability is probed exactly once. When perf_event_paranoid,
 *    seccomp, a missing PMU (VM/container) or an unsupported event
 *    denies access, everything degrades to a no-op: readThread()
 *    returns false, HwStats.available stays false, and reports emit
 *    hw.available=false so every test and bench still runs anywhere.
 *    One notice line goes to stderr the first time the fallback
 *    triggers.
 *
 * Environment:
 *  - ZKP_PMU=0        disable hardware counters even when available
 *  - ZKP_PMU_SPANS=1  also sample counters per traced span (adds a
 *                     few syscalls per span; off by default so
 *                     tracing never taxes the hot path)
 */

#ifndef ZKP_OBS_PMU_H
#define ZKP_OBS_PMU_H

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace zkp::obs::pmu {

using u64 = std::uint64_t;
using u32 = std::uint32_t;

/** Hardware events the layer tries to open, in sample order. */
enum class Event : unsigned
{
    Cycles,
    Instructions,
    Branches,
    BranchMisses,
    LlcLoads,
    LlcLoadMisses,
    CacheReferences,
    /// Top-down level-1 slot events (Intel Ice Lake+, grouped with
    /// the "slots" pseudo event; absent elsewhere).
    TdSlots,
    TdRetiring,
    TdBadSpec,
    TdFeBound,
    TdBeBound,
    NumEvents
};

constexpr std::size_t kNumEvents = (std::size_t)Event::NumEvents;

/** Short stable name ("cycles", "llc_load_misses", ...). */
const char* eventName(Event e);

/** DRAM line size the bandwidth estimate multiplies misses by. */
constexpr double kCacheLineBytes = 64.0;

/**
 * One multiplex-scaled counter reading (cumulative since the calling
 * thread's counters opened, or a delta of two readings).
 */
struct Sample
{
    std::array<double, kNumEvents> value{};
    /// Bit i set when value[i] came from a scheduled counter.
    u32 validMask = 0;

    bool has(Event e) const { return validMask >> (unsigned)e & 1u; }

    double get(Event e) const { return value[(std::size_t)e]; }

    void
    set(Event e, double v)
    {
        value[(std::size_t)e] = v;
        validMask |= 1u << (unsigned)e;
    }

    /** Accumulate another sample (union of valid events, values add). */
    Sample&
    operator+=(const Sample& o)
    {
        for (std::size_t i = 0; i < kNumEvents; ++i)
            if (o.validMask >> i & 1u)
                value[i] += o.value[i];
        validMask |= o.validMask;
        return *this;
    }
};

/** after - before, event-wise over the shared valid set. */
Sample delta(const Sample& before, const Sample& after);

/**
 * True when the one-time probe managed to open a hardware counter.
 * The first failing probe prints a single notice line to stderr.
 */
bool available();

/** Human-readable reason when available() is false ("" otherwise). */
const std::string& unavailableReason();

/** available() and not disabled via ZKP_PMU=0. */
bool enabled();

/** True when ZKP_PMU_SPANS=1 requested per-span samples (and the
 *  counters are usable). */
bool spanSamplingEnabled();

/**
 * Read the calling thread's counters (opened lazily on first use).
 * Returns false — leaving @p out untouched — when counters are
 * unavailable or disabled.
 */
bool readThread(Sample& out);

/**
 * Fold a worker thread's region delta into the process-wide pending
 * aggregate (called by the thread pool on the worker thread).
 */
void accumulateWorkerDelta(const Sample& d);

/** Take and clear the pending worker aggregate. */
Sample drainWorkerDeltas();

/** Derived per-stage hardware statistics (the report's hw section). */
struct HwStats
{
    bool available = false;
    double seconds = 0;
    double cycles = 0;
    double instructions = 0;
    /// Instructions per cycle.
    double ipc = 0;
    double branches = 0;
    double branchMisses = 0;
    /// Branch misses per 100 branches.
    double branchMissPct = 0;
    double llcLoads = 0;
    double llcLoadMisses = 0;
    /// LLC load misses per 1000 instructions (Table II's metric).
    double llcLoadMpki = 0;
    double cacheReferences = 0;
    /// True when the four top-down fractions below are measured.
    bool topdownValid = false;
    double tdRetiring = 0;
    double tdBadSpec = 0;
    double tdFeBound = 0;
    double tdBeBound = 0;
    /// LLC-load-miss bytes (misses x line size): a lower bound on
    /// DRAM traffic (no stores / prefetches), good enough to rank
    /// stages the way Table III does.
    double dramBytesEst = 0;
    double bandwidthGBps = 0;
};

/** Derive the report statistics from a counter delta and wall time. */
HwStats deriveStats(const Sample& d, double seconds);

/** Flatten non-zero stats into name/value pairs for the run report. */
std::vector<std::pair<std::string, double>> statPairs(const HwStats& s);

} // namespace zkp::obs::pmu

#endif // ZKP_OBS_PMU_H
