/**
 * @file
 * Low-overhead span tracing with Chrome trace-event JSON export.
 *
 * Kernels mark their hot regions with ZKP_TRACE_SCOPE("msm", "n", n):
 * an RAII scope that, when tracing is enabled, records one complete
 * ("X" phase) span — name, start, duration, thread lane, nesting
 * depth, one optional numeric argument — into a per-thread bounded
 * buffer. Recording takes no locks on the hot path beyond an
 * uncontended per-thread flag; when tracing is disabled the scope
 * compiles down to a relaxed atomic load and a branch, so benchmark
 * numbers stay honest. test_obs_tracing_overhead bounds tracing on vs
 * off on an MSM, and perfbench's obs.trace_overhead_frac reports it
 * for whole proves.
 *
 * The collected spans flush to Chrome trace-event JSON, loadable in
 * Perfetto (https://ui.perfetto.dev) or chrome://tracing. Worker
 * threads spawned by zkp::parallelFor publish themselves on stable
 * per-worker lanes (tid = kWorkerLaneBase + worker index), so the
 * fork-join structure of the MSM/NTT kernels is visible as parallel
 * tracks under the orchestrating thread's lane.
 *
 * Enablement:
 *  - environment: ZKP_TRACE=out.trace.json (flushed at process exit)
 *  - API: obs::startTracing(path) / obs::stopTracing()
 */

#ifndef ZKP_OBS_TRACE_H
#define ZKP_OBS_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/memprof.h"
#include "obs/pmu.h"

namespace zkp::obs {

using u64 = std::uint64_t;
using u32 = std::uint32_t;

/** Thread lane the main (first-tracing) thread reports on. */
constexpr u32 kMainLane = 0;

/** Worker lanes are kWorkerLaneBase + worker index (see parallelFor). */
constexpr u32 kWorkerLaneBase = 100;

/** One completed span. Names/keys must be string literals (or have
 *  static storage duration): only the pointer is stored. */
struct SpanEvent
{
    const char* name = nullptr;
    /// Nanoseconds since the trace epoch (startTracing).
    u64 startNs = 0;
    u64 durNs = 0;
    /// Thread lane (the Chrome-trace tid).
    u32 tid = 0;
    /// Nesting depth on the recording thread (0 = top level).
    u32 depth = 0;
    /// Optional single numeric argument; argKey == nullptr when absent.
    const char* argKey = nullptr;
    u64 argVal = 0;
    /// Per-span hardware-counter deltas, sampled on the recording
    /// thread when ZKP_PMU_SPANS=1 (hasPmu marks validity).
    bool hasPmu = false;
    u64 pmuCycles = 0;
    u64 pmuInstructions = 0;
    u64 pmuLlcLoadMisses = 0;
    /// Bytes allocated on the recording thread while the span was
    /// open, sampled when ZKP_MEMPROF_SPANS=1 under ZKP_MEMPROF=1
    /// (hasMem marks validity).
    bool hasMem = false;
    u64 memAllocBytes = 0;
};

/** Aggregate of all spans sharing one name. */
struct SpanStat
{
    const char* name = nullptr;
    u64 count = 0;
    u64 totalNs = 0;
    /// Summed per-span PMU deltas (zero unless ZKP_PMU_SPANS=1).
    u64 totalCycles = 0;
    u64 totalInstructions = 0;
    u64 totalLlcLoadMisses = 0;
    /// Summed per-span allocation deltas (zero unless
    /// ZKP_MEMPROF_SPANS=1).
    u64 totalAllocBytes = 0;
};

namespace detail {

extern std::atomic<bool> gEnabled;

u64 nowNs();
u32 currentLane();
u32 enterSpan();
void exitSpan();
void record(const SpanEvent& ev);
void setThreadLane(u32 lane);
u32 threadLane();

} // namespace detail

/** True when spans are being recorded. Hot-path check. */
inline bool
tracingEnabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}

/**
 * Clear any previously collected spans, restart the trace epoch and
 * begin recording. @p path ("" to disable file output) is where
 * stopTracing() flushes the trace.
 */
void startTracing(const std::string& path);

/**
 * Stop recording and, when a path was configured, flush the trace
 * file. Returns the path written ("" when none). Collected spans stay
 * readable (collectedSpans/spanAggregates) until the next
 * startTracing()/clearTrace().
 *
 * Call from outside parallel regions: in-flight workers racing the
 * flush may drop their final spans.
 */
std::string stopTracing();

/** Drop all collected spans (does not change the enabled state). */
void clearTrace();

/** Total spans dropped because a thread buffer filled up. */
u64 droppedSpans();

/** Snapshot of every span collected since the trace epoch. */
std::vector<SpanEvent> collectedSpans();

/** Per-name aggregates (count, total time) of the collected spans. */
std::vector<SpanStat> spanAggregates();

/** Render the collected spans as Chrome trace-event JSON. */
std::string traceJson();

/** Write traceJson() to @p path. Returns false on I/O failure. */
bool writeTrace(const std::string& path);

/**
 * Pins the calling thread to a worker lane for its lifetime; used by
 * parallelFor so worker k always reports on lane kWorkerLaneBase + k.
 */
class ScopedWorkerLane
{
  public:
    explicit ScopedWorkerLane(u32 worker_index)
        : prev_(detail::threadLane())
    {
        detail::setThreadLane(kWorkerLaneBase + worker_index);
    }

    ~ScopedWorkerLane() { detail::setThreadLane(prev_); }

    ScopedWorkerLane(const ScopedWorkerLane&) = delete;
    ScopedWorkerLane& operator=(const ScopedWorkerLane&) = delete;

  private:
    u32 prev_;
};

/**
 * RAII span. Prefer the ZKP_TRACE_SCOPE macro, which names the local
 * variable for you.
 */
class SpanScope
{
  public:
    explicit SpanScope(const char* name)
        : SpanScope(name, nullptr, 0)
    {}

    SpanScope(const char* name, const char* arg_key, u64 arg_val)
        : name_(name), argKey_(arg_key), argVal_(arg_val)
    {
        // Site attribution runs whenever the allocation profiler is
        // on, independent of whether spans are being recorded: the
        // memprof site table keys on the innermost span name.
        if (memprof::tracking()) {
            memSite_ = true;
            memprof::pushSite(name_);
            if (memprof::spanAnnotationEnabled()) {
                sampleMem_ = true;
                memStartBytes_ = memprof::threadStats().allocBytes;
            }
        }
        active_ = tracingEnabled();
        if (!active_)
            return;
        depth_ = detail::enterSpan();
        if (pmu::spanSamplingEnabled())
            samplePmu_ = pmu::readThread(pmuStart_);
        startNs_ = detail::nowNs();
    }

    ~SpanScope()
    {
        if (!active_) {
            if (memSite_)
                memprof::popSite();
            return;
        }
        const u64 end = detail::nowNs();
        detail::exitSpan();
        SpanEvent ev;
        ev.name = name_;
        ev.startNs = startNs_;
        ev.durNs = end - startNs_;
        ev.tid = detail::currentLane();
        ev.depth = depth_;
        ev.argKey = argKey_;
        ev.argVal = argVal_;
        if (samplePmu_) {
            pmu::Sample now;
            if (pmu::readThread(now)) {
                const pmu::Sample d = pmu::delta(pmuStart_, now);
                ev.hasPmu = true;
                ev.pmuCycles = (u64)d.get(pmu::Event::Cycles);
                ev.pmuInstructions =
                    (u64)d.get(pmu::Event::Instructions);
                ev.pmuLlcLoadMisses =
                    (u64)d.get(pmu::Event::LlcLoadMisses);
            }
        }
        if (sampleMem_) {
            ev.hasMem = true;
            ev.memAllocBytes =
                memprof::threadStats().allocBytes - memStartBytes_;
        }
        if (memSite_)
            memprof::popSite();
        detail::record(ev);
    }

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    const char* name_;
    const char* argKey_;
    u64 argVal_;
    u64 startNs_ = 0;
    u32 depth_ = 0;
    bool active_ = false;
    bool samplePmu_ = false;
    bool memSite_ = false;
    bool sampleMem_ = false;
    u64 memStartBytes_ = 0;
    pmu::Sample pmuStart_;
};

} // namespace zkp::obs

#define ZKP_OBS_CONCAT2(a, b) a##b
#define ZKP_OBS_CONCAT(a, b) ZKP_OBS_CONCAT2(a, b)

/**
 * Trace the enclosing scope: ZKP_TRACE_SCOPE("msm") or
 * ZKP_TRACE_SCOPE("msm", "n", n). Name and key must be string
 * literals; the value converts to u64.
 */
#define ZKP_TRACE_SCOPE(...)                                            \
    zkp::obs::SpanScope ZKP_OBS_CONCAT(zkp_trace_scope_, __LINE__)      \
    {                                                                   \
        __VA_ARGS__                                                     \
    }

#endif // ZKP_OBS_TRACE_H
