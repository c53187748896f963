/**
 * @file
 * Memory-address and branch-outcome tracing.
 *
 * When an analysis wants microarchitectural detail (cache misses, branch
 * mispredictions, DRAM traffic), it attaches TraceSinks — cache
 * hierarchy simulators, branch predictors, bandwidth trackers — to the
 * calling thread and enables tracing. Kernels then forward the *actual*
 * data addresses of their coarse-grained access streams (MSM point
 * reads, NTT butterflies, witness wire accesses, R1CS row walks) and the
 * *actual* outcomes of their data-dependent branches. This substitutes
 * for the perf/VTune hardware counters of the paper: the event streams
 * are real, the hardware consuming them is simulated.
 *
 * Tracing costs one predictable branch when disabled.
 */

#ifndef ZKP_SIM_MEMTRACE_H
#define ZKP_SIM_MEMTRACE_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/counters.h"

namespace zkp::sim {

/** Consumer of traced memory accesses and branch outcomes. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * A traced memory reference.
     *
     * @param addr virtual byte address
     * @param bytes access size
     * @param write true for stores
     * @param icount the thread's retired-instruction count at the access
     */
    virtual void onAccess(u64 addr, u32 bytes, bool write, u64 icount) = 0;

    /** A traced conditional branch outcome at site @p site. */
    virtual void onBranch(u32 site, bool taken) { (void)site; (void)taken; }
};

/** Per-thread trace gating and sink registration. */
struct TraceControl
{
    bool active = false;
    /// Sample 1 of every (sampleMask + 1) accesses; 0 traces everything.
    u32 sampleMask = 0;
    u64 tick = 0;
    std::vector<TraceSink*> sinks;
};

/** The calling thread's trace control block. */
TraceControl& traceControl();

/** Non-inline slow path shared by traceLoad/traceStore. */
void traceAccessSlow(u64 addr, u32 bytes, bool write);

/** Non-inline slow path for branch events. */
void traceBranchSlow(u32 site, bool taken);

/** Trace a data load of @p bytes at @p p if tracing is active. */
inline void
traceLoad(const void* p, std::size_t bytes)
{
    TraceControl& t = traceControl();
    if (!t.active) [[likely]]
        return;
    if ((t.tick++ & t.sampleMask) != 0)
        return;
    traceAccessSlow((u64)(std::uintptr_t)p, (u32)bytes, false);
}

/** Trace a data store of @p bytes at @p p if tracing is active. */
inline void
traceStore(const void* p, std::size_t bytes)
{
    TraceControl& t = traceControl();
    if (!t.active) [[likely]]
        return;
    if ((t.tick++ & t.sampleMask) != 0)
        return;
    traceAccessSlow((u64)(std::uintptr_t)p, (u32)bytes, true);
}

/**
 * Report a data-dependent conditional branch outcome. Branch events are
 * not sampled: predictor state needs the full outcome stream at the
 * instrumented sites to behave like the hardware structure.
 */
inline void
branchEvent(u32 site, bool taken)
{
    TraceControl& t = traceControl();
    if (!t.active) [[likely]]
        return;
    traceBranchSlow(site, taken);
}

/**
 * RAII enabling of tracing on the current thread with the given sinks.
 * Restores the previous control block on destruction. With sinks it
 * also holds a CountingScope: sinks receive the instruction count at
 * each access (the cache model's bandwidth windows).
 */
class ScopedTrace
{
  public:
    /**
     * @param sinks sinks to attach for the scope
     * @param sample_mask sample 1 in (mask+1) accesses
     */
    ScopedTrace(std::vector<TraceSink*> sinks, u32 sample_mask = 0)
        : saved_(traceControl())
    {
        if (!sinks.empty())
            counting_.emplace();
        TraceControl& t = traceControl();
        t.active = !sinks.empty();
        t.sampleMask = sample_mask;
        t.tick = 0;
        t.sinks = std::move(sinks);
    }

    ~ScopedTrace() { traceControl() = saved_; }

    ScopedTrace(const ScopedTrace&) = delete;
    ScopedTrace& operator=(const ScopedTrace&) = delete;

  private:
    TraceControl saved_;
    std::optional<CountingScope> counting_;
};

} // namespace zkp::sim

#endif // ZKP_SIM_MEMTRACE_H
