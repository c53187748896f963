#include "sim/counters.h"

#include <mutex>

#include "common/parallel.h"
#include "sim/memtrace.h"

namespace zkp::sim {

Counters&
counters()
{
    thread_local Counters tls;
    return tls;
}

TraceControl&
traceControl()
{
    thread_local TraceControl tls;
    return tls;
}

void
traceAccessSlow(u64 addr, u32 bytes, bool write)
{
    TraceControl& t = traceControl();
    const u64 icount = counters().instructions();
    for (TraceSink* sink : t.sinks)
        sink->onAccess(addr, bytes, write, icount);
}

void
traceBranchSlow(u32 site, bool taken)
{
    TraceControl& t = traceControl();
    for (TraceSink* sink : t.sinks)
        sink->onBranch(site, taken);
}

namespace {

std::mutex gPendingMutex;
Counters gPendingWorkers;

} // namespace

void
installWorkerMergeHook()
{
    static std::once_flag once;
    std::call_once(once, [] {
        setWorkerDoneHook([] {
            if (!countingEnabled())
                return;
            std::lock_guard<std::mutex> lock(gPendingMutex);
            gPendingWorkers.merge(counters());
            counters().reset();
        });
    });
}

void
drainWorkerCounters()
{
    Counters pending;
    {
        std::lock_guard<std::mutex> lock(gPendingMutex);
        pending = gPendingWorkers;
        gPendingWorkers.reset();
    }
    counters().merge(pending);
}

} // namespace zkp::sim
