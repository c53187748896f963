#include "sim/counters.h"

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
    const u64 icount = counters().instructions() - t.icountBase;
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

} // namespace zkp::sim
