#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json.h"
#include "obs/report.h"

namespace zkp::obs {

namespace detail {

std::atomic<bool> gEnabled{false};

namespace {

/// Cap per thread buffer; beyond it spans are dropped (and counted)
/// rather than growing without bound or overwriting earlier structure.
constexpr std::size_t kMaxEventsPerLog = std::size_t(1) << 20;

constexpr u32 kNoLane = 0xffffffffu;

/**
 * Per-thread span storage. The owning thread appends under a spinlock
 * that is uncontended except while a flush snapshot is being taken;
 * logs outlive their threads (parallelFor workers are short-lived) by
 * being pooled: a dying thread releases its log with the events kept,
 * and a later thread reuses it.
 */
struct ThreadLog
{
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    std::vector<SpanEvent> events;
    u64 dropped = 0;
    bool inUse = false;
};

std::mutex gRegistryMutex;
std::vector<std::unique_ptr<ThreadLog>>& registry()
{
    // Leaked on purpose: the ZKP_TRACE atexit flush and late-dying
    // threads' LogHolders may run after static destructors.
    static std::vector<std::unique_ptr<ThreadLog>>& logs =
        *new std::vector<std::unique_ptr<ThreadLog>>;
    return logs;
}

std::atomic<u32> gNextLane{kMainLane};
std::chrono::steady_clock::time_point gEpoch =
    std::chrono::steady_clock::now();
std::mutex gPathMutex;
std::string gTracePath;

thread_local u32 tlLane = kNoLane;
thread_local u32 tlDepth = 0;

struct LogHolder
{
    ThreadLog* log = nullptr;

    ~LogHolder()
    {
        if (!log)
            return;
        std::lock_guard<std::mutex> g(gRegistryMutex);
        log->inUse = false;
    }
};

thread_local LogHolder tlLog;

ThreadLog&
acquireLog()
{
    std::lock_guard<std::mutex> g(gRegistryMutex);
    for (auto& l : registry()) {
        if (!l->inUse) {
            l->inUse = true;
            tlLog.log = l.get();
            return *l;
        }
    }
    registry().push_back(std::make_unique<ThreadLog>());
    registry().back()->inUse = true;
    tlLog.log = registry().back().get();
    return *tlLog.log;
}

struct SpinGuard
{
    std::atomic_flag& f;

    explicit SpinGuard(std::atomic_flag& flag) : f(flag)
    {
        while (f.test_and_set(std::memory_order_acquire)) {
        }
    }

    ~SpinGuard() { f.clear(std::memory_order_release); }
};

/** Run fn over every log (live and retired) under both locks. */
template <typename Fn>
void
forEachLog(Fn&& fn)
{
    std::lock_guard<std::mutex> g(gRegistryMutex);
    for (auto& l : registry()) {
        SpinGuard s(l->lock);
        fn(*l);
    }
}

} // namespace

u64
nowNs()
{
    return (u64)std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - gEpoch)
        .count();
}

u32
currentLane()
{
    if (tlLane == kNoLane)
        tlLane = gNextLane.fetch_add(1, std::memory_order_relaxed);
    return tlLane;
}

void
setThreadLane(u32 lane)
{
    tlLane = lane;
}

u32
threadLane()
{
    return tlLane;
}

u32
enterSpan()
{
    return tlDepth++;
}

void
exitSpan()
{
    if (tlDepth > 0)
        --tlDepth;
}

void
record(const SpanEvent& ev)
{
    if (!gEnabled.load(std::memory_order_relaxed))
        return;
    ThreadLog& log = tlLog.log ? *tlLog.log : acquireLog();
    SpinGuard s(log.lock);
    if (log.events.size() < kMaxEventsPerLog)
        log.events.push_back(ev);
    else
        ++log.dropped;
}

} // namespace detail

void
startTracing(const std::string& path)
{
    clearTrace();
    {
        std::lock_guard<std::mutex> g(detail::gPathMutex);
        detail::gTracePath = path;
        detail::gEpoch = std::chrono::steady_clock::now();
    }
    detail::gEnabled.store(true, std::memory_order_release);
}

std::string
stopTracing()
{
    detail::gEnabled.store(false, std::memory_order_release);
    std::string path;
    {
        std::lock_guard<std::mutex> g(detail::gPathMutex);
        path = detail::gTracePath;
    }
    if (!path.empty() && !writeTrace(path))
        path.clear();
    return path;
}

void
clearTrace()
{
    detail::forEachLog([](detail::ThreadLog& l) {
        l.events.clear();
        l.dropped = 0;
    });
}

u64
droppedSpans()
{
    u64 total = 0;
    detail::forEachLog(
        [&](detail::ThreadLog& l) { total += l.dropped; });
    return total;
}

std::vector<SpanEvent>
collectedSpans()
{
    std::vector<SpanEvent> out;
    detail::forEachLog([&](detail::ThreadLog& l) {
        out.insert(out.end(), l.events.begin(), l.events.end());
    });
    std::sort(out.begin(), out.end(),
              [](const SpanEvent& a, const SpanEvent& b) {
                  return a.tid != b.tid ? a.tid < b.tid
                                        : a.startNs < b.startNs;
              });
    return out;
}

std::vector<SpanStat>
spanAggregates()
{
    // Keyed by pointer identity: span names are string literals.
    std::map<const char*, SpanStat> agg;
    detail::forEachLog([&](detail::ThreadLog& l) {
        for (const SpanEvent& ev : l.events) {
            SpanStat& s = agg[ev.name];
            s.name = ev.name;
            ++s.count;
            s.totalNs += ev.durNs;
        }
    });
    std::vector<SpanStat> out;
    out.reserve(agg.size());
    for (auto& [_, s] : agg)
        out.push_back(s);
    std::sort(out.begin(), out.end(),
              [](const SpanStat& a, const SpanStat& b) {
                  return a.totalNs > b.totalNs;
              });
    return out;
}

std::string
traceJson()
{
    const std::vector<SpanEvent> spans = collectedSpans();

    JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();

    // Thread-name metadata so Perfetto labels the lanes.
    std::vector<u32> lanes;
    for (const SpanEvent& ev : spans)
        if (std::find(lanes.begin(), lanes.end(), ev.tid) == lanes.end())
            lanes.push_back(ev.tid);
    for (u32 lane : lanes) {
        std::string label;
        if (lane == kMainLane)
            label = "main";
        else if (lane >= kWorkerLaneBase)
            label = "worker-" + std::to_string(lane - kWorkerLaneBase);
        else
            label = "thread-" + std::to_string(lane);
        w.beginObject();
        w.key("name").value("thread_name");
        w.key("ph").value("M");
        w.key("ts").value((u64)0);
        w.key("pid").value((u64)1);
        w.key("tid").value((u64)lane);
        w.key("args").beginObject();
        w.key("name").value(label);
        w.endObject();
        w.endObject();
    }

    for (const SpanEvent& ev : spans) {
        w.beginObject();
        w.key("name").value(ev.name);
        w.key("ph").value("X");
        // Chrome-trace timestamps are in microseconds.
        w.key("ts").value((double)ev.startNs / 1e3);
        w.key("dur").value((double)ev.durNs / 1e3);
        w.key("pid").value((u64)1);
        w.key("tid").value((u64)ev.tid);
        if (ev.argKey) {
            w.key("args").beginObject();
            w.key(ev.argKey).value(ev.argVal);
            w.endObject();
        }
        w.endObject();
    }

    w.endArray();
    const u64 dropped = droppedSpans();
    if (dropped > 0)
        w.key("zkpDroppedSpans").value(dropped);
    w.endObject();
    return w.take();
}

bool
writeTrace(const std::string& path)
{
    const std::string json = traceJson();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

namespace {

bool gReportAtExit = false;

/**
 * Environment activation: ZKP_TRACE=path enables tracing for the
 * whole process and flushes at exit; ZKP_REPORT=path writes the
 * accumulated run report at exit (see obs/report.h).
 */
struct EnvInit
{
    EnvInit()
    {
        if (const char* p = std::getenv("ZKP_TRACE"); p && *p) {
            startTracing(p);
            std::atexit([] { stopTracing(); });
        }
        if (const char* p = std::getenv("ZKP_REPORT"); p && *p) {
            static std::string path;
            path = p;
            gReportAtExit = true;
            std::atexit([] { writeRunReport(path); });
        }
    }
};

EnvInit gEnvInit;

} // namespace

bool
reportAtExit()
{
    return gReportAtExit;
}

} // namespace zkp::obs
