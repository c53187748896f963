#include "obs/pmu.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#define ZKP_PMU_LINUX 1
#else
#define ZKP_PMU_LINUX 0
#endif

namespace zkp::obs::pmu {

const char*
eventName(Event e)
{
    switch (e) {
      case Event::Cycles:
        return "cycles";
      case Event::Instructions:
        return "instructions";
      case Event::Branches:
        return "branches";
      case Event::BranchMisses:
        return "branch_misses";
      case Event::LlcLoads:
        return "llc_loads";
      case Event::LlcLoadMisses:
        return "llc_load_misses";
      case Event::CacheReferences:
        return "cache_references";
      case Event::TdSlots:
        return "topdown_slots";
      case Event::TdRetiring:
        return "topdown_retiring";
      case Event::TdBadSpec:
        return "topdown_bad_spec";
      case Event::TdFeBound:
        return "topdown_fe_bound";
      case Event::TdBeBound:
        return "topdown_be_bound";
      default:
        return "?";
    }
}

Sample
delta(const Sample& before, const Sample& after)
{
    Sample d;
    d.validMask = before.validMask & after.validMask;
    for (std::size_t i = 0; i < kNumEvents; ++i) {
        if (!(d.validMask >> i & 1u))
            continue;
        // Counters are monotonic; clamp anyway so a re-opened fd or
        // scaling jitter can never produce a negative delta.
        const double v = after.value[i] - before.value[i];
        d.value[i] = v > 0 ? v : 0;
    }
    return d;
}

namespace {

std::string& gReason()
{
    static std::string& r = *new std::string;
    return r;
}

#if ZKP_PMU_LINUX

long
perfEventOpen(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
              unsigned long flags)
{
    return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd,
                   flags);
}

/** Event selector: perf type + config (sysfs-resolved for top-down). */
struct EventSpec
{
    Event event;
    u32 type = 0;
    u64 config = 0;
};

/**
 * Parse "event=0x00,umask=0x80" (sysfs event encoding) into a raw
 * config word. Only the event/umask fields appear in the top-down
 * entries this layer resolves.
 */
bool
parseSysfsConfig(const char* text, u64& config)
{
    u64 event = 0, umask = 0;
    bool any = false;
    const char* p = text;
    while (*p) {
        u64* field = nullptr;
        if (std::strncmp(p, "event=", 6) == 0) {
            field = &event;
            p += 6;
        } else if (std::strncmp(p, "umask=", 6) == 0) {
            field = &umask;
            p += 6;
        } else {
            // Unknown field (cmask, inv, ...): bail out rather than
            // open a counter that measures something else.
            return false;
        }
        char* end = nullptr;
        *field = std::strtoull(p, &end, 0);
        if (end == p)
            return false;
        any = true;
        p = end;
        if (*p == ',')
            ++p;
        else if (*p != '\0' && *p != '\n')
            return false;
    }
    config = event | (umask << 8);
    return any;
}

bool
readSysfsLine(const std::string& path, std::string& out)
{
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (!f)
        return false;
    char buf[256] = {0};
    const bool ok = std::fgets(buf, sizeof(buf), f) != nullptr;
    std::fclose(f);
    if (!ok)
        return false;
    out = buf;
    while (!out.empty() && (out.back() == '\n' || out.back() == ' '))
        out.pop_back();
    return !out.empty();
}

/**
 * Resolve the top-down slot events from sysfs. Returns the specs in
 * group order (slots leader first) or an empty vector when the CPU
 * (or the container's /sys) does not expose them.
 */
std::vector<EventSpec>
resolveTopdownSpecs()
{
    // "cpu" on homogeneous parts, "cpu_core" on hybrid ones.
    const char* pmus[] = {"cpu", "cpu_core"};
    for (const char* pmu : pmus) {
        const std::string base =
            std::string("/sys/bus/event_source/devices/") + pmu;
        std::string type_text;
        if (!readSysfsLine(base + "/type", type_text))
            continue;
        const u32 type = (u32)std::strtoul(type_text.c_str(), nullptr, 10);

        static const std::pair<Event, const char*> kNames[] = {
            {Event::TdSlots, "slots"},
            {Event::TdRetiring, "topdown-retiring"},
            {Event::TdBadSpec, "topdown-bad-spec"},
            {Event::TdFeBound, "topdown-fe-bound"},
            {Event::TdBeBound, "topdown-be-bound"},
        };
        std::vector<EventSpec> specs;
        for (const auto& [ev, name] : kNames) {
            std::string text;
            u64 config = 0;
            if (!readSysfsLine(base + "/events/" + name, text) ||
                !parseSysfsConfig(text.c_str(), config))
                break;
            specs.push_back({ev, type, config});
        }
        if (specs.size() == std::size(kNames))
            return specs;
    }
    return {};
}

/**
 * One perf event group on the calling thread. The leader is opened
 * with PERF_FORMAT_GROUP, so a single read() returns every member
 * plus the group's time_enabled/time_running for multiplex scaling.
 */
struct EventGroup
{
    int leaderFd = -1;
    std::vector<int> fds;      // leader first
    std::vector<Event> events; // parallel to fds

    bool
    open(const std::vector<EventSpec>& specs, bool all_or_nothing)
    {
        for (const EventSpec& s : specs) {
            perf_event_attr attr{};
            attr.size = sizeof(attr);
            attr.type = s.type;
            attr.config = s.config;
            attr.disabled = fds.empty() ? 1 : 0;
            attr.exclude_kernel = 1;
            attr.exclude_hv = 1;
            attr.read_format = PERF_FORMAT_GROUP |
                               PERF_FORMAT_TOTAL_TIME_ENABLED |
                               PERF_FORMAT_TOTAL_TIME_RUNNING;
            const int fd = (int)perfEventOpen(
                &attr, 0, -1, fds.empty() ? -1 : leaderFd, 0);
            if (fd < 0) {
                if (all_or_nothing || fds.empty()) {
                    close();
                    return false;
                }
                continue; // drop just this member
            }
            if (fds.empty())
                leaderFd = fd;
            fds.push_back(fd);
            events.push_back(s.event);
        }
        if (leaderFd >= 0)
            ioctl(leaderFd, PERF_EVENT_IOC_ENABLE,
                  PERF_IOC_FLAG_GROUP);
        return !fds.empty();
    }

    /** Group read, multiplex-scaled into @p out. */
    void
    read(Sample& out) const
    {
        if (leaderFd < 0)
            return;
        // nr + time_enabled + time_running + one value per member.
        u64 buf[3 + 16] = {0};
        const std::size_t want = (3 + fds.size()) * sizeof(u64);
        const ssize_t got = ::read(leaderFd, buf, sizeof(buf));
        if (got < (ssize_t)want || buf[0] != fds.size())
            return;
        const u64 enabled = buf[1], running = buf[2];
        if (running == 0)
            return; // group never scheduled: no information
        const double scale = (double)enabled / (double)running;
        for (std::size_t i = 0; i < fds.size(); ++i)
            out.set(events[i], (double)buf[3 + i] * scale);
    }

    void
    close()
    {
        for (int fd : fds)
            ::close(fd);
        fds.clear();
        events.clear();
        leaderFd = -1;
    }
};

/** The calling thread's open counter groups. */
struct ThreadCounters
{
    EventGroup core; // cycles, instructions, branches, branch-misses
    EventGroup mem;  // LLC loads/misses, cache-references
    EventGroup td;   // slots + 4 top-down metrics (may be absent)
    bool opened = false;

    void
    open()
    {
        opened = true;
        const u64 llc_loads =
            PERF_COUNT_HW_CACHE_LL |
            (PERF_COUNT_HW_CACHE_OP_READ << 8) |
            (PERF_COUNT_HW_CACHE_RESULT_ACCESS << 16);
        const u64 llc_load_misses =
            PERF_COUNT_HW_CACHE_LL |
            (PERF_COUNT_HW_CACHE_OP_READ << 8) |
            (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);

        core.open({{Event::Cycles, PERF_TYPE_HARDWARE,
                    PERF_COUNT_HW_CPU_CYCLES},
                   {Event::Instructions, PERF_TYPE_HARDWARE,
                    PERF_COUNT_HW_INSTRUCTIONS},
                   {Event::Branches, PERF_TYPE_HARDWARE,
                    PERF_COUNT_HW_BRANCH_INSTRUCTIONS},
                   {Event::BranchMisses, PERF_TYPE_HARDWARE,
                    PERF_COUNT_HW_BRANCH_MISSES}},
                  /*all_or_nothing=*/false);
        mem.open({{Event::LlcLoads, PERF_TYPE_HW_CACHE, llc_loads},
                  {Event::LlcLoadMisses, PERF_TYPE_HW_CACHE,
                   llc_load_misses},
                  {Event::CacheReferences, PERF_TYPE_HARDWARE,
                   PERF_COUNT_HW_CACHE_REFERENCES}},
                 /*all_or_nothing=*/false);
        // The metric events are hardware-ratioed against the slots
        // leader; a partial group is meaningless, so all-or-nothing.
        const auto td_specs = resolveTopdownSpecs();
        if (!td_specs.empty())
            td.open(td_specs, /*all_or_nothing=*/true);
    }

    bool
    read(Sample& out)
    {
        if (!opened)
            open();
        core.read(out);
        mem.read(out);
        td.read(out);
        return out.validMask != 0;
    }

    ~ThreadCounters()
    {
        core.close();
        mem.close();
        td.close();
    }
};

thread_local ThreadCounters tlCounters;

/**
 * One-time availability probe: open-and-close a cycles counter on
 * this thread. Failure classifies the denial for the notice line.
 */
bool
probeOnce()
{
    perf_event_attr attr{};
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = PERF_COUNT_HW_CPU_CYCLES;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    const int fd = (int)perfEventOpen(&attr, 0, -1, -1, 0);
    if (fd >= 0) {
        ::close(fd);
        return true;
    }
    const int err = errno;
    std::string why = std::strerror(err);
    if (err == EACCES || err == EPERM)
        why += " (perf_event_paranoid or seccomp denies access)";
    else if (err == ENOENT || err == ENODEV || err == EOPNOTSUPP)
        why += " (no hardware PMU exposed, e.g. VM/container)";
    else if (err == ENOSYS)
        why += " (kernel built without perf events)";
    gReason() = "perf_event_open: " + why;
    return false;
}

#else // !ZKP_PMU_LINUX

bool
probeOnce()
{
    gReason() = "perf_event_open requires Linux";
    return false;
}

#endif

bool
envDisabled(const char* name)
{
    const char* v = std::getenv(name);
    return v && v[0] == '0' && v[1] == '\0';
}

/// Worker deltas of the pool regions this thread opened.
thread_local Sample tlRegionWorkers;

} // namespace

bool
available()
{
    static const bool ok = [] {
        const bool probed = probeOnce();
        if (!probed && !envDisabled("ZKP_PMU"))
            std::fprintf(stderr,
                         "zkp: hardware counters unavailable (%s); "
                         "hw sections report available=false\n",
                         gReason().c_str());
        return probed;
    }();
    return ok;
}

const std::string&
unavailableReason()
{
    available();
    return gReason();
}

bool
enabled()
{
    static const bool on = !envDisabled("ZKP_PMU") && available();
    return on;
}

bool
readThread(Sample& out)
{
#if ZKP_PMU_LINUX
    if (!enabled() || !tlCounters.read(out))
        return false;
    out += tlRegionWorkers;
    return true;
#else
    (void)out;
    return false;
#endif
}

void
addRegionDelta(const Sample& d)
{
    tlRegionWorkers += d;
}

HwStats
deriveStats(const Sample& d, double seconds)
{
    HwStats s;
    s.available = d.validMask != 0;
    s.seconds = seconds;
    if (!s.available)
        return s;

    s.cycles = d.get(Event::Cycles);
    s.instructions = d.get(Event::Instructions);
    if (s.cycles > 0)
        s.ipc = s.instructions / s.cycles;
    s.branches = d.get(Event::Branches);
    s.branchMisses = d.get(Event::BranchMisses);
    if (s.branches > 0)
        s.branchMissPct = 100.0 * s.branchMisses / s.branches;
    s.llcLoads = d.get(Event::LlcLoads);
    s.llcLoadMisses = d.get(Event::LlcLoadMisses);
    if (s.instructions > 0)
        s.llcLoadMpki = s.llcLoadMisses / (s.instructions / 1000.0);
    s.cacheReferences = d.get(Event::CacheReferences);

    const double slots = d.get(Event::TdSlots);
    if (d.has(Event::TdSlots) && slots > 0 &&
        d.has(Event::TdRetiring) && d.has(Event::TdBadSpec) &&
        d.has(Event::TdFeBound) && d.has(Event::TdBeBound)) {
        s.topdownValid = true;
        s.tdRetiring = d.get(Event::TdRetiring) / slots;
        s.tdBadSpec = d.get(Event::TdBadSpec) / slots;
        s.tdFeBound = d.get(Event::TdFeBound) / slots;
        s.tdBeBound = d.get(Event::TdBeBound) / slots;
    }

    if (d.has(Event::LlcLoadMisses)) {
        s.dramBytesEst = s.llcLoadMisses * kCacheLineBytes;
        if (seconds > 0)
            s.bandwidthGBps = s.dramBytesEst / seconds / 1e9;
    }
    return s;
}

std::vector<std::pair<std::string, double>>
statPairs(const HwStats& s)
{
    std::vector<std::pair<std::string, double>> out;
    if (!s.available)
        return out;
    out.emplace_back("cycles", s.cycles);
    out.emplace_back("instructions", s.instructions);
    out.emplace_back("ipc", s.ipc);
    out.emplace_back("branches", s.branches);
    out.emplace_back("branch_misses", s.branchMisses);
    out.emplace_back("branch_miss_pct", s.branchMissPct);
    out.emplace_back("llc_loads", s.llcLoads);
    out.emplace_back("llc_load_misses", s.llcLoadMisses);
    out.emplace_back("llc_load_mpki", s.llcLoadMpki);
    out.emplace_back("cache_references", s.cacheReferences);
    if (s.topdownValid) {
        out.emplace_back("td_retiring", s.tdRetiring);
        out.emplace_back("td_bad_spec", s.tdBadSpec);
        out.emplace_back("td_fe_bound", s.tdFeBound);
        out.emplace_back("td_be_bound", s.tdBeBound);
    }
    out.emplace_back("dram_bytes_est", s.dramBytesEst);
    out.emplace_back("bandwidth_gbps", s.bandwidthGBps);
    return out;
}

} // namespace zkp::obs::pmu
