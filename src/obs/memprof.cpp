/**
 * @file
 * Memory observability implementation: global operator new/delete
 * replacements feeding pooled per-thread atomic counter blocks,
 * /proc-based RSS readers, and the tracked-owner byte registry.
 *
 * The per-thread block pool mirrors the trace.cpp ThreadLog design:
 * blocks live in a leaked registry forever (so totals survive thread
 * exit), a thread-local holder releases its block for reuse when the
 * thread dies, and allocations arriving after TLS teardown fall back
 * to one shared late block. Everything the hooks touch is pre-sized
 * and atomic — the hooks themselves never allocate; the only
 * allocating step (registering a new thread's block) runs under a
 * thread-local in-hook flag so its own allocations pass through
 * unrecorded.
 */

#include "obs/memprof.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <new>

#if defined(__linux__)
#include <malloc.h> // malloc_usable_size
#include <unistd.h>
#endif

// Detect sanitizer runtimes that install their own allocator: the
// replacements below must not shadow it (interposition reports
// unavailable instead, covered by test_memprof).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ZKP_MEMPROF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ZKP_MEMPROF_SANITIZED 1
#endif
#endif

#ifndef ZKP_MEMPROF_SANITIZED
#define ZKP_MEMPROF_SANITIZED 0
#endif

namespace zkp::obs::memprof {

namespace detail {

std::atomic<bool> gTracking{false};

} // namespace detail

namespace {

// ---------------------------------------------------------------------------
// Per-thread counter blocks
// ---------------------------------------------------------------------------

/** One span-site slot: key is the span-name literal pointer. */
struct SiteSlot
{
    std::atomic<const char*> key{nullptr};
    std::atomic<u64> bytes{0};
    std::atomic<u64> count{0};
};

struct Block
{
    std::atomic<bool> inUse{true};
    std::atomic<u64> allocBytes{0};
    std::atomic<u64> allocCount{0};
    std::atomic<u64> freeBytes{0};
    std::atomic<u64> freeCount{0};
    std::array<SiteSlot, kSiteSlots> sites{};
    /// Allocations made with no span active. Kept out of the slot
    /// table: letting them accumulate in an unclaimed (null-key)
    /// slot would hand those bytes to whichever span name claims
    /// the slot next, inflating that site by every unattributed
    /// byte since the previous claim.
    std::atomic<u64> noSpanBytes{0};
    std::atomic<u64> noSpanCount{0};
    /// Allocations whose site table was full.
    std::atomic<u64> overflowBytes{0};
    std::atomic<u64> overflowCount{0};
};

std::mutex gRegistryMutex;

std::vector<std::unique_ptr<Block>>&
registry()
{
    // Leaked: blocks must outlive every thread, including ones that
    // allocate during static destruction.
    static auto* r = new std::vector<std::unique_ptr<Block>>();
    return *r;
}

/** Allocations arriving after a thread's TLS teardown land here. */
Block&
lateBlock()
{
    static Block b; // constant-init'able members; never registered
    return b;
}

thread_local Block* tBlock = nullptr;
thread_local bool tDead = false;
thread_local bool tInHook = false;

struct BlockHolder
{
    Block* block = nullptr;

    ~BlockHolder()
    {
        if (block)
            block->inUse.store(false, std::memory_order_release);
        tBlock = nullptr;
        tDead = true;
    }
};

thread_local BlockHolder tHolder;

Block*
acquireBlock()
{
    std::lock_guard<std::mutex> lock(gRegistryMutex);
    for (auto& b : registry()) {
        bool expected = false;
        if (b->inUse.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel))
            return b.get();
    }
    registry().push_back(std::make_unique<Block>());
    return registry().back().get();
}

/** The calling thread's block, or the shared late block after TLS
 *  teardown; nullptr while the nested registration is in flight. */
Block*
currentBlock()
{
    if (tBlock)
        return tBlock;
    if (tDead)
        return &lateBlock();
    if (tInHook)
        return nullptr;
    tInHook = true;
    Block* b = acquireBlock();
    tHolder.block = b;
    tBlock = b;
    tInHook = false;
    return b;
}

// ---------------------------------------------------------------------------
// Span-site context (POD thread-locals: safe through TLS teardown)
// ---------------------------------------------------------------------------

constexpr std::size_t kSiteStackDepth = 32;
thread_local const char* tSiteStack[kSiteStackDepth];
thread_local std::size_t tSiteDepth = 0;

const char*
currentSite()
{
    return tSiteDepth ? tSiteStack[tSiteDepth - 1] : nullptr;
}

void
recordSite(Block& b, const char* name, std::size_t usable)
{
    // Linear probe keyed on pointer identity; slots are claimed once
    // and never released, so a hit needs no synchronization beyond
    // the relaxed key load. A null name must not touch the slot
    // table: CAS(nullptr -> nullptr) "claims" nothing, so its bytes
    // would sit in an unclaimed slot and be inherited by the next
    // span name that claims it.
    if (name == nullptr) {
        b.noSpanBytes.fetch_add(usable, std::memory_order_relaxed);
        b.noSpanCount.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    for (std::size_t i = 0; i < kSiteSlots; ++i) {
        SiteSlot& slot = b.sites[i];
        const char* key = slot.key.load(std::memory_order_acquire);
        if (key == nullptr) {
            const char* expected = nullptr;
            if (!slot.key.compare_exchange_strong(
                    expected, name, std::memory_order_acq_rel))
                key = expected;
            else
                key = name;
        }
        if (key == name) {
            slot.bytes.fetch_add(usable, std::memory_order_relaxed);
            slot.count.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
    b.overflowBytes.fetch_add(usable, std::memory_order_relaxed);
    b.overflowCount.fetch_add(1, std::memory_order_relaxed);
}

std::size_t
usableSize(void* p)
{
#if defined(__linux__)
    return malloc_usable_size(p);
#else
    (void)p;
    return 0;
#endif
}

void
recordAlloc(void* p)
{
    Block* b = currentBlock();
    if (!b)
        return;
    const std::size_t usable = usableSize(p);
    b->allocBytes.fetch_add(usable, std::memory_order_relaxed);
    b->allocCount.fetch_add(1, std::memory_order_relaxed);
    recordSite(*b, currentSite(), usable);
}

void
recordFree(void* p)
{
    Block* b = currentBlock();
    if (!b)
        return;
    const std::size_t usable = usableSize(p);
    b->freeBytes.fetch_add(usable, std::memory_order_relaxed);
    b->freeCount.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Tracked owners
// ---------------------------------------------------------------------------

std::mutex gTrackedMutex;

std::map<std::string, i64>&
trackedMap()
{
    static auto* m = new std::map<std::string, i64>();
    return *m;
}

std::atomic<i64> gTrackedTotal{0};

// ---------------------------------------------------------------------------
// /proc readers
// ---------------------------------------------------------------------------

long
pageSize()
{
#if defined(__linux__)
    static const long kPage = ::sysconf(_SC_PAGESIZE);
    return kPage > 0 ? kPage : 4096;
#else
    return 4096;
#endif
}

/** Scan a /proc status-style file for "<field>:" and return its kB
 *  value as bytes (0 when absent/unreadable). */
u64
readKbField(const char* path, const char* field)
{
    std::FILE* f = std::fopen(path, "r");
    if (!f)
        return 0;
    char line[256];
    const std::size_t flen = std::strlen(field);
    u64 out = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, field, flen) != 0 || line[flen] != ':')
            continue;
        unsigned long long kb = 0;
        if (std::sscanf(line + flen + 1, " %llu", &kb) == 1)
            out = (u64)kb * 1024;
        break;
    }
    std::fclose(f);
    return out;
}

// ---------------------------------------------------------------------------
// Environment opt-in
// ---------------------------------------------------------------------------

bool
envFlag(const char* name)
{
    const char* v = std::getenv(name);
    return v && v[0] && !(v[0] == '0' && v[1] == '\0');
}

struct EnvInit
{
    EnvInit()
    {
        if (envFlag("ZKP_MEMPROF"))
            setTracking(true);
    }
};

EnvInit gEnvInit;

} // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

bool
available()
{
    return !ZKP_MEMPROF_SANITIZED;
}

const char*
unavailableReason()
{
    if (ZKP_MEMPROF_SANITIZED)
        return "sanitizer allocator active (interposition disabled)";
    return "";
}

bool
setTracking(bool on)
{
    if (on && !available()) {
        static std::once_flag notice;
        std::call_once(notice, [] {
            std::fprintf(stderr,
                         "zkp: ZKP_MEMPROF requested but %s\n",
                         unavailableReason());
        });
        return false;
    }
    detail::gTracking.store(on, std::memory_order_relaxed);
    return on;
}

namespace detail {

void
pushSiteSlow(const char* name)
{
    if (tSiteDepth < kSiteStackDepth)
        tSiteStack[tSiteDepth] = name;
    ++tSiteDepth;
}

void
popSiteSlow()
{
    if (tSiteDepth)
        --tSiteDepth;
}

} // namespace detail

namespace {

void
addBlock(MemStats& s, const Block& b)
{
    s.allocBytes += b.allocBytes.load(std::memory_order_relaxed);
    s.allocCount += b.allocCount.load(std::memory_order_relaxed);
    s.freeBytes += b.freeBytes.load(std::memory_order_relaxed);
    s.freeCount += b.freeCount.load(std::memory_order_relaxed);
}

template <typename Fn>
void
forEachBlock(Fn&& fn)
{
    std::lock_guard<std::mutex> lock(gRegistryMutex);
    for (const auto& b : registry())
        fn(*b);
    fn(lateBlock());
}

} // namespace

MemStats
totals()
{
    MemStats s;
    forEachBlock([&](const Block& b) { addBlock(s, b); });
    return s;
}

MemStats
threadStats()
{
    MemStats s;
    if (tBlock)
        addBlock(s, *tBlock);
    return s;
}

namespace {

/// Distinct site names one capture holds; further names merge into
/// "(other)", so the sums stay exact.
constexpr std::size_t kCaptureSites = 128;

/**
 * Merge every block's site table by name into out[0, cap) and return
 * the number of entries. Allocates nothing: a capture reads it next to
 * the counters, and an allocation between the two reads would land in
 * one and not the other.
 */
std::size_t
readSites(SiteStat* out, std::size_t cap)
{
    // Span names are literals, so the cardinality is small and a
    // linear scan by key pointer is fine. Two entries stay free for
    // the unattributed buckets.
    std::size_t n = 0;
    SiteStat noSpan{"(no span)"}, other{"(other)"};
    auto merge = [&](const char* key, u64 bytes, u64 count) {
        if (!bytes && !count)
            return;
        for (std::size_t i = 0; i < n; ++i) {
            if (out[i].name == key) {
                out[i].allocBytes += bytes;
                out[i].allocCount += count;
                return;
            }
        }
        if (n + 2 < cap) {
            out[n++] = SiteStat{key, bytes, count};
        } else {
            other.allocBytes += bytes;
            other.allocCount += count;
        }
    };
    forEachBlock([&](const Block& b) {
        for (const auto& slot : b.sites) {
            const char* key = slot.key.load(std::memory_order_acquire);
            if (!key)
                continue;
            merge(key, slot.bytes.load(std::memory_order_relaxed),
                  slot.count.load(std::memory_order_relaxed));
        }
        noSpan.allocBytes += b.noSpanBytes.load(std::memory_order_relaxed);
        noSpan.allocCount += b.noSpanCount.load(std::memory_order_relaxed);
        other.allocBytes += b.overflowBytes.load(std::memory_order_relaxed);
        other.allocCount += b.overflowCount.load(std::memory_order_relaxed);
    });
    for (const SiteStat& s : {noSpan, other})
        if (s.allocBytes || s.allocCount)
            out[n++] = s;
    return n;
}

} // namespace

std::vector<SiteStat>
siteSnapshot()
{
    // Sized before the read, which then allocates nothing.
    std::vector<SiteStat> out(kCaptureSites);
    out.resize(readSites(out.data(), out.size()));
    return out;
}

u64
rssBytes()
{
#if defined(__linux__)
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long long total = 0, resident = 0;
    const int n = std::fscanf(f, "%llu %llu", &total, &resident);
    std::fclose(f);
    if (n != 2)
        return 0;
    return (u64)resident * (u64)pageSize();
#else
    return 0;
#endif
}

u64
peakRssBytes()
{
    // VmHWM's "current RSS" component is assembled from per-thread
    // cached counters (split RSS accounting, synced every ~64 page
    // faults), so raw reads can jitter a few pages *backwards* while
    // RSS is the running maximum. Clamp to the largest value this
    // process has observed so the documented monotonicity holds.
    static std::atomic<u64> highest{0};
    const u64 v = readKbField("/proc/self/status", "VmHWM");
    u64 prev = highest.load(std::memory_order_relaxed);
    while (prev < v &&
           !highest.compare_exchange_weak(prev, v,
                                          std::memory_order_relaxed)) {
    }
    return prev < v ? v : prev;
}

void
trackedAdd(const char* owner, i64 delta)
{
    if (!owner || delta == 0)
        return;
    std::lock_guard<std::mutex> lock(gTrackedMutex);
    i64& account = trackedMap()[owner];
    const i64 before = account;
    account = std::max<i64>(0, account + delta);
    gTrackedTotal.fetch_add(account - before,
                            std::memory_order_relaxed);
}

u64
trackedTotalBytes()
{
    const i64 total = gTrackedTotal.load(std::memory_order_relaxed);
    return total > 0 ? (u64)total : 0;
}

std::vector<std::pair<std::string, u64>>
trackedSnapshot()
{
    std::vector<std::pair<std::string, u64>> out;
    {
        std::lock_guard<std::mutex> lock(gTrackedMutex);
        for (const auto& [name, bytes] : trackedMap())
            if (bytes > 0)
                out.emplace_back(name, (u64)bytes);
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
        return a.second != b.second ? a.second > b.second
                                    : a.first < b.first;
    });
    return out;
}

Snapshot
snapshot()
{
    Snapshot s;
    // The site list is the capture's only tracked allocation (the
    // /proc readers below allocate through malloc, which the shim does
    // not see), made before either read: both the counters and the
    // sites include it, so a stageDelta against this capture leaves it
    // out of both. Counters are read before sites here and after them
    // in stageDelta, so an allocation racing either capture can reach
    // the delta's counters without its site, never the reverse.
    const bool sites = tracking();
    if (sites)
        s.sites.resize(kCaptureSites);
    s.stats = totals();
    if (sites)
        s.sites.resize(readSites(s.sites.data(), s.sites.size()));
    s.rssBytes = rssBytes();
    s.peakRssBytes = peakRssBytes();
    s.trackedBytes = trackedTotalBytes();
    return s;
}

StageMem
stageDelta(const Snapshot& before, std::size_t max_sites)
{
    // Both reads come before this capture allocates anything (the site
    // table is merged on the stack), sites first: see snapshot().
    std::array<SiteStat, kCaptureSites> sites;
    const std::size_t nsites =
        tracking() ? readSites(sites.data(), sites.size()) : 0;
    const MemStats stats = totals();
    StageMem m;
    m.tracked = tracking();
    m.rssBytes = rssBytes();
    m.rssDelta = (i64)m.rssBytes - (i64)before.rssBytes;
    m.peakRssBytes = peakRssBytes();
    m.peakRssDelta = m.peakRssBytes > before.peakRssBytes
                         ? m.peakRssBytes - before.peakRssBytes
                         : 0;
    m.allocBytes = stats.allocBytes - before.stats.allocBytes;
    m.allocCount = stats.allocCount - before.stats.allocCount;
    m.freeBytes = stats.freeBytes - before.stats.freeBytes;
    m.liveDelta = stats.liveBytes() - before.stats.liveBytes();
    m.trackedBytes = trackedTotalBytes();
    if (max_sites && nsites) {
        std::vector<SiteStat> delta;
        for (std::size_t i = 0; i < nsites; ++i) {
            const SiteStat& site = sites[i];
            u64 prevBytes = 0, prevCount = 0;
            for (const auto& p : before.sites) {
                if (p.name == site.name) {
                    prevBytes = p.allocBytes;
                    prevCount = p.allocCount;
                    break;
                }
            }
            if (site.allocBytes > prevBytes)
                delta.push_back(SiteStat{site.name,
                                         site.allocBytes - prevBytes,
                                         site.allocCount - prevCount});
        }
        std::sort(delta.begin(), delta.end(),
                  [](const SiteStat& a, const SiteStat& b) {
                      return a.allocBytes > b.allocBytes;
                  });
        if (delta.size() > max_sites)
            delta.resize(max_sites);
        m.topSites = std::move(delta);
    }
    return m;
}

} // namespace zkp::obs::memprof

// ---------------------------------------------------------------------------
// Global operator new/delete replacements
// ---------------------------------------------------------------------------
//
// Compiled out under sanitizers: ASan/TSan/MSan interpose on the
// allocator themselves and shadowing them corrupts their shadow
// bookkeeping. available() reports the state to callers.

#if !ZKP_MEMPROF_SANITIZED

namespace {

using zkp::obs::memprof::tracking;

void*
allocOrThrow(std::size_t size)
{
    for (;;) {
        void* p = std::malloc(size ? size : 1);
        if (p) {
            if (tracking())
                zkp::obs::memprof::recordAlloc(p);
            return p;
        }
        std::new_handler handler = std::get_new_handler();
        if (!handler)
            throw std::bad_alloc();
        handler();
    }
}

void*
allocNoThrow(std::size_t size) noexcept
{
    void* p = std::malloc(size ? size : 1);
    if (p && tracking())
        zkp::obs::memprof::recordAlloc(p);
    return p;
}

void*
allocAligned(std::size_t size, std::size_t alignment)
{
    if (alignment < sizeof(void*))
        alignment = sizeof(void*);
    for (;;) {
        void* p = nullptr;
        if (::posix_memalign(&p, alignment, size ? size : alignment) ==
            0) {
            if (tracking())
                zkp::obs::memprof::recordAlloc(p);
            return p;
        }
        std::new_handler handler = std::get_new_handler();
        if (!handler)
            throw std::bad_alloc();
        handler();
    }
}

void
releasePtr(void* p) noexcept
{
    if (!p)
        return;
    if (tracking())
        zkp::obs::memprof::recordFree(p);
    std::free(p);
}

} // namespace

void*
operator new(std::size_t size)
{
    return allocOrThrow(size);
}

void*
operator new[](std::size_t size)
{
    return allocOrThrow(size);
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return allocNoThrow(size);
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return allocNoThrow(size);
}

void*
operator new(std::size_t size, std::align_val_t alignment)
{
    return allocAligned(size, (std::size_t)alignment);
}

void*
operator new[](std::size_t size, std::align_val_t alignment)
{
    return allocAligned(size, (std::size_t)alignment);
}

void*
operator new(std::size_t size, std::align_val_t alignment,
             const std::nothrow_t&) noexcept
{
    try {
        return allocAligned(size, (std::size_t)alignment);
    } catch (...) {
        return nullptr;
    }
}

void*
operator new[](std::size_t size, std::align_val_t alignment,
               const std::nothrow_t&) noexcept
{
    try {
        return allocAligned(size, (std::size_t)alignment);
    } catch (...) {
        return nullptr;
    }
}

void
operator delete(void* p) noexcept
{
    releasePtr(p);
}

void
operator delete[](void* p) noexcept
{
    releasePtr(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    releasePtr(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    releasePtr(p);
}

void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    releasePtr(p);
}

void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    releasePtr(p);
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    releasePtr(p);
}

void
operator delete[](void* p, std::align_val_t) noexcept
{
    releasePtr(p);
}

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    releasePtr(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    releasePtr(p);
}

#endif // !ZKP_MEMPROF_SANITIZED
