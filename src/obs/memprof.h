/**
 * @file
 * Memory observability: allocation interposition, RSS readers, and
 * explicit byte accounting for the big structured owners (CRS keys,
 * twiddle caches, MSM scratch, serve key cache).
 *
 * Three cooperating layers, each usable on its own:
 *
 *  1. Allocation profiler (opt-in, ZKP_MEMPROF=1 or setTracking).
 *     The library replaces the global operator new/delete with thin
 *     shims over malloc/free. While tracking is enabled every
 *     allocation and deallocation updates per-thread atomic counter
 *     blocks — cumulative alloc/free bytes and counts, live bytes —
 *     and is attributed to the innermost active trace span (SpanScope
 *     pushes its name while tracking is on). The site table is the
 *     one per-span allocation record.
 *     Bytes are measured with malloc_usable_size on both the alloc
 *     and the free side, so live-byte accounting is self-consistent.
 *     With tracking disabled the shims are a relaxed atomic load and
 *     a branch on top of malloc — unmeasurable in benchmarks.
 *
 *  2. RSS readers (always available). rssBytes() reads
 *     /proc/self/statm, peakRssBytes() the kernel-maintained VmHWM
 *     from /proc/self/status.
 *
 *  3. Tracked owners. Long-lived structures of known size (proving
 *     keys, twiddle tables, batch-affine scratch, the serve key
 *     cache) register their footprint under a stable owner name via
 *     TrackedBytes / trackedAdd. trackedTotalBytes() reconciles
 *     against allocator-observed live bytes: the gap is what the
 *     big owners do NOT explain.
 *
 * Sanitizer coexistence: ASan/TSan/MSan install their own allocator;
 * interposing on top of it would corrupt their bookkeeping. Under
 * sanitized builds the operator new/delete replacements are compiled
 * out, available() is false, and a tracking request is refused with a
 * single stderr notice (RSS readers and tracked owners keep
 * working).
 *
 * Reentrancy contract: the allocation hooks never allocate and never
 * touch the trace registry (whose lazy construction
 * allocates); they only bump pre-sized atomic blocks. The one
 * allocating step — registering a new thread's block — is guarded by
 * a thread-local in-hook flag so the nested allocation passes through
 * unrecorded.
 */

#ifndef ZKP_OBS_MEMPROF_H
#define ZKP_OBS_MEMPROF_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace zkp::obs::memprof {

using u64 = std::uint64_t;
using i64 = std::int64_t;

/** Per-thread span-site slots (linear probe, innermost span name). */
constexpr std::size_t kSiteSlots = 64;

namespace detail {

/// Master switch for the allocation hooks. Exposed so tracking() can
/// inline to a relaxed load — and so every TU that includes this
/// header (via trace.h) references a symbol defined in memprof.o,
/// forcing the archive member (and with it the operator new/delete
/// replacements) into every linked binary.
extern std::atomic<bool> gTracking;

void pushSiteSlow(const char* name);
void popSiteSlow();

} // namespace detail

/** True while the allocation hooks are recording. Hot-path check. */
inline bool
tracking()
{
    return detail::gTracking.load(std::memory_order_relaxed);
}

/** True when allocation interposition can be enabled in this build
 *  (false under ASan/TSan/MSan, whose allocators we must not shadow). */
bool available();

/** Human-readable reason when available() is false, else "". */
const char* unavailableReason();

/**
 * Enable/disable allocation tracking. Returns the resulting state:
 * enabling fails (returns false) when interposition is unavailable,
 * after printing a single stderr notice per process.
 */
bool setTracking(bool on);

/** Cumulative allocator-observed counters. */
struct MemStats
{
    u64 allocBytes = 0;
    u64 allocCount = 0;
    u64 freeBytes = 0;
    u64 freeCount = 0;

    /// allocBytes - freeBytes; negative when frees of pre-tracking
    /// allocations outweigh tracked allocations.
    i64 liveBytes() const
    {
        return (i64)allocBytes - (i64)freeBytes;
    }
};

/** Sum over every thread that ever recorded (including exited ones). */
MemStats totals();

/** Counters of the calling thread only (deterministic in tests and
 *  for per-request accounting on a serve worker). */
MemStats threadStats();

/** Allocations attributed to one span name. */
struct SiteStat
{
    /// Span-name literal ("(no span)" for unattributed allocations).
    const char* name = nullptr;
    u64 allocBytes = 0;
    u64 allocCount = 0;
};

/** Per-span-site allocation totals, merged across threads,
 *  unordered. Past 126 distinct names the rest merge into
 *  "(other)". */
std::vector<SiteStat> siteSnapshot();

/** Push/pop the span-site attribution context for the calling
 *  thread. Called by SpanScope while tracking is on; @p name must be
 *  a string literal (pointer identity is the site key). */
inline void
pushSite(const char* name)
{
    detail::pushSiteSlow(name);
}

inline void
popSite()
{
    detail::popSiteSlow();
}

// ---------------------------------------------------------------------------
// RSS readers (no interposition needed)
// ---------------------------------------------------------------------------

/** Current resident set size from /proc/self/statm (0 on failure). */
u64 rssBytes();

/** Process peak RSS (VmHWM from /proc/self/status; monotonic). */
u64 peakRssBytes();

// ---------------------------------------------------------------------------
// Tracked owners
// ---------------------------------------------------------------------------

/**
 * Adjust the byte account of @p owner by @p delta (clamped at zero).
 * Owner names are stable literals like "snark.proving_key",
 * "ntt.twiddles", "msm.batch_affine", "serve.key_cache".
 */
void trackedAdd(const char* owner, i64 delta);

/** Sum of all owner accounts. */
u64 trackedTotalBytes();

/** Per-owner accounts, sorted by descending bytes. */
std::vector<std::pair<std::string, u64>> trackedSnapshot();

/**
 * RAII byte account held by a structured owner: set() replaces the
 * previously contributed amount, the destructor withdraws it. Movable
 * so owners stay movable; multiple instances under one owner name
 * sum.
 */
class TrackedBytes
{
  public:
    TrackedBytes() = default;

    ~TrackedBytes() { reset(); }

    TrackedBytes(TrackedBytes&& other) noexcept
        : owner_(other.owner_), bytes_(other.bytes_)
    {
        other.owner_ = nullptr;
        other.bytes_ = 0;
    }

    TrackedBytes& operator=(TrackedBytes&& other) noexcept
    {
        if (this != &other) {
            reset();
            owner_ = other.owner_;
            bytes_ = other.bytes_;
            other.owner_ = nullptr;
            other.bytes_ = 0;
        }
        return *this;
    }

    TrackedBytes(const TrackedBytes&) = delete;
    TrackedBytes& operator=(const TrackedBytes&) = delete;

    /** Account @p bytes under @p owner, replacing what this instance
     *  contributed before (possibly under another owner). */
    void set(const char* owner, u64 bytes)
    {
        reset();
        owner_ = owner;
        bytes_ = bytes;
        if (owner_ && bytes_)
            trackedAdd(owner_, (i64)bytes_);
    }

    /** Withdraw this instance's contribution. */
    void reset()
    {
        if (owner_ && bytes_)
            trackedAdd(owner_, -(i64)bytes_);
        owner_ = nullptr;
        bytes_ = 0;
    }

    u64 bytes() const { return bytes_; }

  private:
    const char* owner_ = nullptr;
    u64 bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Stage accounting
// ---------------------------------------------------------------------------

/** Point-in-time capture for delta accounting around a stage. */
struct Snapshot
{
    MemStats stats;
    u64 rssBytes = 0;
    u64 peakRssBytes = 0;
    u64 trackedBytes = 0;
    std::vector<SiteStat> sites;
};

/** Capture counters + RSS (sites only while tracking is on). A
 *  stageDelta against it leaves both captures' own allocations out of
 *  its counters and its sites alike. */
Snapshot snapshot();

/** Memory delta of one measured region (stage, kernel, request). */
struct StageMem
{
    /// Allocation interposition was active (alloc_* fields valid).
    bool tracked = false;
    u64 rssBytes = 0; ///< RSS at region end
    i64 rssDelta = 0;
    u64 peakRssBytes = 0; ///< VmHWM at region end (monotonic)
    u64 peakRssDelta = 0; ///< how much the region raised VmHWM
    u64 allocBytes = 0;
    u64 allocCount = 0;
    u64 freeBytes = 0;
    i64 liveDelta = 0;
    u64 trackedBytes = 0; ///< owner accounts at region end
    /// Largest per-span allocators within the region, descending.
    /// Over every site the region's sites sum to at most
    /// allocBytes/allocCount, and exactly to them when no other
    /// thread allocates during either capture.
    std::vector<SiteStat> topSites;
};

/**
 * Diff a fresh capture against @p before. @p max_sites bounds
 * topSites (0 keeps none).
 */
StageMem stageDelta(const Snapshot& before, std::size_t max_sites = 5);

} // namespace zkp::obs::memprof

#endif // ZKP_OBS_MEMPROF_H
