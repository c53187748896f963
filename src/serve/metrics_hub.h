/**
 * @file
 * MetricsHub: server-side request-lifecycle aggregation for the
 * proof-serving subsystem.
 *
 * Every completed (or shed) request is attributed to a *lane* keyed
 * by (op kind, priority, circuit id). The lanes are the service's
 * only record of per-request quantities: the service-level totals in
 * ServiceStatsSnapshot (completed, rejected_queue_full,
 * deadline_exceeded, canceled) are sums over the lanes, and the
 * stage histograms tile a request with no gap (queue wait + key wait
 * + exec + serialize = arrive → serialized). A lane is a fixed set of
 * lock-free streaming instruments — log2 histograms (obs/metrics.h)
 * for queue wait, key-load wait, execution, serialization, end-to-end
 * latency, deadline slack and verify-batch size, plus counters for
 * completions, errors, load sheds, deadline misses and cancels.
 * Recording into a lane is a handful of relaxed atomic adds; the only
 * lock is the find-or-create of the lane itself, one short map probe
 * per request (microseconds against the milliseconds a prove costs).
 *
 * Scrapers (the stats/v2 wire op, zkperfd's --metrics-interval file,
 * the ServeServer tests' cross-check) call snapshotLanes(): a
 * coherent copy of every lane using Histogram::snapshot()'s
 * count-stable loop, safe against concurrent writers
 * (the TSan-covered contract — tests/test_serve_metrics.cpp).
 *
 * The JSON rendering (statsJson) follows the zkperf-run-report
 * convention of a top-level "schema" tag: "zkperf-serve-stats/2".
 * Version 2 because the v1 stats wire op carried three counters; this
 * document is what StatsV2Response carries.
 */

#ifndef ZKP_SERVE_METRICS_HUB_H
#define ZKP_SERVE_METRICS_HUB_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "serve/key_cache.h"
#include "serve/types.h"

namespace zkp::serve {

class MetricsHub
{
  public:
    /**
     * One (kind, priority, circuit) lane's instruments. All fields
     * are atomic; writers never block each other or scrapers.
     * Durations are recorded in microseconds.
     */
    struct Lane
    {
        obs::Histogram queueWaitUs;     ///< arrive → dequeued
        obs::Histogram keyWaitUs;       ///< dequeued → key-ready
        obs::Histogram execUs;          ///< key-ready → executed
        obs::Histogram serializeUs;     ///< executed → serialized
        obs::Histogram e2eUs;           ///< arrive → replied
        obs::Histogram deadlineSlackUs; ///< deadline − replied (≥ 0)
        obs::Histogram verifyBatch;     ///< verifyBatch group sizes
        /// Transient bytes allocated on the executing worker thread
        /// per request (ZKP_MEMPROF=1 only; empty otherwise).
        /// Allocations made by parallelFor workers the request fans
        /// out to are not attributed here.
        obs::Histogram allocBytes;
        obs::Counter completed;         ///< settled Status::Ok
        obs::Counter errors;            ///< executed but not Ok
        obs::Counter shed;              ///< rejected QueueFull
        obs::Counter deadlineMiss;      ///< DeadlineExceeded
        obs::Counter canceled;          ///< Canceled
    };

    /** Point-in-time copy of one lane, safe to read at leisure. */
    struct LaneSnapshot
    {
        OpKind kind = OpKind::Prove;
        Priority priority = Priority::Interactive;
        std::string circuit;
        obs::Histogram::Snapshot queueWaitUs, keyWaitUs, execUs,
            serializeUs, e2eUs, deadlineSlackUs, verifyBatch,
            allocBytes;
        std::uint64_t completed = 0, errors = 0, shed = 0,
                      deadlineMiss = 0, canceled = 0;
    };

    /**
     * Find-or-create the lane for (kind, priority, circuit). The
     * reference stays valid for the hub's lifetime; callers on a hot
     * path may cache it per circuit.
     */
    Lane& lane(OpKind kind, Priority priority,
               const std::string& circuit);

    /** Coherent copy of every lane, ordered by (kind, prio, circuit). */
    std::vector<LaneSnapshot> snapshotLanes() const;

  private:
    using Key = std::tuple<std::uint8_t, std::uint8_t, std::string>;

    mutable std::mutex mu_; ///< guards the lane map, not the lanes
    std::map<Key, std::unique_ptr<Lane>> lanes_;
};

/**
 * Everything a stats/v2 scrape reports: service-level counters and
 * gauges plus the per-lane histograms. Built by
 * ProofService::snapshotStats(); rendered by statsJson().
 */
struct ServiceStatsSnapshot
{
    std::uint64_t accepted = 0;
    /// Sums over `lanes` of completed / shed / deadlineMiss / canceled.
    std::uint64_t completed = 0;
    std::uint64_t rejectedQueueFull = 0;
    std::uint64_t deadlineExceeded = 0;
    std::uint64_t canceled = 0;
    std::uint64_t invalid = 0;
    /// Requests served without any key-cache interaction because the
    /// scheme is transparent (CircuitHost::needsKey == false). Kept
    /// separate from cache.misses: a miss triggers a build, a keyless
    /// serve never touches the cache at all.
    std::uint64_t keylessServes = 0;
    std::size_t queueDepth = 0;
    std::size_t queueCapacity = 0;
    std::size_t inFlight = 0;
    std::size_t workers = 0;
    double uptimeSeconds = 0;
    KeyCache::Stats cache;
    /// Process footprint at scrape time (memprof RSS readers, always
    /// captured) plus allocator availability.
    bool memprofEnabled = false;
    std::uint64_t rssBytes = 0;
    std::uint64_t peakRssBytes = 0;
    /// Sum of the memprof tracked-owner accounts (key cache, CRS
    /// keys, twiddles, ...).
    std::uint64_t trackedBytes = 0;
    std::vector<MetricsHub::LaneSnapshot> lanes;
};

/**
 * Render a snapshot as the zkperf-serve-stats/2 JSON document:
 *
 *   {
 *     "schema": "zkperf-serve-stats/2",
 *     "service": {"workers": …, "queue_depth": …, "in_flight": …,
 *                 "accepted": …, "completed": …, …},
 *     "cache": {"hits": …, "misses": …, "builds": …, …},
 *     "lanes": [
 *       {"kind": "prove", "priority": "interactive",
 *        "circuit": "exp12",
 *        "completed": …, "errors": …, "shed": …,
 *        "deadline_miss": …, "canceled": …,
 *        "queue_wait_us": {"count": …, "mean": …, "p50": …,
 *                          "p99": …, "p999": …, "min": …, "max": …},
 *        "key_wait_us": {…}, "exec_us": {…}, "serialize_us": {…},
 *        "e2e_us": {…}, "deadline_slack_us": {…},
 *        "verify_batch": {…}}, …
 *     ]
 *   }
 */
std::string statsJson(const ServiceStatsSnapshot& snap);

} // namespace zkp::serve

#endif // ZKP_SERVE_METRICS_HUB_H
