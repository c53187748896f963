/**
 * @file
 * ProofService: an in-process proof server over the existing Groth16
 * pipeline.
 *
 * Requests (prove / verify) for registered circuits are admitted into
 * a bounded two-priority queue (serve/scheduler.h) and executed by a
 * fixed set of service worker threads. Each submission returns a
 * Ticket holding a std::future<Response> plus a cancellation handle;
 * per-request deadlines and cancellation are honored up to the moment
 * execution starts (a prove in flight runs to completion — kernels
 * are not preemptible).
 *
 * Service workers are plain std::threads *outside* the common
 * ThreadPool: they dispatch kernel work through parallelFor, whose
 * regions serialize on the pool's region mutex. That layering cannot
 * deadlock (see the saturation notes in common/thread_pool.h), and it
 * means a single prove still uses the whole pool while concurrent
 * proves interleave region-by-region instead of oversubscribing
 * cores.
 *
 * Setup artifacts (compiled R1CS + keypair) are shared through the
 * refcounted KeyCache with singleflight cold-start, so the first N
 * concurrent requests for a circuit trigger exactly one setup.
 * Verify requests batch opportunistically: a worker that dequeues a
 * verify drains every queued verify for the same circuit and settles
 * them with one Groth16::verifyBatch call.
 *
 * Observability: every request carries a service-assigned id and a
 * lifecycle Timeline (arrive → admitted → dequeued → key-ready →
 * executed → serialized → replied; serve/types.h) stamped as it moves
 * through the queue, key cache and workers. The MetricsHub
 * (serve/metrics_hub.h) is the one record of every per-request
 * quantity: each settled request lands in its per-(kind, priority,
 * circuit) lane, and snapshotStats()/statsJson() and the stats/v2
 * wire op derive the service totals (completed, shed, deadline
 * misses, cancels) by summing the lanes. Execution is also
 * span-traced ("serve_prove"/"serve_verify" carry the request id as
 * the "rid" argument, so ZKP_TRACE shows request lanes next to
 * kernel lanes, and ZKP_REPORT lists the spans like any bench run).
 */

#ifndef ZKP_SERVE_SERVICE_H
#define ZKP_SERVE_SERVICE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/key_cache.h"
#include "serve/metrics_hub.h"
#include "serve/scheduler.h"
#include "serve/types.h"

namespace zkp::serve {

/** One verify request inside a batch handed to a circuit host. */
struct VerifyItem
{
    const std::vector<std::uint8_t>* publicInputs = nullptr;
    const std::vector<std::uint8_t>* proof = nullptr;
    Status status = Status::InternalError;
    bool valid = false;
};

/**
 * Type-erased circuit registration. The typed lambdas (capturing the
 * concrete curve/scheme instantiations) live in serve/circuit_host.h;
 * the service core never names a curve type.
 */
struct CircuitHost
{
    std::string name;
    /// Curve tag, part of the key-cache key ("circuit@curve").
    std::string curve;
    std::size_t constraints = 0;
    /**
     * False for transparent schemes (STARK): there is no setup
     * artifact, so requests bypass the key cache entirely — no entry
     * is created, `build` is never invoked, and prove/verify receive
     * a null artifact pointer. Keyless executions are counted
     * separately (ServiceStatsSnapshot::keylessServes) so a scrape
     * can tell "scheme needs no key" apart from a cache miss.
     */
    bool needsKey = true;
    /// Compile + setup; runs once per cache residency (singleflight).
    KeyCache::Builder build;
    /// Parse inputs, compute the witness, prove, serialize the proof.
    std::function<Status(const void* artifact,
                         const std::vector<std::uint8_t>& publicIn,
                         const std::vector<std::uint8_t>& privateIn,
                         std::size_t threads,
                         std::vector<std::uint8_t>& proofOut)>
        prove;
    /// Settle a batch of verify requests against one artifact.
    std::function<void(const void* artifact,
                       std::vector<VerifyItem>& items)>
        verify;
};

/** Submission options. */
struct RequestOptions
{
    Priority priority = Priority::Interactive;
    /// Seconds until the request expires if still queued; 0 = none.
    double timeoutSeconds = 0;
};

/** Service configuration. */
struct ServiceConfig
{
    /// Service worker threads (positive).
    std::size_t workers = 2;
    /// Bounded queue capacity (positive).
    std::size_t queueCapacity = 128;
    /// parallelFor width per prove; 0 = hardware_concurrency.
    std::size_t proveThreads = 0;
    /// Max verify requests folded into one verifyBatch call.
    std::size_t maxVerifyBatch = 16;
    /// Key-cache resident cap in bytes; 0 = unlimited.
    std::size_t keyCacheBytes = 0;
};

class ProofService
{
  public:
    /** A pending request: the future plus a cancellation handle. */
    struct Ticket
    {
        std::future<Response> result;

        /**
         * Best-effort cancel: a request that has not started
         * executing resolves to Status::Canceled; one already
         * running completes normally.
         */
        void
        cancel()
        {
            if (cancelFlag)
                cancelFlag->store(true, std::memory_order_relaxed);
        }

        std::shared_ptr<std::atomic<bool>> cancelFlag;
    };

    explicit ProofService(ServiceConfig cfg = {});

    /** Shuts down (failing queued requests) if still running. */
    ~ProofService();

    ProofService(const ProofService&) = delete;
    ProofService& operator=(const ProofService&) = delete;

    /** Register a circuit host; must not collide with a live name. */
    void registerCircuit(CircuitHost host);

    /** Names registered so far. */
    std::vector<std::string> circuits() const;

    /**
     * Build a circuit's artifacts now (on the calling thread) so the
     * first request does not pay the setup latency.
     */
    void prewarm(const std::string& circuit);

    Ticket submitProve(const std::string& circuit,
                       std::vector<std::uint8_t> public_inputs,
                       std::vector<std::uint8_t> private_inputs,
                       RequestOptions opts = {});

    Ticket submitVerify(const std::string& circuit,
                        std::vector<std::uint8_t> public_inputs,
                        std::vector<std::uint8_t> proof,
                        RequestOptions opts = {});

    /**
     * Graceful drain: stop admitting (new submissions resolve to
     * ShuttingDown), wait until every queued and in-flight request
     * settled, then stop the workers. Idempotent.
     */
    void drain();

    /**
     * Fast shutdown: stop admitting, resolve still-queued requests
     * with ShuttingDown, wait only for in-flight work, stop workers.
     * Idempotent; called by the destructor.
     */
    void shutdown();

    /**
     * Full telemetry scrape: service counters/gauges, cache stats,
     * and every MetricsHub lane (per-(kind, priority, circuit)
     * lifecycle histograms). The completed/shed/deadline/cancel
     * totals are sums over the lanes of the same snapshot. Safe to
     * call concurrently with traffic.
     */
    ServiceStatsSnapshot snapshotStats() const;

    /** snapshotStats() rendered as zkperf-serve-stats/2 JSON — the
     *  document the stats/v2 wire op and zkperfd snapshots carry. */
    std::string statsJson() const;

    const ServiceConfig& config() const { return cfg_; }

  private:
    Ticket enqueue(std::unique_ptr<Job> job, RequestOptions opts);
    void workerLoop(std::size_t index);
    void executeProve(Job& job);
    void executeVerifyGroup(std::vector<std::unique_ptr<Job>>& group);
    /// Resolve a job without executing it (reject/cancel paths),
    /// counting it in its lane.
    void settle(Job& job, Status status);
    /// Stamp replied, copy lifecycle into @p r, record the lane
    /// histograms, and fulfil the promise. Every executed request
    /// leaves through here.
    void finishAndReply(Job& job, Response&& r);
    const CircuitHost* findHost(const std::string& name) const;
    /// Pre-execution gate: deadline/cancel checks. True = proceed.
    bool admitForExecution(Job& job);
    void stopWorkers();

    ServiceConfig cfg_;
    KeyCache cache_;
    RequestQueue queue_;
    MetricsHub hub_;
    const Timeline::Clock::time_point started_ =
        Timeline::Clock::now();
    std::vector<std::thread> workers_;

    mutable std::mutex hostsMu_;
    std::map<std::string, CircuitHost> hosts_;

    std::atomic<bool> accepting_{true};
    std::atomic<bool> stopped_{false};
    std::mutex lifecycleMu_;

    /// In-flight (dequeued, executing) request count, for drain.
    mutable std::mutex idleMu_;
    std::condition_variable idleCv_;
    std::size_t inFlight_ = 0;

    std::atomic<std::uint64_t> nextRequestId_{1};
    /// Service-level counts with no lane equivalent. Completions,
    /// sheds, deadline misses and cancels live only in hub_.
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> invalid_{0};
    std::atomic<std::uint64_t> keylessServes_{0};
};

} // namespace zkp::serve

#endif // ZKP_SERVE_SERVICE_H
