/**
 * @file
 * Bounded two-priority request queue feeding the ProofService worker
 * set.
 *
 * Admission control is explicit: the queue holds at most `capacity`
 * jobs across both priority classes and tryPush fails (the service
 * answers Status::QueueFull) rather than growing — a proving queue
 * that buffers unboundedly turns a traffic spike into an OOM hours
 * later. Interactive jobs always dequeue before batch jobs; within a
 * class order is FIFO.
 *
 * The queue also supports opportunistic verify batching: when a
 * worker dequeues a verify job it calls takeVerifyBatch to pull every
 * queued verify job for the same circuit (up to a cap) in one go, so
 * one Groth16::verifyBatch call amortizes the final exponentiation
 * over the whole group (k + 2 Miller loops instead of 3k).
 */

#ifndef ZKP_SERVE_SCHEDULER_H
#define ZKP_SERVE_SCHEDULER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/types.h"

namespace zkp::serve {

/** One queued request, type-erased to serialized inputs. */
struct Job
{
    enum class Kind : std::uint8_t
    {
        Prove,
        Verify,
    };

    Kind kind = Kind::Prove;
    std::string circuit;
    Priority priority = Priority::Interactive;
    /// Service-assigned id (monotonic per service); correlates the
    /// request across trace spans, logs and the response.
    std::uint64_t id = 0;
    /// Lifecycle stamps (serve/types.h). The queue stamps `dequeued`
    /// in pop()/takeVerifyBatch(); the service stamps the rest.
    Timeline tl;
    /// time_point::max() when the request has no deadline.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
    /// Set by Ticket::cancel(); checked before execution starts.
    std::shared_ptr<std::atomic<bool>> cancelled;
    /// Concatenated canonical scalar encodings (32 bytes each).
    std::vector<std::uint8_t> publicInputs;
    /// Prove only: private scalar encodings.
    std::vector<std::uint8_t> privateInputs;
    /// Verify only: serialized proof (framed or legacy).
    std::vector<std::uint8_t> proofBytes;
    /// Transient bytes allocated while executing this request on the
    /// worker thread (ZKP_MEMPROF=1 only; 0 otherwise). Batch verify
    /// splits the group delta evenly across members.
    std::uint64_t allocBytes = 0;
    std::promise<Response> promise;
};

/** Bounded, priority-aware MPMC queue (see file comment). */
class RequestQueue
{
  public:
    explicit RequestQueue(std::size_t capacity) : capacity_(capacity) {}

    /** Why a tryPush rejected the job (Accepted = it did not). */
    enum class PushResult : std::uint8_t
    {
        Accepted,
        Full,   ///< at capacity: answer QueueFull (retryable)
        Closed, ///< shutting down: answer ShuttingDown (terminal)
    };

    /**
     * Enqueue, or return the job back on backpressure/close so the
     * caller can resolve its promise. On rejection @p job is left
     * owning the request and the result says whether the cause was
     * backpressure (Full) or shutdown (Closed) — clients retry the
     * former, not the latter.
     */
    PushResult tryPush(std::unique_ptr<Job>& job);

    /**
     * Block for the next job by priority. Returns nullptr once the
     * queue is closed AND empty — the worker-exit condition.
     */
    std::unique_ptr<Job> pop();

    /**
     * Pull up to @p max additional queued *verify* jobs for
     * @p circuit, preserving priority-then-FIFO order. Called by a
     * worker that just popped a verify job for the same circuit.
     */
    std::vector<std::unique_ptr<Job>>
    takeVerifyBatch(const std::string& circuit, std::size_t max);

    /**
     * Close the queue: push rejects, pop drains what is left then
     * returns nullptr. Idempotent.
     */
    void close();

    /** Remove and return every queued job (used to fail them fast). */
    std::vector<std::unique_ptr<Job>> drainAll();

    std::size_t depth() const;
    std::size_t capacity() const { return capacity_; }
    bool closed() const;

  private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::unique_ptr<Job>> interactive_;
    std::deque<std::unique_ptr<Job>> batch_;
    std::size_t capacity_;
    bool closed_ = false;
};

} // namespace zkp::serve

#endif // ZKP_SERVE_SCHEDULER_H
