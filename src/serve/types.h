/**
 * @file
 * Shared vocabulary of the proof-serving subsystem: request priority,
 * terminal status codes and the unified response record every
 * submission resolves to.
 *
 * Status values are part of the wire protocol (serve/protocol.h), so
 * they are pinned to explicit numeric values — append, never renumber.
 */

#ifndef ZKP_SERVE_TYPES_H
#define ZKP_SERVE_TYPES_H

#include <chrono>
#include <cstdint>
#include <vector>

namespace zkp::serve {

/**
 * Scheduling class. Interactive requests always dequeue ahead of
 * batch requests; within a class, order is FIFO.
 */
enum class Priority : std::uint8_t
{
    Interactive = 0,
    Batch = 1,
};

/** Stable lowercase priority name (metrics lane keys, JSON). */
inline const char*
priorityName(Priority p)
{
    return p == Priority::Interactive ? "interactive" : "batch";
}

/**
 * Request operation kind as the telemetry layer sees it. Mirrors
 * Job::Kind (serve/scheduler.h) without pulling the queue types into
 * the metrics headers.
 */
enum class OpKind : std::uint8_t
{
    Prove = 0,
    Verify = 1,
};

/** Stable lowercase op name (metrics lane keys, JSON). */
inline const char*
opKindName(OpKind k)
{
    return k == OpKind::Prove ? "prove" : "verify";
}

/**
 * Server-side lifecycle of one request: monotonic steady_clock stamps
 * taken as the request moves arrive → admitted → dequeued → key-ready
 * → executed → serialized → replied. Every stamp is taken on the
 * serving process's own clock, in program order, so for any request
 * that reached a stage the stamps up to that stage are monotonically
 * non-decreasing — the invariant the telemetry (and its test) rests
 * on. Stages a request never reached keep the default (epoch) value.
 */
struct Timeline
{
    using Clock = std::chrono::steady_clock;

    /// Submission entered the service (before admission control).
    Clock::time_point arrive{};
    /// Accepted into the bounded queue.
    Clock::time_point admitted{};
    /// A worker took the job off the queue.
    Clock::time_point dequeued{};
    /// KeyCache handed back the artifact (built or cache hit).
    Clock::time_point keyReady{};
    /// Prove/verify kernels finished ("proved").
    Clock::time_point executed{};
    /// Response record assembled (proof bytes framed and moved).
    Clock::time_point serialized{};
    /// Promise resolved; the waiter can observe the response.
    Clock::time_point replied{};

    static double
    seconds(Clock::time_point from, Clock::time_point to)
    {
        return from == Clock::time_point{} ||
                       to == Clock::time_point{} || to < from
                   ? 0
                   : std::chrono::duration<double>(to - from).count();
    }
};

/** Terminal state of a request. */
enum class Status : std::uint8_t
{
    /// Request executed; for verify, consult Response::valid.
    Ok = 0,
    /// Rejected at submit: the bounded queue is full (backpressure —
    /// retry later, the service never buffers unboundedly).
    QueueFull = 1,
    /// The per-request deadline passed before execution started.
    DeadlineExceeded = 2,
    /// The caller cancelled the request before execution started.
    Canceled = 3,
    /// Rejected: the service is draining or shut down.
    ShuttingDown = 4,
    /// No circuit registered under the requested name.
    UnknownCircuit = 5,
    /// Malformed inputs: wrong count, non-canonical scalar, bad proof
    /// encoding, or a witness that does not satisfy the circuit.
    InvalidRequest = 6,
    /// The request executed but something failed internally.
    InternalError = 7,
};

/** Human-readable status name (stable, used in logs and metrics). */
inline const char*
statusName(Status s)
{
    switch (s) {
      case Status::Ok:
        return "ok";
      case Status::QueueFull:
        return "queue_full";
      case Status::DeadlineExceeded:
        return "deadline_exceeded";
      case Status::Canceled:
        return "canceled";
      case Status::ShuttingDown:
        return "shutting_down";
      case Status::UnknownCircuit:
        return "unknown_circuit";
      case Status::InvalidRequest:
        return "invalid_request";
      case Status::InternalError:
        return "internal_error";
    }
    return "unknown";
}

/**
 * What a submission resolves to. Prove requests carry the serialized
 * proof on Ok; verify requests carry the verdict in `valid`.
 */
struct Response
{
    Status status = Status::InternalError;
    /// Verify verdict (meaningful only for verify requests with Ok).
    bool valid = false;
    /// Framed serialized proof (prove requests with Ok).
    std::vector<std::uint8_t> proof;
    /// Seconds from arrive to dequeued: submit-time checks plus the
    /// wait in the queue (the lane's queue_wait_us).
    double queueSeconds = 0;
    /// Seconds spent executing (proving or verifying).
    double execSeconds = 0;
    /// Seconds from dequeue to the key-cache artifact being ready
    /// (singleflight wait or cold build; ~0 on a warm hit).
    double keyWaitSeconds = 0;
    /// Seconds assembling the response record after the kernels ran.
    double serializeSeconds = 0;
    /// Number of requests folded into the same verifyBatch call
    /// (1 when not batched; prove requests always 1).
    std::uint32_t batchSize = 1;
    /// Service-assigned id; correlates the response with ZKP_TRACE
    /// spans ("rid" argument) and daemon logs. 0 = never admitted.
    std::uint64_t requestId = 0;
    /// Raw server-side lifecycle stamps (see Timeline).
    Timeline timeline;
};

} // namespace zkp::serve

#endif // ZKP_SERVE_TYPES_H
