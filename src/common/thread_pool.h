/**
 * @file
 * Persistent fork-join thread pool behind zkp::parallelFor.
 *
 * The scalability analysis (paper §III-D) sweeps every stage over
 * thread counts 1..32, so the thread count stays an explicit per-call
 * argument: a region asks for `threads` participating worker slots and
 * the pool lazily grows to satisfy the largest request seen (capped at
 * kMaxWorkers). Workers are started once and parked on a condition
 * variable between regions, which removes the per-region
 * std::thread spawn/join cost the NTT paid once per butterfly level
 * (~18 levels x 7 transforms per prove at 2^18).
 *
 * Work distribution is chunked with an atomic cursor: a region over
 * [0, n) is cut into chunks of ~n / (slots * kChunksPerSlot) items and
 * participating workers claim chunks with a fetch_add until the range
 * is drained, so a slot that wakes late (or a straggling chunk) cannot
 * serialize the region. Consequently the region callback may run
 * MULTIPLE times per slot with disjoint subranges — callers must
 * accumulate per-slot state, not assign it (see parallelFor docs).
 *
 * Invariants preserved from the spawn-per-region implementation:
 *  - every participating slot runs on a stable obs worker lane
 *    (obs::kWorkerLaneBase + slot) and emits one "worker" span per
 *    region;
 *  - while a sim::CountingScope is alive, the region's simulator
 *    counts reach the thread that opened it: each participating slot
 *    hands its sim::counters() to the pool after its last chunk and
 *    resets them, and run() merges the region's total into the
 *    caller's counters before it returns. Inline regions count on the
 *    caller directly. With no scope alive a participation pays one
 *    relaxed load for this;
 *  - regions are fork-join: run() returns only after every
 *    participant finished, with all worker writes visible to the
 *    caller.
 *
 * Nested regions: a parallelFor issued from inside a pool worker runs
 * inline on that worker (the pool never re-enters itself), so kernels
 * may compose freely without deadlock. ThreadPool::run() asserts it is
 * never entered from a pool worker — parallelFor is the only sanctioned
 * entry point, and it routes the nested case inline before reaching the
 * pool.
 *
 * Saturation safety for external service threads: any number of plain
 * std::threads (e.g. the ProofService workers in src/serve/) may call
 * parallelFor concurrently. Each top-level region acquires regionMutex_
 * for its whole fork-join, so N saturating callers serialize
 * region-by-region rather than oversubscribing cores, and progress is
 * guaranteed: the mutex holder owns every pool worker, finishes its
 * region in bounded work, and releases. No caller ever blocks on a
 * condition that another *blocked* caller must satisfy, so saturation
 * cannot deadlock — see tests/test_parallel_pool.cpp
 * (SaturationFromExternalThreads) for the regression test.
 */

#ifndef ZKP_COMMON_THREAD_POOL_H
#define ZKP_COMMON_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/counters.h"

namespace zkp {

class ThreadPool
{
  public:
    /** Hard cap on pool size; the paper's sweep tops out at 32. */
    static constexpr std::size_t kMaxWorkers = 64;

    /** Chunk-granularity target: chunks per participating slot. */
    static constexpr std::size_t kChunksPerSlot = 4;

    /**
     * Region callback: fn(ctx, slot, begin, end). Invoked one or more
     * times per participating slot with disjoint [begin, end) chunks.
     */
    using RawFn = void (*)(void* ctx, std::size_t slot,
                           std::size_t begin, std::size_t end);

    /** The process-wide pool (workers start on first parallel run). */
    static ThreadPool& instance();

    /**
     * Execute a fork-join region over [0, n) with min(workers,
     * kMaxWorkers) participating slots. Blocks until every participant
     * is done, then adds the workers' simulator counts to the calling
     * thread's sim::counters(). Concurrent top-level regions
     * serialize, so each caller receives exactly its own region's
     * counts; call with workers >= 2 and n >= 1 (parallelFor handles
     * the inline cases).
     */
    void run(std::size_t n, std::size_t workers, RawFn fn, void* ctx);

    /** True when the calling thread is one of the pool's workers. */
    static bool onWorkerThread();

    /** Workers started so far (grows lazily, never shrinks). */
    std::size_t workerCount() const;

    /** Fork-join regions executed since process start. */
    std::uint64_t regionsExecuted() const;

    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

  private:
    ThreadPool() = default;

    void ensureStartedLocked(std::size_t desired);
    void workerLoop(std::size_t slot);

    /// Serializes top-level regions; held for the whole fork-join.
    std::mutex regionMutex_;

    /// Guards job publication and completion accounting.
    mutable std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;

    std::vector<std::thread> workers_;
    bool stop_ = false;

    // Current region, published under mutex_ with a new generation.
    std::uint64_t generation_ = 0;
    RawFn fn_ = nullptr;
    void* ctx_ = nullptr;
    std::size_t n_ = 0;
    std::size_t chunk_ = 0;
    std::size_t slots_ = 0;
    std::size_t finished_ = 0;
    std::atomic<std::size_t> cursor_{0};

    // Simulator counts the current region's slots handed in, and
    // whether any slot counted; run() moves them to its caller.
    sim::Counters regionCounts_;
    bool regionCounted_ = false;

    std::atomic<std::uint64_t> regions_{0};
};

} // namespace zkp

#endif // ZKP_COMMON_THREAD_POOL_H
