/**
 * @file
 * Fork-join parallel helpers used by the threaded stage implementations.
 *
 * The scalability analysis (paper §III-D) measures each pipeline stage
 * at thread counts 1..32, so the thread count is always an explicit
 * argument rather than a global pool size. Regions execute on the
 * persistent ThreadPool (common/thread_pool.h): workers are spawned
 * once and parked between regions, so entering a region costs a
 * condvar wake instead of a std::thread spawn/join — this matters for
 * the NTT, which opens a region per butterfly level. While a
 * sim::CountingScope is alive, the pool adds the workers' simulator
 * counts to the calling thread's sim::counters() before parallelFor
 * returns, so the caller's counts cover its regions at any thread
 * count.
 */

#ifndef ZKP_COMMON_PARALLEL_H
#define ZKP_COMMON_PARALLEL_H

#include <chrono>
#include <cstddef>
#include <type_traits>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace zkp {

/**
 * Seconds the calling thread has spent inside parallelFor regions
 * since the last reset. With threads == 1 this measures the
 * parallelizable share of a stage — the "p" of Amdahl's law — which
 * the scalability analysis projects to higher thread counts.
 */
double parallelWorkSeconds();

/** Reset the calling thread's parallel-region stopwatch. */
void resetParallelWorkSeconds();

/** @internal accumulate parallel-region time. */
void addParallelWorkSeconds(double s);

/**
 * Run fn(slot, begin, end) over [0, n) on @p threads pool workers.
 *
 * The range is cut into chunks which workers claim through an atomic
 * cursor, so fn MAY BE INVOKED SEVERAL TIMES per worker slot with
 * disjoint subranges — per-slot state must be accumulated
 * (`out[slot] += ...`), never assigned. slot is in [0, threads) and
 * identifies the worker (its obs trace lane and its sim counter
 * thread), not the chunk.
 *
 * Runs inline as fn(0, 0, n) when threads <= 1, when n <= 1, or when
 * called from inside a pool worker (nested regions never re-enter the
 * pool). Joins before returning: all worker writes, and the workers'
 * simulator counts, are visible to the caller afterwards.
 *
 * @param n total iteration count
 * @param threads number of worker slots to use
 * @param fn callable (std::size_t slot, std::size_t begin, std::size_t end)
 */
template <typename Fn>
void
parallelFor(std::size_t n, std::size_t threads, Fn&& fn)
{
    struct RegionTimer
    {
        std::chrono::steady_clock::time_point start =
            std::chrono::steady_clock::now();
        ~RegionTimer()
        {
            addParallelWorkSeconds(std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                                       .count());
        }
    } region_timer;

    ZKP_TRACE_SCOPE("parallel_for", "n", (obs::u64)n);

    if (threads <= 1 || n <= 1 || ThreadPool::onWorkerThread()) {
        fn(0, 0, n);
        return;
    }
    if (threads > n)
        threads = n;
    const auto thunk = [](void* ctx, std::size_t slot, std::size_t begin,
                          std::size_t end) {
        (*static_cast<std::remove_reference_t<Fn>*>(ctx))(slot, begin,
                                                          end);
    };
    ThreadPool::instance().run(n, threads, thunk, &fn);
}

} // namespace zkp

#endif // ZKP_COMMON_PARALLEL_H
