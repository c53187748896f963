#include "common/thread_pool.h"

#include <algorithm>
#include <cassert>

#include "obs/pmu.h"
#include "obs/trace.h"

namespace zkp {

namespace {
thread_local bool gOnPoolWorker = false;
} // namespace

ThreadPool&
ThreadPool::instance()
{
    static ThreadPool pool;
    return pool;
}

bool
ThreadPool::onWorkerThread()
{
    return gOnPoolWorker;
}

std::size_t
ThreadPool::workerCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return workers_.size();
}

std::uint64_t
ThreadPool::regionsExecuted() const
{
    return regions_.load(std::memory_order_relaxed);
}

void
ThreadPool::ensureStartedLocked(std::size_t desired)
{
    desired = std::min(desired, kMaxWorkers);
    while (workers_.size() < desired) {
        const std::size_t slot = workers_.size();
        workers_.emplace_back([this, slot] { workerLoop(slot); });
    }
}

void
ThreadPool::run(std::size_t n, std::size_t workers, RawFn fn, void* ctx)
{
    // A pool worker re-entering run() would self-deadlock on the
    // region it is already part of; parallelFor runs the nested case
    // inline and must stay the only entry point.
    assert(!onWorkerThread());
    // One fork-join region at a time; concurrent top-level callers
    // queue here (they would contend for the same cores anyway).
    std::lock_guard<std::mutex> region(regionMutex_);
    std::unique_lock<std::mutex> lock(mutex_);
    ensureStartedLocked(workers);
    const std::size_t slots = std::min(
        {workers, workers_.size(), n > 0 ? n : std::size_t(1)});

    fn_ = fn;
    ctx_ = ctx;
    n_ = n;
    slots_ = slots;
    chunk_ = std::max<std::size_t>(1, n / (slots * kChunksPerSlot));
    cursor_.store(0, std::memory_order_relaxed);
    finished_ = 0;
    ++generation_;
    regions_.fetch_add(1, std::memory_order_relaxed);
    workCv_.notify_all();
    doneCv_.wait(lock, [&] { return finished_ == slots_; });
    if (regionCounted_) {
        sim::counters().merge(regionCounts_);
        regionCounts_.reset();
        regionCounted_ = false;
    }
    if (regionHw_.validMask != 0) {
        obs::pmu::addRegionDelta(regionHw_);
        regionHw_ = obs::pmu::Sample{};
    }
}

void
ThreadPool::workerLoop(std::size_t slot)
{
    gOnPoolWorker = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait(lock,
                     [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        if (slot >= slots_)
            continue;

        const RawFn fn = fn_;
        void* const ctx = ctx_;
        const std::size_t n = n_;
        const std::size_t chunk = chunk_;
        lock.unlock();
        // Simulator counts are per-thread. A slot that starts counted
        // first drops what an uncounted participation left behind
        // (another thread's scope can switch counting on mid-region),
        // then hands this region's counts to run() below.
        const bool counted = sim::countingEnabled();
        if (counted)
            sim::counters().reset();
        obs::pmu::Sample hw_delta;
        {
            // Stable per-slot Perfetto lane; one "worker" span per
            // region participation, covering every chunk it claims.
            obs::ScopedWorkerLane lane((obs::u32)slot);
            ZKP_TRACE_SCOPE("worker", "slot", (obs::u64)slot);
            // Hardware counters are per-thread: sample around this
            // worker's whole participation; run() credits the delta
            // to the region's caller.
            obs::pmu::Sample hw_before;
            const bool hw =
                obs::pmu::enabled() && obs::pmu::readThread(hw_before);
            for (;;) {
                const std::size_t begin = cursor_.fetch_add(
                    chunk, std::memory_order_relaxed);
                if (begin >= n)
                    break;
                const std::size_t end = std::min(begin + chunk, n);
                fn(ctx, slot, begin, end);
            }
            if (hw) {
                obs::pmu::Sample hw_after;
                if (obs::pmu::readThread(hw_after))
                    hw_delta = obs::pmu::delta(hw_before, hw_after);
            }
        }
        lock.lock();
        regionHw_ += hw_delta;
        if (counted) {
            regionCounts_.merge(sim::counters());
            regionCounted_ = true;
            sim::counters().reset();
        }
        if (++finished_ == slots_)
            doneCv_.notify_all();
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (auto& w : workers_)
        w.join();
}

} // namespace zkp
