/**
 * @file
 * Tests for the persistent fork-join thread pool behind parallelFor:
 * pool reuse across regions, chunked-cursor coverage, nested-call
 * safety, worker-count / worker-lane / parallelWorkSeconds invariants
 * under repeated regions, and concurrent top-level callers. Doubles as
 * the ThreadSanitizer stress target in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "sim/counters.h"

namespace zkp {
namespace {

TEST(ThreadPoolTest, ReusesWorkersAcrossRegions)
{
    // Warm the pool, then check repeated regions never grow it.
    parallelFor(1024, 4, [](std::size_t, std::size_t, std::size_t) {});
    const std::size_t workers = ThreadPool::instance().workerCount();
    ASSERT_GE(workers, 4u);

    const std::uint64_t before = ThreadPool::instance().regionsExecuted();
    for (int rep = 0; rep < 50; ++rep) {
        std::atomic<std::size_t> total{0};
        parallelFor(257, 4,
                    [&](std::size_t, std::size_t b, std::size_t e) {
                        total += e - b;
                    });
        ASSERT_EQ(total.load(), 257u);
    }
    EXPECT_EQ(ThreadPool::instance().workerCount(), workers);
    EXPECT_EQ(ThreadPool::instance().regionsExecuted(), before + 50);
}

TEST(ThreadPoolTest, GrowsLazilyToLargestRequest)
{
    parallelFor(64, 2, [](std::size_t, std::size_t, std::size_t) {});
    const std::size_t after2 = ThreadPool::instance().workerCount();
    parallelFor(64, 8, [](std::size_t, std::size_t, std::size_t) {});
    EXPECT_GE(ThreadPool::instance().workerCount(), 8u);
    EXPECT_GE(ThreadPool::instance().workerCount(), after2);
}

TEST(ThreadPoolTest, ChunkedDispatchCoversRangeExactlyOnce)
{
    // n large enough that the cursor hands out many chunks per slot.
    constexpr std::size_t kN = 100000;
    std::vector<std::atomic<int>> hits(kN);
    parallelFor(kN, 8, [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            hits[i]++;
    });
    for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ConstLoopBodyRuns)
{
    constexpr std::size_t kN = 1000;
    std::atomic<std::size_t> total{0};
    const auto body = [&](std::size_t, std::size_t b, std::size_t e) {
        total += e - b;
    };
    parallelFor(kN, 4, body);
    EXPECT_EQ(total.load(), kN);
    parallelFor(kN, 1, body); // the inline path takes it too
    EXPECT_EQ(total.load(), 2 * kN);
}

TEST(ThreadPoolTest, SlotIdsStayInRange)
{
    constexpr std::size_t kThreads = 6;
    std::atomic<std::size_t> bad{0};
    parallelFor(10000, kThreads,
                [&](std::size_t slot, std::size_t, std::size_t) {
                    if (slot >= kThreads)
                        bad++;
                });
    EXPECT_EQ(bad.load(), 0u);
}

TEST(ThreadPoolTest, NestedCallsRunInlineWithoutDeadlock)
{
    // A region body issuing its own parallelFor must not re-enter the
    // pool (deadlock) and must still cover its range.
    std::vector<std::atomic<int>> hits(4096);
    parallelFor(8, 4, [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t outer = b; outer < e; ++outer) {
            EXPECT_TRUE(ThreadPool::onWorkerThread());
            parallelFor(512, 4,
                        [&](std::size_t slot, std::size_t ib,
                            std::size_t ie) {
                            // Inline: the nested region runs as one
                            // chunk on slot 0 of the calling worker.
                            EXPECT_EQ(slot, 0u);
                            EXPECT_EQ(ib, 0u);
                            EXPECT_EQ(ie, 512u);
                            for (std::size_t i = ib; i < ie; ++i)
                                hits[outer * 512 + i]++;
                        });
        }
    });
    for (auto& h : hits)
        ASSERT_EQ(h.load(), 1);
    EXPECT_FALSE(ThreadPool::onWorkerThread());
}

sim::u64
fieldAdds(const sim::Counters& c)
{
    return c.prim[(std::size_t)sim::PrimOp::FieldAdd];
}

// Count @p per_item FieldAdds for every index of [0, n).
void
countedRegion(std::size_t n, std::size_t threads, sim::u64 per_item)
{
    parallelFor(n, threads,
                [per_item](std::size_t, std::size_t b, std::size_t e) {
                    for (std::size_t i = b; i < e; ++i)
                        sim::count(sim::PrimOp::FieldAdd, 4, per_item);
                });
}

TEST(ThreadPoolTest, WorkerCountsLandOncePerRegion)
{
    const sim::CountingScope counting;
    // Every participating slot hands its counts over exactly once per
    // region, even slots whose chunks were stolen by faster workers,
    // and the caller holds them as soon as parallelFor returns.
    for (int rep = 0; rep < 20; ++rep) {
        const sim::u64 before = fieldAdds(sim::counters());
        countedRegion(4, 4, 100);
        ASSERT_EQ(fieldAdds(sim::counters()) - before, 400u) << rep;
        countedRegion(4096, 4, 1);
        ASSERT_EQ(fieldAdds(sim::counters()) - before, 4496u) << rep;
    }
}

TEST(ThreadPoolTest, InlinePathsCountOnCaller)
{
    const sim::CountingScope counting;
    const std::uint64_t regions = ThreadPool::instance().regionsExecuted();
    const sim::u64 before = fieldAdds(sim::counters());
    countedRegion(100, 1, 1); // threads <= 1
    countedRegion(1, 8, 7);   // n <= 1
    EXPECT_EQ(fieldAdds(sim::counters()) - before, 107u);
    EXPECT_EQ(ThreadPool::instance().regionsExecuted(), regions);

    // A nested region runs inline on its worker, whose counts reach
    // the outer region's caller with the rest of that participation.
    parallelFor(4, 4, [](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            countedRegion(8, 4, 10);
    });
    EXPECT_EQ(fieldAdds(sim::counters()) - before, 107u + 4 * 8 * 10);
    EXPECT_EQ(ThreadPool::instance().regionsExecuted(), regions + 1);
}

TEST(ThreadPoolTest, UncountedWorkNeverReachesLaterRegions)
{
    ASSERT_FALSE(sim::countingEnabled());
    // Workers of an uncounted region are left holding counts: raw
    // writes, and counts made after a scope opened mid-region.
    parallelFor(64, 4, [](std::size_t, std::size_t b, std::size_t e) {
        sim::counters().compute += 1000 * (e - b);
        const sim::CountingScope late;
        sim::count(sim::PrimOp::FieldAdd, 4, 1000 * (e - b));
    });
    const sim::CountingScope counting;
    const sim::Counters before = sim::counters();
    countedRegion(4, 4, 100);
    const sim::Counters d = sim::counters() - before;
    const sim::OpSignature add = sim::signatureFor(sim::PrimOp::FieldAdd, 4);
    EXPECT_EQ(fieldAdds(d), 400u);
    EXPECT_EQ(d.instructions(),
              400u * (add.compute + add.control + add.data));
}

TEST(ThreadPoolTest, ParallelWorkSecondsAccumulatesAcrossRegions)
{
    resetParallelWorkSeconds();
    ASSERT_EQ(parallelWorkSeconds(), 0.0);

    volatile std::uint64_t sink = 0;
    for (int rep = 0; rep < 3; ++rep)
        parallelFor(4, 2, [&](std::size_t, std::size_t b, std::size_t e) {
            std::uint64_t s = 0;
            for (std::size_t i = b; i < e; ++i)
                for (int k = 0; k < 200000; ++k)
                    s += i * k;
            sink = sink + s;
        });
    const double t = parallelWorkSeconds();
    EXPECT_GT(t, 0.0);

    // Monotone: another region adds to the stopwatch.
    parallelFor(4, 2, [&](std::size_t, std::size_t b, std::size_t e) {
        std::uint64_t s = 0;
        for (std::size_t i = b; i < e; ++i)
            for (int k = 0; k < 200000; ++k)
                s += i * k;
        sink = sink + s;
    });
    EXPECT_GT(parallelWorkSeconds(), t);

    resetParallelWorkSeconds();
    EXPECT_EQ(parallelWorkSeconds(), 0.0);
}

TEST(ThreadPoolTest, WorkerLanesStableUnderRepeatedRegions)
{
    obs::stopTracing();
    obs::startTracing("");
    constexpr std::size_t kThreads = 3;
    constexpr int kRegions = 5;
    for (int rep = 0; rep < kRegions; ++rep)
        parallelFor(999, kThreads,
                    [](std::size_t, std::size_t, std::size_t) {});
    obs::stopTracing();

    std::size_t worker_spans = 0;
    std::set<obs::u32> lanes;
    for (const auto& s : obs::collectedSpans()) {
        if (std::strcmp(s.name, "worker") != 0)
            continue;
        ++worker_spans;
        ASSERT_GE(s.tid, obs::kWorkerLaneBase);
        ASSERT_LT(s.tid, obs::kWorkerLaneBase + kThreads);
        lanes.insert(s.tid);
    }
    // One worker span per slot per region, always on the same lanes.
    EXPECT_EQ(worker_spans, (std::size_t)kRegions * kThreads);
    EXPECT_EQ(lanes.size(), kThreads);
    obs::clearTrace();
}

TEST(ThreadPoolTest, ConcurrentTopLevelRegionsSerializeSafely)
{
    // Two non-pool threads issue regions at once; regions serialize
    // on the pool but both must complete correctly.
    std::vector<std::atomic<int>> a(20000), b(20000);
    std::thread t1([&] {
        for (int rep = 0; rep < 10; ++rep)
            parallelFor(a.size(), 4,
                        [&](std::size_t, std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i)
                                a[i]++;
                        });
    });
    std::thread t2([&] {
        for (int rep = 0; rep < 10; ++rep)
            parallelFor(b.size(), 4,
                        [&](std::size_t, std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i)
                                b[i]++;
                        });
    });
    t1.join();
    t2.join();
    for (auto& x : a)
        ASSERT_EQ(x.load(), 10);
    for (auto& x : b)
        ASSERT_EQ(x.load(), 10);
}

TEST(ThreadPoolTest, StressManySmallRegionsVaryingWidth)
{
    // TSan target: rapid-fire regions of varying width and size.
    std::atomic<std::uint64_t> total{0};
    for (int rep = 0; rep < 200; ++rep) {
        const std::size_t threads = 1 + (std::size_t)rep % 8;
        const std::size_t n = 1 + (std::size_t)(rep * 37) % 500;
        parallelFor(n, threads,
                    [&](std::size_t, std::size_t b, std::size_t e) {
                        total += e - b;
                    });
    }
    std::uint64_t expect = 0;
    for (int rep = 0; rep < 200; ++rep)
        expect += 1 + (std::size_t)(rep * 37) % 500;
    EXPECT_EQ(total.load(), expect);
}

TEST(ThreadPoolTest, SaturationFromExternalThreads)
{
    // Regression test for the layering the proof service relies on
    // (src/serve/): many plain std::threads saturating parallelFor
    // concurrently must serialize region-by-region on the pool's
    // region mutex and all make progress — no deadlock, no lost
    // updates. Nested regions inside each top-level region run
    // inline, exercising the pool's no-re-entry rule at the same
    // time.
    constexpr std::size_t kExternal = 8;
    constexpr int kRegionsEach = 25;
    std::atomic<std::uint64_t> total{0};
    std::vector<std::thread> external;
    for (std::size_t t = 0; t < kExternal; ++t)
        external.emplace_back([&] {
            for (int rep = 0; rep < kRegionsEach; ++rep)
                parallelFor(
                    64, 4,
                    [&](std::size_t, std::size_t b, std::size_t e) {
                        // Nested region: runs inline on the worker.
                        parallelFor(e - b, 2,
                                    [&](std::size_t, std::size_t nb,
                                        std::size_t ne) {
                                        total += ne - nb;
                                    });
                    });
        });
    for (auto& t : external)
        t.join();
    EXPECT_EQ(total.load(),
              (std::uint64_t)kExternal * kRegionsEach * 64);
}

} // namespace
} // namespace zkp
