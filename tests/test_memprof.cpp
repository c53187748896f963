/**
 * @file
 * Memory observability tests (src/obs/memprof.h): deterministic
 * allocation counting through the operator new/delete interposition,
 * span-site attribution, RSS/peak-RSS readers, tracked-owner
 * accounting, stage deltas whose sites add up to their counters, the
 * tracked-vs-allocator reconciliation on a real 2^12 proving
 * pipeline, and allocation-free batch-affine flushes.
 *
 * Under sanitizer builds the interposition shim is compiled out
 * (available() == false) and the allocation-dependent tests skip —
 * the refusal path itself is asserted instead. The alloc-storm test
 * runs either way and is in the TSan target set to race the readers
 * against writers.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "ec/batch_add.h"
#include "ec/groups.h"
#include "obs/memprof.h"
#include "obs/trace.h"
#include "poly/domain.h"
#include "snark/curve.h"

namespace memprof = zkp::obs::memprof;
using zkp::obs::memprof::u64;

namespace {

/** Touch every page so the bytes become resident. */
void
touchPages(char* p, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 4096)
        p[i] = (char)(i & 0xff);
    p[n - 1] = 1;
}

} // namespace

// Runs first (gtest declaration order) and turns tracking on for the
// rest of the suite when the build supports it.
TEST(Memprof, AvailabilityAndToggle)
{
    if (!memprof::available()) {
        // Sanitizer build: enabling must be refused, not crash, and
        // the reason must be human-readable.
        EXPECT_FALSE(memprof::setTracking(true));
        EXPECT_FALSE(memprof::setTracking(true)); // idempotent refusal
        EXPECT_FALSE(memprof::tracking());
        EXPECT_STRNE("", memprof::unavailableReason());
        return;
    }
    EXPECT_STREQ("", memprof::unavailableReason());
    EXPECT_TRUE(memprof::setTracking(true));
    EXPECT_TRUE(memprof::tracking());
}

TEST(Memprof, DeterministicThreadCounting)
{
    if (!memprof::available())
        GTEST_SKIP() << memprof::unavailableReason();
    ASSERT_TRUE(memprof::setTracking(true));

    constexpr std::size_t kSizes[] = {64, 256, 1024, 4096, 65536};
    constexpr std::size_t kCount = std::size(kSizes);
    std::array<void*, kCount> ptrs{};

    const auto before = memprof::threadStats();
    std::size_t requested = 0;
    for (std::size_t i = 0; i < kCount; ++i) {
        ptrs[i] = ::operator new(kSizes[i]);
        requested += kSizes[i];
    }
    const auto mid = memprof::threadStats();

    // Exactly our allocations happened on this thread between the two
    // snapshots; bytes are usable-size so >= requested with bounded
    // allocator slack.
    EXPECT_EQ(mid.allocCount - before.allocCount, kCount);
    EXPECT_GE(mid.allocBytes - before.allocBytes, requested);
    EXPECT_LE(mid.allocBytes - before.allocBytes,
              2 * requested + kCount * 64);
    EXPECT_EQ(mid.freeCount, before.freeCount);

    for (void* p : ptrs)
        ::operator delete(p);
    const auto after = memprof::threadStats();

    // Usable-size on both sides makes live bytes return exactly.
    EXPECT_EQ(after.freeCount - mid.freeCount, kCount);
    EXPECT_EQ(after.freeBytes - mid.freeBytes,
              mid.allocBytes - before.allocBytes);
    EXPECT_EQ(after.liveBytes(), before.liveBytes());
}

TEST(Memprof, SpanSiteAttribution)
{
    if (!memprof::available())
        GTEST_SKIP() << memprof::unavailableReason();
    ASSERT_TRUE(memprof::setTracking(true));

    static const char* const kSite = "test.site.alpha";
    memprof::pushSite(kSite);
    void* p = ::operator new(std::size_t(64) << 10);
    memprof::popSite();
    ::operator delete(p);

    bool found = false;
    for (const auto& s : memprof::siteSnapshot()) {
        if (s.name && std::strcmp(s.name, "test.site.alpha") == 0) {
            found = true;
            EXPECT_GE(s.allocBytes, std::size_t(64) << 10);
            EXPECT_GE(s.allocCount, 1u);
        }
    }
    EXPECT_TRUE(found);
}

// Regression: allocations made with no span active must not sit in an
// unclaimed site-table slot, where the next new span name to claim the
// slot would inherit them. They belong to the "(no span)" bucket, and
// a freshly claimed site must start from zero.
TEST(Memprof, NoSpanBytesDoNotLeakIntoNextClaimedSite)
{
    if (!memprof::available())
        GTEST_SKIP() << memprof::unavailableReason();
    ASSERT_TRUE(memprof::setTracking(true));

    auto siteBytes = [](const std::vector<memprof::SiteStat>& sites,
                        const char* name) -> u64 {
        for (const auto& s : sites)
            if (s.name && std::strcmp(s.name, name) == 0)
                return s.allocBytes;
        return 0;
    };

    const auto before = memprof::siteSnapshot();

    // 1 MiB with no span active, then a small allocation under a
    // site name this process has never seen.
    constexpr std::size_t kNoSpan = std::size_t(1) << 20;
    void* orphan = ::operator new(kNoSpan);
    static const char* const kFresh = "test.site.fresh.claim";
    memprof::pushSite(kFresh);
    void* p = ::operator new(std::size_t(4) << 10);
    memprof::popSite();

    const auto after = memprof::siteSnapshot();
    ::operator delete(p);
    ::operator delete(orphan);

    // The fresh site saw only its own 4 KiB (allocator slack < 64 KiB),
    // not the orphaned megabyte.
    const u64 fresh =
        siteBytes(after, "test.site.fresh.claim") -
        siteBytes(before, "test.site.fresh.claim");
    EXPECT_GE(fresh, std::size_t(4) << 10);
    EXPECT_LT(fresh, std::size_t(64) << 10);
    // The orphan landed in the "(no span)" bucket instead.
    EXPECT_GE(siteBytes(after, "(no span)") -
                  siteBytes(before, "(no span)"),
              kNoSpan);
}

// With every allocation routed to a named site, "(no span)", or the
// overflow bucket, the site snapshot must reconcile with the global
// allocator counters.
TEST(Memprof, SiteBytesSumToAllocatorTotals)
{
    if (!memprof::available())
        GTEST_SKIP() << memprof::unavailableReason();
    ASSERT_TRUE(memprof::setTracking(true));

    const u64 before = memprof::totals().allocBytes;
    u64 sum = 0;
    for (const auto& s : memprof::siteSnapshot())
        sum += s.allocBytes;
    const u64 after = memprof::totals().allocBytes;

    // Counter order in recordAlloc (allocBytes first, then the site)
    // bounds the sum by the totals read on either side of it; the
    // slack covers racing allocations on pool threads.
    EXPECT_LE(sum, after);
    EXPECT_GE(sum + (std::size_t(64) << 10), before);
}

TEST(Memprof, RssReadersAndPeakMonotonicity)
{
    const u64 rss0 = memprof::rssBytes();
    const u64 peak0 = memprof::peakRssBytes();
    ASSERT_GT(rss0, 0u);
    ASSERT_GT(peak0, 0u);

    // Touch 32 MiB: current RSS must grow by most of it while the
    // block is held, and the high-water mark can only go up.
    constexpr std::size_t kBytes = std::size_t(32) << 20;
    std::vector<char> block(kBytes);
    touchPages(block.data(), kBytes);

    const u64 rss1 = memprof::rssBytes();
    const u64 peak1 = memprof::peakRssBytes();
    EXPECT_GE(rss1, rss0 + (std::size_t(24) << 20));
    EXPECT_GE(peak1, peak0);
    // VmHWM >= RSS modulo the instant between the two /proc reads.
    EXPECT_GE(peak1 + (std::size_t(1) << 20), rss1);

    block.clear();
    block.shrink_to_fit();
    EXPECT_GE(memprof::peakRssBytes(), peak1); // never decreases
}

TEST(Memprof, TrackedOwnerAccounting)
{
    const u64 base = memprof::trackedTotalBytes();

    memprof::trackedAdd("test.owner.x", 1234);
    EXPECT_EQ(memprof::trackedTotalBytes(), base + 1234);
    bool found = false;
    for (const auto& [name, bytes] : memprof::trackedSnapshot())
        if (name == "test.owner.x") {
            found = true;
            EXPECT_EQ(bytes, 1234u);
        }
    EXPECT_TRUE(found);

    // Withdrawing more than the account holds clamps at zero rather
    // than corrupting the total.
    memprof::trackedAdd("test.owner.x", -999999);
    EXPECT_EQ(memprof::trackedTotalBytes(), base);

    {
        memprof::TrackedBytes t;
        t.set("test.owner.raii", 4096);
        EXPECT_EQ(memprof::trackedTotalBytes(), base + 4096);
        memprof::TrackedBytes moved(std::move(t));
        EXPECT_EQ(memprof::trackedTotalBytes(), base + 4096);
        moved.set("test.owner.raii", 8192); // replaces, not adds
        EXPECT_EQ(memprof::trackedTotalBytes(), base + 8192);
    }
    EXPECT_EQ(memprof::trackedTotalBytes(), base); // RAII withdrew
}

TEST(Memprof, StageDeltaMeasuresRegion)
{
    const auto before = memprof::snapshot();

    void* kept = ::operator new(std::size_t(256) << 10);
    void* temp = ::operator new(std::size_t(128) << 10);
    ::operator delete(temp);

    auto delta = memprof::stageDelta(before, 3);
    EXPECT_GT(delta.rssBytes, 0u);
    EXPECT_GE(delta.peakRssBytes, before.peakRssBytes);
    EXPECT_LE(delta.topSites.size(), 3u);
    if (memprof::tracking()) {
        EXPECT_TRUE(delta.tracked);
        EXPECT_GE(delta.allocBytes, std::size_t(384) << 10);
        EXPECT_GE(delta.allocCount, 2u);
        EXPECT_GE(delta.liveDelta, (std::int64_t)(std::size_t(256) << 10));
        EXPECT_LT(delta.liveDelta, (std::int64_t)(std::size_t(320) << 10));
    } else {
        EXPECT_FALSE(delta.tracked);
    }
    ::operator delete(kept);
}

/**
 * A stage's sites add up to its counters exactly: two nested spans
 * that allocate once each show up as exactly those two sites, and
 * neither capture's own site list lands in the delta. Runs with
 * tracing off and on; the trace log is warmed first so recording the
 * two spans allocates nothing.
 */
TEST(Memprof, StageDeltaSitesSumToCounters)
{
    if (!memprof::available())
        GTEST_SKIP() << memprof::unavailableReason();
    ASSERT_TRUE(memprof::setTracking(true));

    struct Region
    {
        u64 outerBytes = 0;
        u64 innerBytes = 0;
    };
    // The bytes each site is charged, read off the thread's own
    // counters around each allocation.
    auto run = []() {
        Region r;
        ZKP_TRACE_SCOPE("test.stage.outer");
        u64 b0 = memprof::threadStats().allocBytes;
        void* outer = ::operator new(3000);
        r.outerBytes = memprof::threadStats().allocBytes - b0;
        {
            ZKP_TRACE_SCOPE("test.stage.inner");
            b0 = memprof::threadStats().allocBytes;
            void* inner = ::operator new(200);
            r.innerBytes = memprof::threadStats().allocBytes - b0;
            ::operator delete(inner);
        }
        ::operator delete(outer);
        return r;
    };

    for (const bool traced : {false, true}) {
        SCOPED_TRACE(traced ? "tracing on" : "tracing off");
        if (traced) {
            zkp::obs::startTracing("");
            run();
            zkp::obs::clearTrace(); // keeps the log's capacity
        }
        const auto before = memprof::snapshot();
        const Region r = run();
        const auto delta = memprof::stageDelta(before, 8);
        if (traced)
            zkp::obs::stopTracing();

        ASSERT_EQ(delta.topSites.size(), 2u);
        u64 bytes = 0, count = 0;
        for (const auto& site : delta.topSites) {
            bytes += site.allocBytes;
            count += site.allocCount;
            EXPECT_EQ(site.allocCount, 1u) << site.name;
            if (std::strcmp(site.name, "test.stage.outer") == 0)
                EXPECT_EQ(site.allocBytes, r.outerBytes);
            else if (std::strcmp(site.name, "test.stage.inner") == 0)
                EXPECT_EQ(site.allocBytes, r.innerBytes);
            else
                ADD_FAILURE() << "unexpected site " << site.name;
        }
        EXPECT_EQ(bytes, delta.allocBytes);
        EXPECT_EQ(count, delta.allocCount);
        EXPECT_EQ(delta.allocCount, 2u);
    }
    zkp::obs::clearTrace();
}

/**
 * The acceptance reconciliation: run setup+prove of a real 2^12
 * pipeline and check that the explicitly tracked owners (proving key,
 * twiddles, ...) explain a sane fraction of allocator-observed live
 * bytes. Tracked accounts count payload bytes (counts x sizeof), the
 * allocator counts usable sizes plus container slack plus everything
 * the owners do NOT model (witness vectors, R1CS storage), so the
 * documented bound is: 5% <= tracked/live <= 105%.
 */
TEST(Memprof, TrackedVsAllocatorReconciliationOnProve)
{
    if (!memprof::available())
        GTEST_SKIP() << memprof::unavailableReason();
    ASSERT_TRUE(memprof::setTracking(true));

    zkp::core::StageRunner<zkp::snark::Bn254> runner(std::size_t(1)
                                                     << 12);
    auto run = runner.run(zkp::core::Stage::Proving, 2);

    // The per-stage mem object StageRunner now fills (schema /3).
    EXPECT_TRUE(run.mem.tracked);
    EXPECT_GT(run.mem.rssBytes, 0u);
    EXPECT_GT(run.mem.allocBytes, 0u);
    EXPECT_GT(run.mem.allocCount, 0u);

    // The proving key is held by the runner, so its account is live
    // here. Twiddle caches are owned by prove's transient Domains and
    // correctly withdrawn when they die — their lifecycle is covered
    // by TwiddleAccountFollowsDomainLifetime below.
    const auto owners = memprof::trackedSnapshot();
    auto has = [&](const char* name) {
        for (const auto& [n, b] : owners)
            if (n == name && b > 0)
                return true;
        return false;
    };
    EXPECT_TRUE(has("snark.proving_key"));

    const double tracked = (double)memprof::trackedTotalBytes();
    const double live = (double)memprof::totals().liveBytes();
    ASSERT_GT(live, 0.0);
    ASSERT_GT(tracked, 0.0);
    const double ratio = tracked / live;
    EXPECT_GE(ratio, 0.05) << "tracked=" << tracked << " live=" << live;
    EXPECT_LE(ratio, 1.05) << "tracked=" << tracked << " live=" << live;
}

/** Transient owners withdraw their account when they die: a Domain's
 *  twiddle cache registers "ntt.twiddles" on first use and the RAII
 *  account returns to baseline with the last Domain sharing it. */
TEST(Memprof, TwiddleAccountFollowsDomainLifetime)
{
    auto ownerBytes = [](const char* name) -> u64 {
        for (const auto& [n, b] : memprof::trackedSnapshot())
            if (n == name)
                return b;
        return 0;
    };
    using Fr = zkp::snark::Bn254::Fr;

    const u64 base = ownerBytes("ntt.twiddles");
    {
        zkp::poly::Domain<Fr> dom(1 << 10);
        zkp::Rng rng(7);
        std::vector<Fr> v(1 << 10);
        for (auto& x : v)
            x = Fr::random(rng);
        dom.ntt(v, 1); // builds the twiddle cache
        EXPECT_GT(ownerBytes("ntt.twiddles"), base);
    }
    EXPECT_EQ(ownerBytes("ntt.twiddles"), base);
}

// A BatchAffineAdder keeps its flush scratch, the batch inversion's
// prefix products included, across flushes: once its buffers have
// grown to a round's largest batch, a round of adds and flushes
// allocates nothing.
TEST(Memprof, WarmBatchAffineFlushAllocatesNothing)
{
    if (!memprof::available())
        GTEST_SKIP() << memprof::unavailableReason();
    ASSERT_TRUE(memprof::setTracking(true));

    using G = zkp::ec::Bn254G1;
    constexpr std::size_t kBuckets = 256;
    constexpr std::size_t kPoints = 4096 + 16;
    std::vector<G::Affine> pts;
    pts.reserve(kPoints);
    const G::Jacobian g{G::generator()};
    G::Jacobian p = g;
    for (std::size_t i = 0; i < kPoints; ++i) {
        pts.push_back(p.toAffine());
        p += g;
    }

    zkp::ec::BatchAffineAdder<G::Field> acc(kBuckets);
    // After the first round every bucket holds a point, so each later
    // round schedules the same batches: 64 full ones of 64 adds (the
    // 8-chain inversion) and a last one of 16 (the serial chain).
    auto round = [&] {
        for (std::size_t i = 0; i < kPoints; ++i)
            acc.add(i % kBuckets, pts[i]);
        acc.flush();
    };
    round();
    round();
    const std::uint64_t flushes = acc.stats().flushes;
    const auto before = memprof::threadStats();
    round();
    const auto after = memprof::threadStats();
    EXPECT_GT(acc.stats().flushes, flushes);
    EXPECT_EQ(after.allocCount - before.allocCount, 0u);
}

/**
 * Readers vs writers under load (TSan target): worker threads churn
 * allocations inside span sites while the main thread scrapes every
 * snapshot API. Asserts liveness/shape only — the interesting
 * property is the absence of races and crashes.
 */
TEST(Memprof, AllocStormVsScraper)
{
    if (memprof::available()) {
        ASSERT_TRUE(memprof::setTracking(true));
    }

    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t)
        workers.emplace_back([&stop, t] {
            static const char* const kSites[] = {
                "storm.a", "storm.b", "storm.c", "storm.d"};
            std::size_t sz = 32 + 8 * (std::size_t)t;
            while (!stop.load(std::memory_order_relaxed)) {
                memprof::pushSite(kSites[t]);
                void* p = ::operator new(sz);
                memprof::popSite();
                ::operator delete(p);
                sz = sz < 4096 ? sz * 2 : 32;
                memprof::trackedAdd("storm.owner", 64);
                memprof::trackedAdd("storm.owner", -64);
            }
        });

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(100);
    u64 scrapes = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        auto snap = memprof::snapshot();
        (void)memprof::totals();
        (void)memprof::threadStats();
        (void)memprof::siteSnapshot();
        (void)memprof::trackedSnapshot();
        (void)memprof::rssBytes();
        (void)memprof::peakRssBytes();
        (void)memprof::stageDelta(snap, 2);
        ++scrapes;
    }
    stop.store(true);
    for (auto& w : workers)
        w.join();
    EXPECT_GT(scrapes, 0u);

    if (memprof::available()) {
        // Every storm allocation was freed: the workers' net live
        // contribution is zero, and totals() kept alloc >= free.
        const auto t = memprof::totals();
        EXPECT_GE(t.allocCount, t.freeCount);
    }
}
