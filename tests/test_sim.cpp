/**
 * @file
 * Unit tests for the hardware-model substrate: counters, cache
 * hierarchy, branch predictor, CPU models and the top-down classifier.
 */

#include <gtest/gtest.h>

#include <thread>

#include "common/parallel.h"
#include "ff/params.h"
#include "sim/branch.h"
#include "sim/cache.h"
#include "sim/counters.h"
#include "sim/cpu_model.h"
#include "sim/memtrace.h"
#include "sim/topdown.h"
#include "stark/field.h"

namespace zkp::sim {
namespace {

TEST(Counters, SignatureAccumulation)
{
    const CountingScope counting;
    Counters saved = counters();
    counters().reset();

    count(PrimOp::FieldMul, 4, 10);
    const OpSignature sig = signatureFor(PrimOp::FieldMul, 4);
    EXPECT_EQ(counters().compute, sig.compute * 10u);
    EXPECT_EQ(counters().loads, sig.loads * 10u);
    EXPECT_EQ(counters().prim[(std::size_t)PrimOp::FieldMul], 10u);
    EXPECT_EQ(counters().imuls, (4u * 4u + 4u) * 10u);
    EXPECT_EQ(counters().instructions(),
              (u64)(sig.compute + sig.control + sig.data) * 10u);

    counters() = saved;
}

TEST(Counters, SignaturesScaleWithLimbs)
{
    auto s4 = signatureFor(PrimOp::FieldMul, 4);
    auto s6 = signatureFor(PrimOp::FieldMul, 6);
    EXPECT_GT(s6.compute, s4.compute);
    EXPECT_GT(s6.loads, s4.loads);
    // Width-independent ops ignore the limb count.
    EXPECT_EQ(signatureFor(PrimOp::GateDispatch, 4).compute,
              signatureFor(PrimOp::GateDispatch, 6).compute);
}

TEST(Counters, AllocAndMemcpyHelpers)
{
    const CountingScope counting;
    Counters saved = counters();
    counters().reset();
    countAlloc(1000);
    countMemcpy(64);
    EXPECT_EQ(counters().allocBytes, 1000u);
    EXPECT_EQ(counters().memcpyBytes, 64u);
    EXPECT_EQ(counters().prim[(std::size_t)PrimOp::MemcpyWord], 8u);
    counters() = saved;
}

TEST(Counters, MergeIsAdditive)
{
    Counters a, b;
    a.compute = 5;
    a.prim[0] = 2;
    b.compute = 7;
    b.prim[0] = 3;
    a.merge(b);
    EXPECT_EQ(a.compute, 12u);
    EXPECT_EQ(a.prim[0], 5u);
}

TEST(Counters, WorkerMergeHookCollectsThreads)
{
    installWorkerMergeHook();
    const CountingScope counting;
    Counters saved = counters();
    counters().reset();
    drainWorkerCounters(); // flush any leftovers from other tests
    counters().reset();

    parallelFor(4, 4, [](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            count(PrimOp::FieldAdd, 4, 100);
    });
    drainWorkerCounters();
    EXPECT_EQ(counters().prim[(std::size_t)PrimOp::FieldAdd], 400u);
    counters() = saved;
}

bool
sameCounters(const Counters& a, const Counters& b)
{
    return a.compute == b.compute && a.control == b.control &&
           a.data == b.data && a.loads == b.loads &&
           a.stores == b.stores && a.branches == b.branches &&
           a.prim == b.prim && a.imuls == b.imuls &&
           a.allocBytes == b.allocBytes && a.memcpyBytes == b.memcpyBytes;
}

TEST(Counters, OffOutsideScope)
{
    using Fr = ff::bn254::Fr;
    using stark::Gl;
    installWorkerMergeHook();
    ASSERT_FALSE(countingEnabled());
    {
        const CountingScope flush;
        drainWorkerCounters(); // leftovers from other tests
    }
    // Operands are built up front: conversions count field ops too.
    const Fr fa = Fr::fromU64(3), fb = Fr::fromU64(5);
    const Gl ga = Gl::fromU64(7), gb = Gl::fromU64(11);
    Fr fr;
    Gl gl;
    auto work = [&] {
        fr = fa * fb;
        gl = ga * gb;
        countAlloc(1000);
        countMemcpy(64);
        parallelFor(4, 4, [](std::size_t, std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i)
                count(PrimOp::FieldAdd, 4, 100);
        });
        drainWorkerCounters();
    };

    const Counters before = counters();
    work();
    EXPECT_TRUE(sameCounters(counters(), before));

    {
        const CountingScope outer;
        {
            const CountingScope inner;
        }
        EXPECT_TRUE(countingEnabled()) << "inner exit ended the outer";
        work();
    }
    EXPECT_FALSE(countingEnabled());
    const Counters after = counters();
    auto delta = [&](PrimOp op) {
        return after.prim[(std::size_t)op] - before.prim[(std::size_t)op];
    };
    EXPECT_EQ(delta(PrimOp::FieldMul), 2u);
    EXPECT_EQ(delta(PrimOp::FieldAdd), 400u);
    EXPECT_EQ(delta(PrimOp::Alloc), 1u);
    EXPECT_EQ(delta(PrimOp::MemcpyWord), 8u);
    EXPECT_EQ(after.allocBytes - before.allocBytes, 1000u);
    EXPECT_EQ(after.memcpyBytes - before.memcpyBytes, 64u);
    EXPECT_EQ(fr, Fr::fromU64(15));
    EXPECT_EQ(gl, Gl::fromU64(77));
}

TEST(Counters, ScopedTraceWithSinksCounts)
{
    struct Null : TraceSink
    {
        void onAccess(u64, u32, bool, u64) override {}
    } sink;
    ASSERT_FALSE(countingEnabled());
    {
        ScopedTrace none({});
        EXPECT_FALSE(countingEnabled());
    }
    {
        ScopedTrace traced({&sink});
        EXPECT_TRUE(countingEnabled());
    }
    EXPECT_FALSE(countingEnabled());
}

TEST(MemTrace, DisabledByDefaultAndScoped)
{
    struct Recorder : TraceSink
    {
        u64 n = 0;
        void onAccess(u64, u32, bool, u64) override { ++n; }
    } rec;

    int x = 0;
    traceLoad(&x, 4); // inactive: should not crash or record
    {
        ScopedTrace scope({&rec});
        traceLoad(&x, 4);
        traceStore(&x, 4);
    }
    traceLoad(&x, 4); // inactive again
    EXPECT_EQ(rec.n, 2u);
}

TEST(MemTrace, SamplingMask)
{
    struct Recorder : TraceSink
    {
        u64 n = 0;
        void onAccess(u64, u32, bool, u64) override { ++n; }
    } rec;
    int x = 0;
    {
        ScopedTrace scope({&rec}, 3); // 1 of 4
        for (int i = 0; i < 100; ++i)
            traceLoad(&x, 4);
    }
    EXPECT_EQ(rec.n, 25u);
}

TEST(CacheLevel, HitsAfterFill)
{
    CacheLevel c({1024, 2, 64}); // 8 sets
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(63));   // same line
    EXPECT_FALSE(c.access(64));  // next line
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(CacheLevel, LruEviction)
{
    CacheLevel c({128, 2, 64}); // 1 set, 2 ways
    c.access(0);        // A
    c.access(64);       // B
    c.access(0);        // A hit (B becomes LRU)
    c.access(128);      // C evicts B
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(64));
    EXPECT_TRUE(c.probe(128));
}

TEST(CacheHierarchy, StreamingStaysLowMiss)
{
    // A long forward stream: the prefetcher should keep demand LLC
    // misses far below one per line while DRAM traffic still covers
    // the full footprint.
    auto h = cpuI9_13900K().makeHierarchy();
    const u64 lines = 100000;
    for (u64 i = 0; i < lines; ++i)
        h.access(i * 64, 32, false, i * 100);

    EXPECT_LT((double)h.llcLoadMisses(), 0.2 * lines);
    EXPECT_GT(h.dramBytes(), lines * 64 * 0.8);
}

TEST(CacheHierarchy, RandomAccessMissesWhenOversized)
{
    // Random accesses over a footprint 8x the LLC: most should miss.
    auto h = cpuI7_8650U().makeHierarchy();
    const u64 footprint = 8ull * h.llc().config().sizeBytes;
    u64 state = 12345;
    const u64 n = 200000;
    for (u64 i = 0; i < n; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        h.access(state % footprint, 8, false, i * 100);
    }
    EXPECT_GT((double)h.llcLoadMisses(), 0.5 * n);
}

TEST(CacheHierarchy, SmallFootprintFitsInLlc)
{
    auto h = cpuI9_13900K().makeHierarchy();
    // 1 MiB working set revisited repeatedly: after warmup, no misses.
    const u64 lines = 16384;
    for (int round = 0; round < 4; ++round)
        for (u64 i = 0; i < lines; ++i)
            h.access(i * 64 + (u64)(round & 1), 8, false, i);
    const u64 after_warmup = h.llcLoadMisses();
    for (u64 i = 0; i < lines; ++i)
        h.access(i * 64, 8, false, i);
    EXPECT_EQ(h.llcLoadMisses(), after_warmup);
}

TEST(CacheHierarchy, WindowsTrackTraffic)
{
    auto h = cpuI5_11400().makeHierarchy(1000);
    u64 state = 99;
    for (u64 i = 0; i < 5000; ++i) {
        state = state * 6364136223846793005ULL + 1;
        h.access(state % (1ull << 30), 8, i % 3 == 0, i * 10);
    }
    EXPECT_FALSE(h.windows().empty());
    u64 total = 0;
    for (const auto& w : h.windows())
        total += w.bytes;
    EXPECT_EQ(total, h.dramBytes());
    EXPECT_GE(h.peakWindowBytes(), total / h.windows().size());
}

TEST(CacheHierarchy, ResetClearsEverything)
{
    auto h = cpuI9_13900K().makeHierarchy();
    h.access(0, 8, false, 0);
    h.resetStats();
    EXPECT_EQ(h.llcLoadMisses(), 0u);
    EXPECT_EQ(h.dramBytes(), 0u);
    EXPECT_TRUE(h.windows().empty());
    EXPECT_EQ(h.l1().stats().accesses, 0u);
}

TEST(GsharePredictor, LearnsStablePattern)
{
    GsharePredictor p("test", 10);
    // Strongly biased branch: should be nearly always predicted after
    // warmup.
    for (int i = 0; i < 1000; ++i)
        p.branch(1, true);
    EXPECT_LT(p.stats().mispredictRate(), 0.05);
}

TEST(GsharePredictor, LearnsAlternatingViaHistory)
{
    GsharePredictor p("test", 12);
    for (int i = 0; i < 4000; ++i)
        p.branch(7, i % 2 == 0);
    // Global history makes an alternating pattern learnable.
    EXPECT_LT(p.stats().mispredictRate(), 0.2);
}

TEST(GsharePredictor, RandomIsHard)
{
    GsharePredictor p("test", 12);
    u64 state = 42;
    for (int i = 0; i < 20000; ++i) {
        state = state * 6364136223846793005ULL + 1;
        p.branch(3, (state >> 33) & 1);
    }
    EXPECT_GT(p.stats().mispredictRate(), 0.3);
}

TEST(CpuModels, TableIGeometry)
{
    const auto& i7 = cpuI7_8650U();
    const auto& i5 = cpuI5_11400();
    const auto& i9 = cpuI9_13900K();

    EXPECT_EQ(i7.perfCores, 4u);
    EXPECT_EQ(i7.smtThreads, 8u);
    EXPECT_DOUBLE_EQ(i7.memBandwidthGBps, 34.1);
    EXPECT_EQ(i7.llcBytes, 8ull << 20);

    EXPECT_EQ(i5.perfCores, 6u);
    EXPECT_EQ(i5.dramChannels, 1u);
    EXPECT_DOUBLE_EQ(i5.memBandwidthGBps, 17.0);
    EXPECT_EQ(i5.llcBytes, 12ull << 20);

    EXPECT_EQ(i9.perfCores, 8u);
    EXPECT_EQ(i9.effCores, 16u);
    EXPECT_EQ(i9.smtThreads, 32u);
    EXPECT_DOUBLE_EQ(i9.memBandwidthGBps, 89.6);
    EXPECT_EQ(i9.llcBytes, 36ull << 20);

    EXPECT_EQ(allCpuModels().size(), 3u);
}

TEST(TopDown, FractionsSumToOne)
{
    StageEvents ev;
    ev.counters.compute = 4'000'000;
    ev.counters.control = 1'000'000;
    ev.counters.data = 3'000'000;
    ev.counters.branches = 500'000;
    ev.counters.imuls = 1'500'000;
    ev.l1Misses = 50'000;
    ev.l2Misses = 20'000;
    ev.llcMisses = 5'000;
    ev.branchEvents = 100'000;
    ev.branchMispredicts = 3'000;

    for (const CpuModel* cpu : allCpuModels()) {
        auto r = classifyTopDown(ev, *cpu);
        EXPECT_NEAR(r.frontend + r.badSpeculation + r.backend + r.retiring,
                    1.0, 1e-9)
            << cpu->name;
        EXPECT_GE(r.retiring, 0.0);
        EXPECT_GT(r.totalCycles, 0.0);
    }
}

TEST(TopDown, MemoryBoundGoesBackend)
{
    StageEvents ev;
    ev.counters.compute = 1'000'000;
    ev.counters.data = 1'000'000;
    ev.llcMisses = 200'000; // very high MPKI
    ev.hotCodeUops = 500;   // fits every uop cache
    auto r = classifyTopDown(ev, cpuI9_13900K());
    EXPECT_EQ(r.boundCategory(), "back-end bound");
    EXPECT_GT(r.backend, 0.5);
}

TEST(TopDown, DispatchHeavyGoesFrontend)
{
    StageEvents ev;
    ev.counters.compute = 500'000;
    ev.counters.control = 900'000;
    ev.counters.data = 1'000'000;
    ev.counters.branches = 700'000;
    ev.counters.prim[(std::size_t)PrimOp::GateDispatch] = 300'000;
    ev.branchEvents = 200'000;
    ev.branchMispredicts = 4'000;
    ev.hotCodeUops = 3000;
    auto r = classifyTopDown(ev, cpuI7_8650U());
    EXPECT_EQ(r.boundCategory(), "front-end bound");
}

TEST(TopDown, MispredictHeavyGoesBadSpeculation)
{
    StageEvents ev;
    ev.counters.compute = 500'000;
    ev.counters.control = 500'000;
    ev.counters.data = 500'000;
    ev.counters.branches = 450'000;
    ev.branchEvents = 450'000;
    ev.branchMispredicts = 157'500; // 35% on the hard branches
    ev.hotCodeUops = 500;
    auto r = classifyTopDown(ev, cpuI9_13900K());
    EXPECT_GT(r.badSpeculation, 0.3);
}

TEST(TopDown, SameEventsDifferentCpusDifferentCategory)
{
    // The paper's headline: one stage, different bound category per
    // CPU. A moderately memory-heavy, moderately branchy profile lands
    // back-end bound on the single-channel i5 but not on the i9.
    StageEvents ev;
    ev.counters.compute = 3'000'000;
    ev.counters.control = 800'000;
    ev.counters.data = 2'200'000;
    ev.counters.branches = 400'000;
    ev.counters.imuls = 400'000;
    ev.llcMisses = 40'000;
    ev.l2Misses = 120'000;
    ev.l1Misses = 200'000;
    ev.branchEvents = 100'000;
    ev.branchMispredicts = 2'000;
    ev.hotCodeUops = 2000;

    auto r_i5 = classifyTopDown(ev, cpuI5_11400());
    auto r_i9 = classifyTopDown(ev, cpuI9_13900K());
    EXPECT_GT(r_i5.backend, r_i9.backend);
}

TEST(TopDown, EmptyEventsRetire)
{
    StageEvents ev;
    auto r = classifyTopDown(ev, cpuI9_13900K());
    EXPECT_DOUBLE_EQ(r.retiring, 1.0);
}

} // namespace
} // namespace zkp::sim
