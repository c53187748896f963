/**
 * @file
 * Tests for the analysis framework: stage runner, fits, function
 * attribution, scaling model and the full analyses at small sizes.
 */

#include <gtest/gtest.h>

#include "core/analysis.h"
#include "snark/curve.h"

namespace zkp::core {
namespace {

using snark::Bn254;
using snark::Bls381;

TEST(StageMeta, NamesAndFootprints)
{
    EXPECT_STREQ(stageName(Stage::Compile), "compile");
    EXPECT_STREQ(stageName(Stage::Verifying), "verifying");
    EXPECT_EQ(kAllStages.size(), 5u);
    // At moderate sizes verify has the largest hot-code footprint
    // (JS bigint + tower); the generated witness code overtakes it at
    // large circuit sizes.
    for (Stage s : kAllStages)
        EXPECT_LE(stageFootprintUops(s, 512),
                  stageFootprintUops(Stage::Verifying, 512));
    EXPECT_GT(stageFootprintUops(Stage::Witness, 1 << 18),
              stageFootprintUops(Stage::Verifying, 1 << 18));
}

TEST(StageRunner, RunsAllStagesInOrderAndOutOfOrder)
{
    StageRunner<Bn254> runner(32);
    for (Stage s : kAllStages) {
        StageRun run = runner.run(s);
        EXPECT_GT(run.seconds, 0.0) << stageName(s);
        EXPECT_GT(run.counters.instructions(), 0u) << stageName(s);
    }
    EXPECT_TRUE(runner.lastVerifyOk());

    // A fresh runner asked directly for the last stage must satisfy
    // prerequisites itself.
    StageRunner<Bn254> direct(16);
    StageRun run = direct.run(Stage::Verifying);
    EXPECT_TRUE(direct.lastVerifyOk());
    EXPECT_GT(run.counters.instructions(), 0u);
}

TEST(StageRunner, CountersIsolatePerStage)
{
    StageRunner<Bn254> runner(64);
    StageRun compile = runner.run(Stage::Compile);
    StageRun witness = runner.run(Stage::Witness);

    // Witness is interpreter work: it must record gate dispatches;
    // compile must record allocations; and setup dwarfs both.
    EXPECT_GT(witness.counters.prim[(std::size_t)
                                        sim::PrimOp::GateDispatch],
              0u);
    EXPECT_GT(compile.counters.prim[(std::size_t)sim::PrimOp::Alloc],
              0u);
    StageRun setup = runner.run(Stage::Setup);
    EXPECT_GT(setup.counters.instructions(),
              10 * witness.counters.instructions());
}

// StageRunner holds the counting scope over exactly its measured
// region, so the gate must not drop a single count there. The values
// are those the library produced when counting was always on
// (BN254 exp at 2^10, one thread, default seed).
TEST(StageRunner, PinnedPrimCountsAtTwoToTen)
{
    struct Pin
    {
        Stage stage;
        sim::u64 fieldMul, fieldAdd, msmWindow, nttButterfly, alloc;
        sim::u64 instructions;
    };
    const Pin pins[] = {
        {Stage::Setup, 1239896, 1935216, 164256, 0, 7, 127378968},
        {Stage::Proving, 975716, 1276096, 80242, 35840, 6, 93998430},
    };
    StageRunner<Bn254> runner(std::size_t(1) << 10);
    for (const Pin& pin : pins) {
        const sim::Counters c = runner.run(pin.stage, 1).counters;
        auto prim = [&](sim::PrimOp op) {
            return c.prim[(std::size_t)op];
        };
        const char* name = stageName(pin.stage);
        EXPECT_EQ(prim(sim::PrimOp::FieldMul), pin.fieldMul) << name;
        EXPECT_EQ(prim(sim::PrimOp::FieldAdd), pin.fieldAdd) << name;
        EXPECT_EQ(prim(sim::PrimOp::MsmWindow), pin.msmWindow) << name;
        EXPECT_EQ(prim(sim::PrimOp::NttButterfly), pin.nttButterfly)
            << name;
        EXPECT_EQ(prim(sim::PrimOp::Alloc), pin.alloc) << name;
        EXPECT_EQ(c.instructions(), pin.instructions) << name;
    }
}

TEST(StageRunner, DeterministicCounters)
{
    StageRunner<Bn254> a(32), b(32);
    auto ra = a.run(Stage::Witness);
    auto rb = b.run(Stage::Witness);
    EXPECT_EQ(ra.counters.instructions(), rb.counters.instructions());
    EXPECT_EQ(ra.counters.loads, rb.counters.loads);
}

TEST(ScalingFit, AmdahlRecoversKnownFraction)
{
    for (double s : {0.05, 0.3, 0.7}) {
        std::vector<SpeedupPoint> pts;
        for (unsigned n : {1u, 2u, 4u, 8u, 16u, 32u})
            pts.emplace_back(n, amdahlSpeedup(s, n));
        EXPECT_NEAR(fitAmdahlSerial(pts), s, 0.01) << s;
    }
}

TEST(ScalingFit, GustafsonRecoversKnownFraction)
{
    for (double s : {0.1, 0.5, 0.9}) {
        std::vector<SpeedupPoint> pts;
        for (unsigned n : {1u, 2u, 4u, 8u, 16u, 32u})
            pts.emplace_back(n, gustafsonSpeedup(s, n));
        EXPECT_NEAR(fitGustafsonSerial(pts), s, 1e-6) << s;
    }
}

TEST(ScalingFit, EdgeCases)
{
    EXPECT_DOUBLE_EQ(fitAmdahlSerial({}), 1.0);
    EXPECT_DOUBLE_EQ(fitGustafsonSerial({}), 1.0);
    // Fully serial: speedup 1 at every thread count.
    std::vector<SpeedupPoint> flat{{1, 1.0}, {8, 1.0}, {32, 1.0}};
    EXPECT_GT(fitAmdahlSerial(flat), 0.95);
    // Perfect scaling.
    std::vector<SpeedupPoint> perfect{{1, 1.0}, {8, 8.0}, {32, 32.0}};
    EXPECT_LT(fitAmdahlSerial(perfect), 0.01);
}

TEST(ScalingModel, MonotoneAndBounded)
{
    const auto& i9 = sim::cpuI9_13900K();
    double prev = 0;
    for (unsigned t : {1u, 2u, 4u, 8u, 16u, 24u}) {
        double s = modelStrongSpeedup(1.0, 0.8, t, i9);
        EXPECT_GE(s, prev * 0.99);
        EXPECT_LE(s, (double)t + 1e-9);
        prev = s;
    }
    // Fully serial work cannot speed up.
    EXPECT_LE(modelStrongSpeedup(1.0, 0.0, 16, i9), 1.0);
    // Tiny tasks degrade at high thread counts (spawn overhead) —
    // the paper's 2^10-compile observation.
    double small_18 = modelStrongSpeedup(0.0005, 0.0004, 18, i9);
    double small_24 = modelStrongSpeedup(0.0005, 0.0004, 24, i9);
    EXPECT_LT(small_24, small_18);
}

TEST(EffectiveCapacity, ReflectsCoreTopology)
{
    const auto& i9 = sim::cpuI9_13900K();
    EXPECT_DOUBLE_EQ(i9.effectiveCapacity(1), 1.0);
    EXPECT_DOUBLE_EQ(i9.effectiveCapacity(8), 8.0);
    // E-cores count less than P-cores.
    EXPECT_LT(i9.effectiveCapacity(24), 24.0);
    EXPECT_GT(i9.effectiveCapacity(24), 8.0);
    // SMT adds a little beyond 24 threads.
    EXPECT_GT(i9.effectiveCapacity(32), i9.effectiveCapacity(24));

    const auto& i7 = sim::cpuI7_8650U();
    EXPECT_DOUBLE_EQ(i7.effectiveCapacity(4), 4.0);
    EXPECT_LT(i7.effectiveCapacity(8), 8.0);
}

TEST(UnitCostsTest, Sane)
{
    const auto& u = UnitCosts::get();
    EXPECT_GT(u.nsPerImul, 0.0);
    EXPECT_LT(u.nsPerImul, 100.0);
    EXPECT_GT(u.nsPerMemcpyByte, 0.0);
    EXPECT_LT(u.nsPerMemcpyByte, 10.0);
    EXPECT_GT(u.nsPerAlloc, 0.0);
}

TEST(FunctionAttribution, SumsToHundredAndRanksBigintInSetup)
{
    StageRunner<Bn254> runner(256);
    StageRun setup = runner.run(Stage::Setup);
    auto shares = attributeFunctions(setup, 4);
    double total = 0;
    for (const auto& f : shares)
        total += f.pct;
    EXPECT_NEAR(total, 100.0, 1e-6);
    // Setup is field-arithmetic dominated: bigint must be the top
    // non-"other" entry.
    for (const auto& f : shares) {
        if (f.function == "other")
            continue;
        EXPECT_EQ(f.function, "bigint");
        break;
    }
}

TEST(OpcodeMixTest, WitnessIsMostControlHeavy)
{
    SweepConfig cfg;
    cfg.sizes = {256};
    auto cells = runCodeAnalysis<Bn254>(cfg);
    ASSERT_EQ(cells.size(), kNumStages);

    double witness_ctrl = 0, max_other_ctrl = 0;
    for (const auto& c : cells) {
        EXPECT_NEAR(c.mix.computePct + c.mix.controlPct + c.mix.dataPct,
                    100.0, 1e-6);
        if (c.stage == Stage::Witness)
            witness_ctrl = c.mix.controlPct;
        else
            max_other_ctrl = std::max(max_other_ctrl, c.mix.controlPct);
    }
    // Table V: witness is the control-flow-intensive stage.
    EXPECT_GT(witness_ctrl, max_other_ctrl);
}

TEST(TopDownAnalysis, ProducesFullGrid)
{
    SweepConfig cfg;
    cfg.sizes = {128};
    auto cells = runTopDownAnalysis<Bn254>(cfg);
    EXPECT_EQ(cells.size(), kNumStages * 3); // 5 stages x 3 CPUs
    for (const auto& c : cells) {
        const auto& r = c.result;
        EXPECT_NEAR(r.frontend + r.badSpeculation + r.backend +
                        r.retiring,
                    1.0, 1e-9);
    }
}

TEST(MemoryAnalysis, LoadShapesMatchFig5)
{
    SweepConfig small_cfg, big_cfg;
    small_cfg.sizes = {256};
    big_cfg.sizes = {2048};
    auto small = runMemoryAnalysis<Bn254>(small_cfg);
    auto big = runMemoryAnalysis<Bn254>(big_cfg);

    auto loads_of = [](const std::vector<MemoryCell>& cells, Stage s) {
        for (const auto& c : cells)
            if (c.stage == s)
                return c.loads;
        return 0.0;
    };

    for (const auto& c : big) {
        for (const auto& pc : c.perCpu) {
            EXPECT_GE(pc.mpki, 0.0);
            EXPECT_LE(pc.avgBandwidthGBps, 90.0);
        }
    }

    // Fig. 5: setup load volume grows with the constraint count and
    // dwarfs witness; verifying stays constant in n.
    EXPECT_GT(loads_of(big, Stage::Setup),
              4 * loads_of(small, Stage::Setup));
    EXPECT_GT(loads_of(big, Stage::Setup),
              50 * loads_of(big, Stage::Witness));
    EXPECT_LT(loads_of(big, Stage::Verifying),
              1.5 * loads_of(small, Stage::Verifying));
}

TEST(StrongScaling, ProvingParallelAndVerifyConstant)
{
    SweepConfig cfg;
    cfg.sizes = {1024};
    std::vector<unsigned> threads{1, 2, 4, 8, 16, 32};
    auto curves =
        runStrongScaling<Bn254>(cfg, threads, sim::cpuI9_13900K());
    ASSERT_EQ(curves.size(), kNumStages);

    double proving_frac = 0, verify_frac = 1;
    for (const auto& c : curves) {
        EXPECT_EQ(c.speedups.size(), threads.size());
        EXPECT_GE(c.fittedSerial, 0.0);
        EXPECT_LE(c.fittedSerial, 1.0);
        if (c.stage == Stage::Proving)
            proving_frac = c.measuredParallelFraction;
        if (c.stage == Stage::Verifying)
            verify_frac = c.measuredParallelFraction;
    }
    // KT5: proving has far more parallelism than verifying.
    EXPECT_GT(proving_frac, verify_frac);
    EXPECT_GT(proving_frac, 0.4);
}

TEST(WeakScaling, WitnessAndVerifyNearLinear)
{
    std::vector<unsigned> threads{1, 2, 4};
    auto curves =
        runWeakScaling<Bn254>(256, threads, sim::cpuI9_13900K());
    ASSERT_EQ(curves.size(), kNumStages);
    for (const auto& c : curves) {
        EXPECT_EQ(c.speedups.size(), threads.size());
        // WS speedup at 1 thread is 1 by construction.
        EXPECT_NEAR(c.speedups[0].second, 1.0, 0.25);
    }
}

TEST(BandwidthConcurrency, ParallelStagesSaturateCores)
{
    const auto& i9 = sim::cpuI9_13900K();
    EXPECT_GT(stageBandwidthConcurrency(Stage::Proving, i9),
              stageBandwidthConcurrency(Stage::Witness, i9));
    EXPECT_GE(stageBandwidthConcurrency(Stage::Witness, i9), 1.0);
}

TEST(CrossCurve, BlsPipelineRunsToo)
{
    StageRunner<Bls381> runner(16);
    runner.run(Stage::Verifying);
    EXPECT_TRUE(runner.lastVerifyOk());
}

} // namespace
} // namespace zkp::core
