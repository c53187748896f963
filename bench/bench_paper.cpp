/**
 * @file
 * E0–E14 — the paper's measurement artifacts from one driver: the
 * §IV-B execution-time breakdown, Figs. 4–7, Tables II–VI, the
 * methodology ablations, the §IV-A proving-scheme comparison, and the
 * paper's analyses re-run over the circuit zoo and the STARK prover.
 *
 *   bench_paper [--hw] [artifact...]
 *
 * An artifact is one of exec fig4 fig5 fig6 fig7 table2 table3 table4
 * table5 table6 ablation schemes zoo footprint stark; with none given,
 * all fifteen run. Each core analysis sweep runs at most once per
 * curve, and every selected artifact reads from that one result:
 *   - fig5, table2 and table3 share the memory sweep;
 *   - table4 and table5 share the code sweep;
 *   - fig6 and table6 share the strong-scaling sweep;
 *   - fig7 and table6 share the weak-scaling sweep.
 *
 * ablation (E10) runs on BN254 only: A4 times the simulator's counting
 * probe. schemes (E11) proves the exponentiation statement with
 * Groth16 and PlonK on both curves and, on BN254, an n-step MiMC STARK.
 *
 * zoo (E12), footprint (E13) and stark (E14) run on BN254 only. zoo and
 * footprint run one pipeline over each circuit-zoo entry at one scale
 * (kZooScales): compile, witness, Groth16 setup, prove and verify, then
 * the R1CS->PlonK lowering and, within 2^16 gates, PlonK setup, prove
 * and verify. An instance above 2^ZKP_MAX_LOG_N constraints prints as
 * skipped. zoo times that pipeline at x1, x2 and x4 scale with no
 * probes and observes the Groth16 proving stage on the modelled CPUs;
 * footprint reads the allocator counters around each setup and prove,
 * single-threaded with allocation tracking on. stark observes n-step
 * Fibonacci and MiMC STARK proves and the Groth16 proving stage at the
 * largest size through the same counters and cache models.
 *
 * A proof of schemes, zoo, footprint or stark that fails to verify
 * makes bench_paper exit 1 after printing.
 *
 * --hw swaps fig4, table2 and table3 for simulated-vs-PMU tables at the
 * largest size; one measured pipeline run per curve serves all three.
 * Without perf access it says why and prints the simulated tables.
 *
 * Environment: ZKP_MIN_LOG_N, ZKP_MAX_LOG_N and ZKP_REPEATS (see
 * bench_util.h), and ZKP_WS_BASE_LOG_N, the weak-scaling base size as
 * log2 (1–30, default 10; the paper starts at 2^13). All four are
 * checked before anything runs. The memory analyses trace every
 * access.
 */

#include <algorithm>
#include <map>
#include <type_traits>

#include "bench_util.h"
#include "ff/dispatch.h"
#include "obs/memprof.h"
#include "r1cs/zoo.h"
#include "snark/plonk.h"
#include "snark/plonk_from_r1cs.h"
#include "snark/serialize.h"
#include "stark/air.h"
#include "stark/serialize.h"
#include "stark/stark.h"

namespace zkp::bench {
namespace {

using core::kNumStages;
using core::Stage;

enum Artifact : std::size_t
{
    kExec,
    kFig4,
    kFig5,
    kFig6,
    kFig7,
    kTable2,
    kTable3,
    kTable4,
    kTable5,
    kTable6,
    kAblation,
    kSchemes,
    kZoo,
    kFootprint,
    kProverMix,
    kNumArtifacts
};

struct ArtifactInfo
{
    const char* name;
    const char* what;
};

const std::array<ArtifactInfo, kNumArtifacts> kArtifacts{{
    {"exec", "E0 §IV-B: stage elapsed times"},
    {"fig4", "E1 Fig. 4: top-down analysis across the three modelled "
             "CPUs"},
    {"fig5", "E2 Fig. 5: memory reference volume per stage"},
    {"fig6", "E7 Fig. 6: speedup vs threads (fixed problem size)"},
    {"fig7", "E8 Fig. 7: threads and constraints double together"},
    {"table2", "E3 Table II: max LLC load MPKI per stage (max over the "
               "size sweep)"},
    {"table3", "E4 Table III: max DRAM bandwidth per stage (avg of the 3 "
               "modelled CPUs)"},
    {"table4", "E5 Table IV: function-level code analysis (calibrated "
               "attribution)"},
    {"table5", "E6 Table V: instruction-class mix per stage (avg over "
               "sizes)"},
    {"table6", "E9 Table VI: Amdahl/Gustafson serial-parallel split (i9 "
               "model)"},
    {"ablation", "E10 methodology ablation: counting probe cost"},
    {"schemes", "E11 §IV-A: Groth16 vs PlonK vs transparent STARK"},
    {"zoo", "E12: the prove-stage analyses and pipeline times over the "
            "circuit zoo"},
    {"footprint", "E13: allocation and peak-RSS growth per zoo circuit, "
                  "scheme and phase"},
    {"stark", "E14: STARK vs Groth16 prover opcode mix and LLC MPKI"},
}};

using Selection = std::array<bool, kNumArtifacts>;

/** Thread counts of Fig. 6, reused by Table VI's Amdahl fit. */
const std::vector<unsigned> kStrongThreads{1, 2, 4, 8, 12, 18, 24, 32};
/** Thread counts of Fig. 7 and Table VI's Gustafson fit. */
const std::vector<unsigned> kWeakThreads{1, 2, 4, 8, 16, 32};

/** The paper's published values, printed beside the measured ones. */
struct PaperValues
{
    template <std::size_t N>
    using PerStage = std::array<std::array<const char*, N>, kNumStages>;

    /// E0: share of total pipeline time, all sizes.
    std::array<const char*, kNumStages> execShare;
    /// Fig. 5: setup/witness loads, proving/witness loads, setup
    /// loads/stores.
    std::array<const char*, 3> fig5Ratios;
    const char* fig6;
    const char* fig7;
    const char* table4;
    const char* schemes;
    /// i7-BN, i7-BLS, i5-BN, i5-BLS, i9-BN, i9-BLS max MPKI.
    PerStage<6> table2;
    /// GB/s per stage: BN, then BLS.
    std::array<std::array<const char*, kNumStages>, 2> table3;
    /// BN Comp/Ctrl/Data %, then BLS.
    PerStage<6> table5;
    /// Serial, then parallel %: SS-BN, SS-BLS, WS-BN, WS-BLS.
    PerStage<8> table6;
};

const PaperValues kPaper{
    .execShare = {"-", "76.1%", "-", "13.4%", "-"},
    .fig5Ratios = {"~1000x", "~100x", "~10x"},
    .fig6 = "paper reference (2^18): setup ~5.26x, proving ~3.51x; "
            "compile/witness saturate ~2x; verifying flat",
    .fig7 = "paper reference: witness/verifying near-linear WS speedup; "
            "proving the most scalable compute stage",
    .table4 = "paper reference: compile ~12% malloc, ~8% memcpy, ~5% "
              "bigint; proving ~10% memcpy; verifying ~10% bigint",
    .schemes = "paper reference (§IV-A): PlonK proving is about 2x "
               "slower than Groth16",
    .table2 = {{
        {"0.32", "0.34", "0.32", "0.22", "0.18", "0.22"},
        {"0.04", "0.03", "0.08", "0.06", "0.05", "0.03"},
        {"0.62", "0.47", "0.28", "0.40", "0.29", "1.03"},
        {"0.17", "0.14", "0.48", "0.34", "0.45", "0.28"},
        {"0.15", "0.10", "0.20", "0.16", "0.15", "0.15"},
    }},
    .table3 = {{
        {"10.30", "23.40", "2.70", "25.00", "5.20"},
        {"11.50", "20.20", "2.80", "22.90", "4.40"},
    }},
    .table5 = {{
        {"32.68", "28.99", "38.33", "38.68", "20.42", "40.89"},
        {"42.60", "20.16", "37.24", "42.53", "20.36", "37.10"},
        {"35.96", "29.49", "34.55", "39.16", "28.26", "32.57"},
        {"40.96", "22.69", "36.35", "53.66", "16.27", "30.07"},
        {"46.66", "24.81", "28.53", "49.75", "23.04", "27.21"},
    }},
    .table6 = {{
        {"58.09", "41.90", "62.50", "37.49", "69.65", "30.35", "71.98",
         "28.02"},
        {"41.35", "58.64", "68.30", "31.69", "73.59", "26.41", "75.11",
         "24.89"},
        {"31.73", "68.26", "50.17", "49.82", "3.59", "96.41", "7.75",
         "92.25"},
        {"27.28", "72.71", "31.06", "68.93", "29.57", "70.43", "25.38",
         "74.62"},
        {"43.68", "56.31", "57.56", "42.43", "1.00", "99.00", "1.00",
         "99.00"},
    }},
};

/** One value per stage, in core::kAllStages order. */
using StageValues = std::array<double, kNumStages>;

enum Scheme : std::size_t
{
    kGroth16,
    kPlonk,
    kStark,
    kNumSchemes
};

const std::array<const char*, kNumSchemes> kSchemeNames{"groth16", "plonk",
                                                        "stark"};

/** One scheme at one size: mean wall seconds over repeats() (E11). */
struct SchemeTimes
{
    double setup = 0, prove = 0, verify = 0;
    std::size_t proofBytes = 0;
    bool verified = true;
};

/** E12/E13: the scale of each zoo entry; E12's times add x2 and x4. */
const std::array<std::pair<const char*, std::size_t>, 7> kZooScales{{
    {"exp", 1024},
    {"mimc", 2},
    {"poseidon", 4},
    {"sha256", 1},
    {"merkle", 4},
    {"range", 16},
    {"schnorr", 1},
}};

/** The zoo pipeline runs PlonK only up to this many lowered gates. */
constexpr std::size_t kPlonkGateBudget = std::size_t(1) << 16;

/** The measured phases of the zoo pipeline (runZoo), in run order. */
enum ZooPhase : std::size_t
{
    kCompile,
    kWitness,
    kG16Setup,
    kG16Prove,
    kG16Verify,
    kPlonkSetup,
    kPlonkProve,
    kPlonkVerify,
    kNumZooPhases
};

/** One zoo instance through both schemes; M is one phase's measure. */
template <typename M>
struct ZooRun
{
    std::string circuit;
    std::size_t scale = 0;
    std::size_t constraints = 0;
    /// Above the size limit: nothing ran.
    bool skipped = false;
    /// Lowered PlonK gates; the PlonK phases ran when within budget.
    std::size_t gates = 0;
    bool plonkRan = false;
    bool verified = true;
    std::array<M, kNumZooPhases> phase{};
};

/** E14: one prover's counters and what each modelled CPU saw. */
struct ProverObservation
{
    std::string label;
    sim::Counters counters;
    std::vector<core::CpuObservation> cpus;
};

/** Everything one curve's selected artifacts read. */
struct Sweeps
{
    const char* curve = "";
    /// Mean wall seconds per stage, one entry per swept size (E0).
    std::vector<StageValues> execSeconds;
    std::vector<core::TopDownCell> topDown;
    std::vector<core::MemoryCell> memory;
    std::vector<core::CodeCell> code;
    std::vector<core::StrongScalingCurve> strong;
    std::vector<core::WeakScalingCurve> weak;
    /// PMU statistics per stage at the largest size (--hw).
    std::array<obs::pmu::HwStats, kNumStages> hw{};
    /// E11 per swept size, by Scheme; kStark is empty off BN254.
    std::vector<std::array<SchemeTimes, kNumSchemes>> schemes;
    /// E10 A4 (BN254): ns per Fq multiply, counting off then on.
    std::array<double, 2> probeNs{};
    /// E12 (BN254): the observed Groth16 proving stage of each
    /// kZooScales instance (empty when skipped), then the timed
    /// pipeline at x1, x2 and x4 scale.
    std::vector<std::optional<core::StageObservation>> zooProve;
    std::vector<ZooRun<double>> zooTimes;
    /// E13 (BN254): the allocator deltas of the kZooScales pipelines.
    std::vector<ZooRun<obs::memprof::StageMem>> footprint;
    /// E14 (BN254): the Fibonacci and MiMC STARK provers, then Groth16.
    std::vector<ProverObservation> provers;
    /// False when a proof of schemes, zoo, footprint or stark failed
    /// to verify.
    bool verified = true;
};

std::string
pow2(std::size_t n)
{
    return "2^" + std::to_string(log2Of(n));
}

/** E0: each stage timed on one runner per size, averaged over repeats. */
template <typename Curve>
std::vector<StageValues>
timeStages(const std::vector<std::size_t>& sizes)
{
    const unsigned reps = repeats();
    std::vector<StageValues> out;
    for (std::size_t n : sizes) {
        core::StageRunner<Curve> runner(n);
        StageValues secs{};
        for (Stage s : core::kAllStages) {
            double sum = 0;
            for (unsigned r = 0; r < reps; ++r)
                sum += runner.run(s).seconds;
            secs[(std::size_t)s] = sum / reps;
        }
        out.push_back(secs);
    }
    return out;
}

/**
 * @p setup, @p prove and @p verify run in turn repeats() times, each
 * proof against its own keys; the means go in the result. A failed
 * verify clears `verified`.
 */
template <typename Setup, typename Prove, typename Verify, typename Bytes>
SchemeTimes
timeScheme(Setup setup, Prove prove, Verify verify, Bytes bytes)
{
    const unsigned reps = repeats();
    SchemeTimes t;
    for (unsigned r = 0; r < reps; ++r) {
        Timer timer;
        const auto keys = setup();
        t.setup += timer.lap();
        const auto proof = prove(keys);
        t.prove += timer.lap();
        t.verified &= verify(keys, proof);
        t.verify += timer.lap();
        t.proofBytes = bytes(proof);
    }
    t.setup /= reps;
    t.prove /= reps;
    t.verify /= reps;
    return t;
}

/**
 * E11: Groth16 on ExponentiationCircuit and PlonK on PlonkExponentiation
 * at each size, both proving y = x^n; with @p stark, also an n-step
 * MiMC STARK, which has no setup. The STARK and the SNARKs share no
 * statement, so the rows align on work size: one algebraic hash-like
 * operation per constraint or trace row.
 */
template <typename Curve>
std::vector<std::array<SchemeTimes, kNumSchemes>>
runSchemes(const std::vector<std::size_t>& sizes, bool stark)
{
    using Fr = typename Curve::Fr;
    using G = snark::Groth16<Curve>;
    using P = snark::Plonk<Curve>;
    std::vector<std::array<SchemeTimes, kNumSchemes>> out;
    for (std::size_t n : sizes) {
        Rng rng(2024);
        const Fr x = Fr::random(rng);
        auto& row = out.emplace_back();

        r1cs::ExponentiationCircuit<Fr> gcirc(n);
        const auto cs = gcirc.builder.compile();
        const std::vector<Fr> pub{gcirc.evaluate(x)};
        const auto z =
            r1cs::WitnessCalculator<Fr>(gcirc.builder.witnessProgram())
                .compute(pub, {x});
        row[kGroth16] = timeScheme(
            [&] { return G::setup(cs, rng); },
            [&](const auto& keys) { return G::prove(keys.pk, cs, z, rng); },
            [&](const auto& keys, const auto& proof) {
                return G::verify(keys.vk, pub, proof);
            },
            [](const auto& proof) {
                return snark::serializeProof<Curve>(proof).size();
            });

        snark::PlonkExponentiation<Fr> pcirc(n);
        const auto values = pcirc.assign(x);
        row[kPlonk] = timeScheme(
            [&] { return P::setup(pcirc.builder, rng); },
            [&](const auto& keys) {
                return P::prove(keys.pk, values, pub, rng);
            },
            [&](const auto& keys, const auto& proof) {
                return P::verify(keys.vk, pub, proof);
            },
            [](const auto& proof) {
                return snark::serializePlonkProof<Curve>(proof).size();
            });

        if (stark) {
            const stark::MimcAir air(n, stark::Gl::fromU64(7));
            const stark::StarkParams params{};
            row[kStark] = timeScheme(
                [] { return 0; },
                [&](int) { return stark::prove(air, params, 1); },
                [&](int, const auto& proof) {
                    return stark::verify(air, params, proof);
                },
                [](const auto& proof) {
                    return stark::proofByteSize(proof);
                });
        }
        for (std::size_t s = 0; s < kNumSchemes; ++s)
            if (!row[s].verified)
                std::fprintf(stderr, "bench_paper: %s proof at n=2^%u "
                                     "failed to verify (%s sweep)\n",
                             kSchemeNames[s], log2Of(n), Curve::kName);
    }
    return out;
}

/**
 * E10 A4: ns per multiply of a dependent BN254 Fq multiply chain with
 * counting off, which is what every prove outside an analysis runs,
 * then inside a CountingScope, which is what StageRunner's stages run.
 * The two alternate and each keeps its fastest of five, so a slow
 * spell on a shared host does not land on one side only.
 */
std::array<double, 2>
probeCost()
{
    using Fq = ff::bn254::Fq;
    Rng rng(12);
    const Fq b = Fq::random(rng);
    auto chainNs = [&] {
        Fq a = Fq::random(rng);
        const std::size_t iters = 2'000'000;
        Timer t;
        for (std::size_t i = 0; i < iters; ++i)
            a = a * b;
        const double ns = t.nanos() / iters;
        if (a.isZero())
            std::printf("!! ablation multiply chain hit zero\n");
        return ns;
    };
    std::array<double, 2> ns{1e300, 1e300};
    for (int rep = 0; rep < 5; ++rep) {
        ns[0] = std::min(ns[0], chainNs());
        const sim::CountingScope counting;
        ns[1] = std::min(ns[1], chainNs());
    }
    return ns;
}

/**
 * E12/E13: zoo entry @p name at @p scale through Groth16 and, within
 * kPlonkGateBudget lowered gates, PlonK, on one thread. @p measure runs
 * each phase and returns what it measured. An instance above @p limit
 * constraints is skipped.
 */
template <typename Curve, typename Measure>
auto
runZoo(const char* name, std::size_t scale, std::size_t limit,
       Measure measure)
{
    using Fr = typename Curve::Fr;
    using G = snark::Groth16<Curve>;
    using P = snark::Plonk<Curve>;
    const r1cs::zoo::Entry<Fr>& e = *r1cs::zoo::find<Fr>(name);
    ZooRun<decltype(measure([] {}))> out;
    out.circuit = name;
    out.scale = scale;
    out.constraints = e.predictedConstraints(scale);
    out.skipped = out.constraints > limit;
    if (out.skipped)
        return out;

    Rng rng(0x6d656d66u);
    r1cs::CircuitBuilder<Fr> builder;
    r1cs::R1cs<Fr> cs;
    out.phase[kCompile] = measure([&] {
        builder = e.build(scale);
        cs = builder.compile();
    });
    const r1cs::WitnessCalculator<Fr> calc(builder.witnessProgram());
    const auto w = e.sample(scale, rng);
    std::vector<Fr> z;
    out.phase[kWitness] =
        measure([&] { z = calc.compute(w.pub, w.priv); });
    typename G::Keypair keys;
    out.phase[kG16Setup] = measure([&] { keys = G::setup(cs, rng); });
    typename G::Proof proof;
    out.phase[kG16Prove] =
        measure([&] { proof = G::prove(keys.pk, cs, z, rng); });
    out.phase[kG16Verify] = measure(
        [&] { out.verified = G::verify(keys.vk, w.pub, proof); });

    const snark::PlonkFromR1cs<Fr> lowered(cs);
    out.gates = lowered.builder.numGates();
    out.plonkRan = out.gates <= kPlonkGateBudget;
    if (!out.plonkRan)
        return out;
    typename P::Keypair pkeys;
    out.phase[kPlonkSetup] =
        measure([&] { pkeys = P::setup(lowered.builder, rng); });
    const auto values = lowered.assign(z);
    typename P::Proof pproof;
    out.phase[kPlonkProve] = measure(
        [&] { pproof = P::prove(pkeys.pk, values, w.pub, rng); });
    out.phase[kPlonkVerify] = measure(
        [&] { out.verified &= P::verify(pkeys.vk, w.pub, pproof); });
    return out;
}

/** When @p ok is false, name @p what on stderr and fail the run. */
void
checkVerified(Sweeps& out, bool ok, const std::string& what)
{
    if (ok)
        return;
    std::fprintf(stderr, "bench_paper: %s: a proof failed to verify\n",
                 what.c_str());
    out.verified = false;
}

/**
 * E12: the Groth16 proving stage of every kZooScales instance within
 * @p cfg's largest size, observed on the modelled CPUs and verified,
 * then the unprobed pipeline times at x1, x2 and x4 scale.
 */
template <typename Curve>
void
runZooSweep(const core::SweepConfig& cfg, Sweeps& out)
{
    using Fr = typename Curve::Fr;
    const std::size_t limit = cfg.sizes.back();
    for (const auto& [name, scale] : kZooScales) {
        auto& obs = out.zooProve.emplace_back();
        const auto& e = *r1cs::zoo::find<Fr>(name);
        if (e.predictedConstraints(scale) > limit)
            continue;
        core::StageRunner<Curve> runner(e, scale);
        obs = core::observeStage(runner, Stage::Proving, cfg);
        runner.run(Stage::Verifying);
        checkVerified(out, runner.lastVerifyOk(),
                      std::string("zoo ") + name);
    }
    const auto seconds = [](auto&& phase) {
        Timer t;
        phase();
        return t.seconds();
    };
    for (const auto& [name, scale] : kZooScales) {
        for (std::size_t mult : {1, 2, 4}) {
            const auto& run = out.zooTimes.emplace_back(
                runZoo<Curve>(name, scale * mult, limit, seconds));
            checkVerified(out, run.verified,
                          "zoo " + run.circuit + " scale " +
                              std::to_string(run.scale));
        }
    }
}

/**
 * E13: the kZooScales pipelines up to @p limit constraints with
 * allocation tracking on, each phase bracketed by a memprof snapshot.
 * The one-time derivations run first, so no row is charged for them.
 */
template <typename Curve>
void
runFootprint(std::size_t limit, Sweeps& out)
{
    const bool was_tracking = obs::memprof::tracking();
    if (!obs::memprof::setTracking(true))
        std::printf("bench_paper footprint: allocation tracking "
                    "unavailable, so the alloc columns read 0\n");
    core::prewarm<Curve>();
    const auto mem = [](auto&& phase) {
        const obs::memprof::Snapshot before = obs::memprof::snapshot();
        phase();
        return obs::memprof::stageDelta(before, 0);
    };
    for (const auto& [name, scale] : kZooScales) {
        const auto& run = out.footprint.emplace_back(
            runZoo<Curve>(name, scale, limit, mem));
        checkVerified(out, run.verified, "footprint " + run.circuit);
    }
    obs::memprof::setTracking(was_tracking);
}

/**
 * E14: an n-step Fibonacci and MiMC STARK prove, then the Groth16
 * proving stage at n = @p cfg's largest size, each counted and traced
 * into the modelled CPUs, and each proof verified.
 */
template <typename Curve>
void
observeProvers(const core::SweepConfig& cfg, Sweeps& out)
{
    const std::size_t n = cfg.sizes.back();
    const stark::StarkParams params{};
    const stark::FibonacciAir fib(n, stark::Gl::fromU64(1),
                                  stark::Gl::fromU64(1));
    const stark::MimcAir mimc(n, stark::Gl::fromU64(7));
    for (const stark::Air* air : {(const stark::Air*)&fib,
                                  (const stark::Air*)&mimc}) {
        ProverObservation& obs = out.provers.emplace_back();
        obs.label = "stark " + air->name() + " " + pow2(n);
        stark::StarkProof proof;
        {
            const core::CpuSinks sinks;
            const sim::CountingScope counting;
            const sim::Counters before = sim::counters();
            proof = stark::prove(*air, params, cfg.threads, sinks.sinks());
            obs.counters = sim::counters() - before;
            obs.cpus = sinks.observations();
        }
        checkVerified(out, stark::verify(*air, params, proof), obs.label);
    }

    core::StageRunner<Curve> runner(n);
    const core::StageObservation g =
        core::observeStage(runner, Stage::Proving, cfg);
    out.provers.push_back(
        {"groth16 prove " + pow2(n), g.run.counters, g.cpus});
    runner.run(Stage::Verifying);
    checkVerified(out, runner.lastVerifyOk(), out.provers.back().label);
}

/**
 * Run every pipeline stage once at size @p n with real PMU counters.
 * Stats report available=false when the machine denies perf access.
 */
template <typename Curve>
std::array<obs::pmu::HwStats, kNumStages>
measureHwStages(std::size_t n)
{
    std::array<obs::pmu::HwStats, kNumStages> out{};
    core::StageRunner<Curve> runner(n);
    for (Stage s : core::kAllStages)
        out[(std::size_t)s] = runner.run(s, 1).hw;
    return out;
}

/**
 * Run each sweep the selected artifacts need, once. In --hw mode
 * (@p hw) fig4, table2 and table3 read only the largest size; the
 * weak-scaling sweep starts at @p ws_base constraints.
 */
template <typename Curve>
Sweeps
runSweeps(const Selection& want, bool hw,
          const std::vector<std::size_t>& sizes, std::size_t ws_base)
{
    const std::vector<std::size_t> largest{sizes.back()};
    const sim::CpuModel& i9 = sim::cpuI9_13900K();
    Sweeps out;
    out.curve = Curve::kName;

    core::SweepConfig cfg;
    // E10 and E12-E14, and the STARK column of E11, run on BN254 only.
    // E13 and E14 run first, so a one-time derivation (a fixed-base
    // table, a field's two-adicity data) lands in the same cell
    // whatever else is selected.
    constexpr bool bn254 = std::is_same_v<Curve, snark::Bn254>;
    if (want[kFootprint] && bn254)
        runFootprint<Curve>(sizes.back(), out);
    if (want[kProverMix] && bn254) {
        cfg.sizes = largest;
        observeProvers<Curve>(cfg, out);
    }
    if (want[kZoo] && bn254) {
        cfg.sizes = largest;
        runZooSweep<Curve>(cfg, out);
    }
    if (want[kExec])
        out.execSeconds = timeStages<Curve>(sizes);
    if (want[kFig4]) {
        cfg.sizes = hw ? largest : sizes;
        out.topDown = core::runTopDownAnalysis<Curve>(cfg);
    }
    if (want[kFig5] || want[kTable2] || want[kTable3]) {
        cfg.sizes = want[kFig5] || !hw ? sizes : largest;
        out.memory = core::runMemoryAnalysis<Curve>(cfg);
    }
    if (want[kTable4] || want[kTable5]) {
        cfg.sizes = want[kTable5] ? sizes : largest;
        out.code = core::runCodeAnalysis<Curve>(cfg);
    }
    if (want[kFig6] || want[kTable6]) {
        cfg.sizes = sizes;
        out.strong =
            core::runStrongScaling<Curve>(cfg, kStrongThreads, i9);
    }
    if (want[kFig7] || want[kTable6])
        out.weak = core::runWeakScaling<Curve>(ws_base, kWeakThreads, i9);
    if (hw && (want[kFig4] || want[kTable2] || want[kTable3]))
        out.hw = measureHwStages<Curve>(sizes.back());
    if (want[kSchemes]) {
        out.schemes = runSchemes<Curve>(sizes, bn254);
        for (const auto& row : out.schemes)
            for (const SchemeTimes& t : row)
                out.verified &= t.verified;
    }
    if (want[kAblation] && bn254)
        out.probeNs = probeCost();
    return out;
}

/** Print a paper table: one row per stage, in kAllStages order. */
template <std::size_t N>
void
printPaperTable(const char* title, std::vector<std::string> header,
                const PaperValues::PerStage<N>& rows)
{
    TextTable paper;
    paper.setHeader(std::move(header));
    for (Stage s : core::kAllStages) {
        std::vector<std::string> row{core::stageName(s)};
        for (const char* v : rows[(std::size_t)s])
            row.push_back(v);
        paper.addRow(row);
    }
    printTable(title, paper);
}

void
printExec(const Sweeps& sw, const std::vector<std::size_t>& sizes)
{
    TextTable table;
    table.setHeader({"constraints", "compile", "setup", "witness",
                     "proving", "verifying", "total"});
    StageValues stage_totals{};
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const StageValues& secs = sw.execSeconds[i];
        double total = 0;
        for (std::size_t s = 0; s < kNumStages; ++s) {
            stage_totals[s] += secs[s];
            total += secs[s];
        }
        table.addRow({pow2(sizes[i]), fmtSeconds(secs[0]),
                      fmtSeconds(secs[1]), fmtSeconds(secs[2]),
                      fmtSeconds(secs[3]), fmtSeconds(secs[4]),
                      fmtSeconds(total)});
    }
    printTable(std::string("E0 execution time per stage, ") + sw.curve,
               table);

    double grand = 0;
    for (double v : stage_totals)
        grand += v;
    TextTable share;
    share.setHeader({"stage", "share of pipeline",
                     "paper (all sizes)"});
    for (Stage s : core::kAllStages) {
        share.addRow({core::stageName(s),
                      fmtPct(stage_totals[(std::size_t)s] / grand, 1),
                      kPaper.execShare[(std::size_t)s]});
    }
    printTable(std::string("E0 stage share of total time, ") + sw.curve,
               share);
}

void
printFig4(const Sweeps& sw)
{
    TextTable table;
    table.setHeader({"stage", "n", "cpu", "front-end", "bad-spec",
                     "back-end", "retiring", "bound"});
    for (const auto& c : sw.topDown) {
        table.addRow({core::stageName(c.stage), pow2(c.constraints),
                      c.cpu, fmtPct(c.result.frontend, 1),
                      fmtPct(c.result.badSpeculation, 1),
                      fmtPct(c.result.backend, 1),
                      fmtPct(c.result.retiring, 1),
                      c.result.boundCategory()});
    }
    printTable(std::string("Fig.4 top-down slot classification, ") +
                   sw.curve,
               table);

    // Dominant bucket summary across sizes (the Fig. 4 story).
    TextTable summary;
    summary.setHeader({"stage", "i7-8650U", "i5-11400", "i9-13900K"});
    for (Stage s : core::kAllStages) {
        std::array<std::string, 3> dominant;
        for (const auto& c : sw.topDown) {
            if (c.stage != s)
                continue;
            std::size_t idx = c.cpu == "i7-8650U"  ? 0
                              : c.cpu == "i5-11400" ? 1
                                                    : 2;
            dominant[idx] = c.result.boundCategory(); // last size wins
        }
        summary.addRow({core::stageName(s), dominant[0], dominant[1],
                        dominant[2]});
    }
    printTable(std::string("Fig.4 dominant bucket per CPU (largest n), ") +
                   sw.curve,
               summary);
}

/**
 * --hw: simulated vs measured top-down level-1 classification. The
 * measured fractions come from the PERF_METRICS top-down events (Intel
 * Ice Lake and newer); without them the table still shows measured IPC
 * next to the simulated slot split.
 */
void
printFig4Hw(const Sweeps& sw, std::size_t n)
{
    TextTable table;
    table.setHeader({"stage", "source", "front-end", "bad-spec",
                     "back-end", "retiring", "IPC"});
    for (Stage s : core::kAllStages) {
        for (const auto& c : sw.topDown) {
            if (c.stage != s || c.constraints != n ||
                c.cpu != "i9-13900K")
                continue;
            table.addRow({core::stageName(s), "sim i9",
                          fmtPct(c.result.frontend, 1),
                          fmtPct(c.result.badSpeculation, 1),
                          fmtPct(c.result.backend, 1),
                          fmtPct(c.result.retiring, 1), "-"});
        }
        const obs::pmu::HwStats& hw = sw.hw[(std::size_t)s];
        if (hw.available && hw.topdownValid) {
            table.addRow({"", "measured", fmtPct(hw.tdFeBound, 1),
                          fmtPct(hw.tdBadSpec, 1),
                          fmtPct(hw.tdBeBound, 1),
                          fmtPct(hw.tdRetiring, 1), fmtF(hw.ipc, 2)});
        } else {
            table.addRow({"", "measured", "n/a", "n/a", "n/a", "n/a",
                          hw.available ? fmtF(hw.ipc, 2) : "n/a"});
        }
    }
    printTable(std::string("Fig.4 --hw: top-down L1 slots, sim vs "
                           "perf_event, n=") +
                   pow2(n) + ", " + sw.curve,
               table);
}

/** The memory cell of @p s at size @p n. */
const core::MemoryCell&
memoryCell(const std::vector<core::MemoryCell>& cells, Stage s,
           std::size_t n)
{
    return *std::find_if(cells.begin(), cells.end(),
                         [&](const core::MemoryCell& c) {
                             return c.stage == s && c.constraints == n;
                         });
}

/** The statistics of CPU model @p cpu in @p cell. */
const core::MemoryCell::PerCpu&
onCpu(const core::MemoryCell& cell, const char* cpu)
{
    return *std::find_if(cell.perCpu.begin(), cell.perCpu.end(),
                         [&](const auto& pc) { return pc.cpu == cpu; });
}

void
printFig5(const Sweeps& bn, const Sweeps& bls,
          const std::vector<std::size_t>& sizes)
{
    for (const bool loads : {true, false}) {
        TextTable table;
        table.setHeader({"stage", "n", "BN128", "BLS12-381", "avg"});
        for (Stage s : core::kAllStages) {
            for (std::size_t n : sizes) {
                const auto& a = memoryCell(bn.memory, s, n);
                const auto& b = memoryCell(bls.memory, s, n);
                const double x = loads ? a.loads : a.stores;
                const double y = loads ? b.loads : b.stores;
                table.addRow({core::stageName(s), pow2(n),
                              fmtCount((unsigned long long)x),
                              fmtCount((unsigned long long)y),
                              fmtCount((unsigned long long)((x + y) / 2))});
            }
        }
        printTable(std::string("Fig.5 ") + (loads ? "loads" : "stores") +
                       " per stage",
                   table);
    }

    // Ratio summary at the largest size (the paper's headline shape).
    const std::size_t last = sizes.back();
    auto avg_loads = [&](Stage s) {
        return (memoryCell(bn.memory, s, last).loads +
                memoryCell(bls.memory, s, last).loads) /
               2.0;
    };
    auto avg_stores = [&](Stage s) {
        return (memoryCell(bn.memory, s, last).stores +
                memoryCell(bls.memory, s, last).stores) /
               2.0;
    };
    TextTable ratios;
    ratios.setHeader({"ratio", "measured", "paper"});
    ratios.addRow({"setup loads / witness loads",
                   fmtF(avg_loads(Stage::Setup) /
                            avg_loads(Stage::Witness),
                        0),
                   kPaper.fig5Ratios[0]});
    ratios.addRow({"proving loads / witness loads",
                   fmtF(avg_loads(Stage::Proving) /
                            avg_loads(Stage::Witness),
                        0),
                   kPaper.fig5Ratios[1]});
    ratios.addRow({"setup loads / setup stores",
                   fmtF(avg_loads(Stage::Setup) /
                            avg_stores(Stage::Setup),
                        1),
                   kPaper.fig5Ratios[2]});
    printTable("Fig.5 headline ratios at largest n", ratios);
}

/**
 * The parallelizable share of every stage is measured (wall time
 * inside parallel regions); the projection to k threads applies the
 * work/span model with the i9's P/E/SMT capacity curve, so the host
 * need not have 32 hardware threads (see EXPERIMENTS.md).
 */
void
printFig6(const Sweeps& sw)
{
    TextTable table;
    std::vector<std::string> header{"stage", "n", "par%"};
    for (unsigned t : kStrongThreads)
        header.push_back("x" + std::to_string(t));
    table.setHeader(header);
    for (const auto& c : sw.strong) {
        std::vector<std::string> row{
            core::stageName(c.stage), pow2(c.constraints),
            fmtF(100 * c.measuredParallelFraction, 1)};
        for (const auto& [t, sp] : c.speedups)
            row.push_back(fmtF(sp, 2));
        table.addRow(row);
    }
    printTable(std::string("Fig.6 strong-scaling speedup on the i9 "
                           "model, ") +
                   sw.curve,
               table);
}

void
printFig7(const Sweeps& sw)
{
    const std::size_t base = sw.weak.front().baseConstraints;
    TextTable table;
    std::vector<std::string> header{"stage"};
    for (unsigned t : kWeakThreads) {
        header.push_back("x" + std::to_string(t) + " (n=" +
                         pow2(base * t) + ")");
    }
    header.push_back("Gustafson serial%");
    table.setHeader(header);
    for (const auto& c : sw.weak) {
        std::vector<std::string> row{core::stageName(c.stage)};
        for (const auto& [t, sp] : c.speedups)
            row.push_back(fmtF(sp, 2));
        row.push_back(fmtF(100 * c.fittedSerial, 1));
        table.addRow(row);
    }
    printTable(std::string("Fig.7 weak-scaling speedup on the i9 "
                           "model, ") +
                   sw.curve,
               table);
}

/** Max over the size sweep of each (stage, cpu)'s LLC load MPKI. */
std::map<std::pair<Stage, std::string>, double>
maxMpki(const Sweeps& sw)
{
    std::map<std::pair<Stage, std::string>, double> out;
    for (const auto& c : sw.memory) {
        for (const auto& pc : c.perCpu) {
            double& slot = out[{c.stage, pc.cpu}];
            slot = std::max(slot, pc.mpki);
        }
    }
    return out;
}

void
printTable2(const Sweeps& bn, const Sweeps& bls)
{
    auto bn_mpki = maxMpki(bn);
    auto bls_mpki = maxMpki(bls);
    const std::vector<std::string> header{
        "stage", "i7-BN", "i7-BLS", "i5-BN", "i5-BLS", "i9-BN", "i9-BLS"};
    TextTable table;
    table.setHeader(header);
    for (Stage s : core::kAllStages) {
        std::vector<std::string> row{core::stageName(s)};
        for (const char* cpu : {"i7-8650U", "i5-11400", "i9-13900K"}) {
            row.push_back(fmtF(bn_mpki[{s, cpu}], 3));
            row.push_back(fmtF(bls_mpki[{s, cpu}], 3));
        }
        table.addRow(row);
    }
    printTable("Table II: LLC load MPKI (simulated hierarchies)", table);
    printPaperTable("Table II (paper, for comparison)", header,
                    kPaper.table2);
}

/**
 * --hw: simulated vs measured LLC load MPKI at one size, so the
 * simulator's calibration error is a printed number. Simulated values
 * come from the three modelled hierarchies; measured ones from
 * perf_event LLC-load/LLC-load-miss counters on this machine.
 */
void
printTable2Hw(const Sweeps& sw, std::size_t n)
{
    TextTable table;
    table.setHeader({"stage", "sim i7", "sim i5", "sim i9", "measured",
                     "i9/hw"});
    for (Stage s : core::kAllStages) {
        const core::MemoryCell& cell = memoryCell(sw.memory, s, n);
        const double i9 = onCpu(cell, "i9-13900K").mpki;
        const obs::pmu::HwStats& hw = sw.hw[(std::size_t)s];
        const double hw_mpki = hw.llcLoadMpki;
        table.addRow({core::stageName(s),
                      fmtF(onCpu(cell, "i7-8650U").mpki, 3),
                      fmtF(onCpu(cell, "i5-11400").mpki, 3), fmtF(i9, 3),
                      hw.available ? fmtF(hw_mpki, 3) : "n/a",
                      hw.available && hw_mpki > 0
                          ? fmtF(i9 / hw_mpki, 2)
                          : "n/a"});
    }
    printTable(std::string("Table II --hw: LLC load MPKI, "
                           "sim vs perf_event, n=") +
                   pow2(n) + ", " + sw.curve,
               table);
}

/**
 * Per stage: max over sizes of each CPU's max bandwidth, then the
 * average over the CPUs (the paper's Table III convention).
 */
StageValues
avgMaxBandwidth(const Sweeps& sw)
{
    std::map<std::string, std::array<double, kNumStages>> per_cpu;
    for (const auto& c : sw.memory)
        for (const auto& pc : c.perCpu) {
            auto& arr = per_cpu[pc.cpu];
            arr[(std::size_t)c.stage] = std::max(
                arr[(std::size_t)c.stage], pc.maxBandwidthGBps);
        }

    StageValues avg{};
    for (const auto& [cpu, arr] : per_cpu)
        for (std::size_t s = 0; s < kNumStages; ++s)
            avg[s] += arr[s] / per_cpu.size();
    return avg;
}

void
printTable3(const Sweeps& bn, const Sweeps& bls)
{
    TextTable table;
    table.setHeader({"EC", "compile", "setup", "witness", "proving",
                     "verifying"});
    for (const Sweeps* sw : {&bn, &bls}) {
        std::vector<std::string> row{sw == &bn ? "BN (GB/s)"
                                               : "BLS (GB/s)"};
        for (double v : avgMaxBandwidth(*sw))
            row.push_back(fmtF(v, 2));
        table.addRow(row);
    }
    for (std::size_t i = 0; i < 2; ++i) {
        std::vector<std::string> row{i == 0 ? "paper BN" : "paper BLS"};
        row.insert(row.end(), kPaper.table3[i].begin(),
                   kPaper.table3[i].end());
        table.addRow(row);
    }
    printTable("Table III: maximum memory bandwidth", table);
}

/**
 * --hw: simulated vs measured DRAM bandwidth demand. The measured side
 * is LLC-load-misses x 64B over the stage's wall time: a lower bound
 * (stores and prefetch fills are not counted) that still ranks the
 * stages the way Table III does.
 */
void
printTable3Hw(const Sweeps& sw, std::size_t n)
{
    TextTable table;
    table.setHeader({"stage", "sim i9 max GB/s", "measured GB/s",
                     "hw LLC MB", "hw seconds"});
    for (Stage s : core::kAllStages) {
        const double sim =
            onCpu(memoryCell(sw.memory, s, n), "i9-13900K").maxBandwidthGBps;
        const obs::pmu::HwStats& hw = sw.hw[(std::size_t)s];
        const bool ok = hw.available;
        table.addRow({core::stageName(s), fmtF(sim, 2),
                      ok ? fmtF(hw.bandwidthGBps, 3) : "n/a",
                      ok ? fmtF(hw.dramBytesEst / 1e6, 2) : "n/a",
                      ok ? fmtF(hw.seconds, 4) : "n/a"});
    }
    printTable(std::string("Table III --hw: DRAM bandwidth, sim vs "
                           "perf_event estimate, n=") +
                   pow2(n) + ", " + sw.curve,
               table);
}

/** Function families at the largest size, above a 0.5% cut-off. */
void
printTable4(const Sweeps& sw, std::size_t n)
{
    TextTable table;
    table.setHeader({"stage", "function", "share of stage CPU time"});
    for (const auto& c : sw.code) {
        if (c.constraints != n)
            continue;
        for (const auto& f : c.functions) {
            if (f.pct < 0.5)
                continue; // hotspot list, like the profiler's cut-off
            table.addRow({core::stageName(c.stage), f.function,
                          fmtF(f.pct, 1) + "%"});
        }
    }
    printTable(std::string("Table IV: time-consuming functions, ") +
                   sw.curve,
               table);
}

/** Each stage's opcode mix, averaged over the size sweep. */
std::array<core::OpcodeMix, kNumStages>
averageMix(const Sweeps& sw)
{
    std::array<core::OpcodeMix, kNumStages> avg{};
    std::array<unsigned, kNumStages> count{};
    for (const auto& c : sw.code) {
        auto& a = avg[(std::size_t)c.stage];
        a.computePct += c.mix.computePct;
        a.controlPct += c.mix.controlPct;
        a.dataPct += c.mix.dataPct;
        ++count[(std::size_t)c.stage];
    }
    for (std::size_t s = 0; s < kNumStages; ++s) {
        if (!count[s])
            continue;
        avg[s].computePct /= count[s];
        avg[s].controlPct /= count[s];
        avg[s].dataPct /= count[s];
    }
    return avg;
}

void
printTable5(const Sweeps& bn, const Sweeps& bls)
{
    const auto bn_mix = averageMix(bn);
    const auto bls_mix = averageMix(bls);
    std::vector<std::string> header{"stage",     "BN Comp%",  "BN Ctrl%",
                                    "BN Data%",  "BLS Comp%", "BLS Ctrl%",
                                    "BLS Data%", "dominant"};
    TextTable table;
    table.setHeader(header);
    for (Stage s : core::kAllStages) {
        const auto& a = bn_mix[(std::size_t)s];
        const auto& b = bls_mix[(std::size_t)s];
        const char* dom = "compute";
        double c_avg = (a.computePct + b.computePct) / 2;
        double t_avg = (a.controlPct + b.controlPct) / 2;
        double d_avg = (a.dataPct + b.dataPct) / 2;
        if (t_avg > c_avg && t_avg > d_avg)
            dom = "control-flow";
        else if (d_avg > c_avg && d_avg > t_avg)
            dom = "data-flow";
        table.addRow({core::stageName(s), fmtF(a.computePct, 2),
                      fmtF(a.controlPct, 2), fmtF(a.dataPct, 2),
                      fmtF(b.computePct, 2), fmtF(b.controlPct, 2),
                      fmtF(b.dataPct, 2), dom});
    }
    printTable("Table V: opcode-type percentages", table);
    header.pop_back();
    printPaperTable("Table V (paper, for comparison)", header,
                    kPaper.table5);
}

/** Amdahl serial fraction per stage, averaged over the swept sizes. */
StageValues
strongSerial(const Sweeps& sw)
{
    StageValues sum{};
    std::array<unsigned, kNumStages> cnt{};
    for (const auto& c : sw.strong) {
        sum[(std::size_t)c.stage] += c.fittedSerial;
        ++cnt[(std::size_t)c.stage];
    }
    for (std::size_t s = 0; s < kNumStages; ++s)
        sum[s] = cnt[s] ? sum[s] / cnt[s] : 1.0;
    return sum;
}

void
printTable6(const Sweeps& bn, const Sweeps& bls)
{
    const std::array<StageValues, 2> ss{strongSerial(bn),
                                         strongSerial(bls)};
    const std::vector<std::string> header{
        "stage",       "SS-BN ser%",  "SS-BN par%",  "SS-BLS ser%",
        "SS-BLS par%", "WS-BN ser%",  "WS-BN par%",  "WS-BLS ser%",
        "WS-BLS par%"};
    TextTable table;
    table.setHeader(header);
    for (Stage s : core::kAllStages) {
        const std::size_t i = (std::size_t)s;
        std::vector<std::string> row{core::stageName(s)};
        for (double serial : {ss[0][i], ss[1][i], bn.weak[i].fittedSerial,
                              bls.weak[i].fittedSerial}) {
            row.push_back(fmtF(100 * serial, 2));
            row.push_back(fmtF(100 * (1 - serial), 2));
        }
        table.addRow(row);
    }
    printTable("Table VI: serial/parallel percentages", table);
    printPaperTable("Table VI (paper, for comparison)", header,
                    kPaper.table6);
}

/**
 * E11: the PlonK/Groth16 prove ratio per curve, then BN254's three-way
 * table. Setup is part of that row because it is the transparent
 * scheme's whole argument: the SNARKs pay a per-circuit trusted setup
 * that the STARK does not have.
 */
void
printSchemes(const Sweeps& bn, const Sweeps& bls,
             const std::vector<std::size_t>& sizes)
{
    for (const Sweeps* sw : {&bn, &bls}) {
        TextTable table;
        table.setHeader({"constraints", "groth16 prove", "plonk prove",
                         "ratio", "groth16 verify", "plonk verify"});
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            const SchemeTimes& g = sw->schemes[i][kGroth16];
            const SchemeTimes& p = sw->schemes[i][kPlonk];
            table.addRow({pow2(sizes[i]), fmtSeconds(g.prove),
                          fmtSeconds(p.prove),
                          fmtF(p.prove / g.prove, 2) + "x",
                          fmtSeconds(g.verify), fmtSeconds(p.verify)});
        }
        printTable(std::string("E11 PlonK vs Groth16 proving time, ") +
                       sw->curve,
                   table);
    }
    std::printf("\n%s\n", kPaper.schemes);

    TextTable table;
    table.setHeader({"n", "scheme", "setup", "prove", "verify",
                     "proof bytes"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        for (std::size_t s = 0; s < kNumSchemes; ++s) {
            const SchemeTimes& t = bn.schemes[i][s];
            table.addRow({pow2(sizes[i]),
                          std::string(kSchemeNames[s]) +
                              (s == kStark ? "/gl64" : "/bn254"),
                          s == kStark ? "none (transparent)"
                                      : fmtSeconds(t.setup),
                          fmtSeconds(t.prove), fmtSeconds(t.verify),
                          std::to_string(t.proofBytes)});
        }
    }
    printTable(std::string("E11 Groth16 vs PlonK vs transparent STARK, ") +
                   bn.curve,
               table);
}

/** E10 A4: the counting probe's cost. */
void
printAblation(const Sweeps& bn)
{
    TextTable probe;
    probe.setHeader({"what", "ns/op"});
    probe.addRow({"a * b, counting off (default)", fmtF(bn.probeNs[0], 2)});
    probe.addRow({"a * b, inside a CountingScope", fmtF(bn.probeNs[1], 2)});
    probe.addRow({"counting overhead",
                  fmtPct(bn.probeNs[1] / bn.probeNs[0] - 1, 1)});
    printTable(std::string("E10 A4 counting probe cost (Fq multiply, ") +
                   bn.curve + ")",
               probe);
}

/** LLC load misses per kilo-instruction of @p cpu over @p c. */
double
llcMpki(const core::CpuObservation& cpu, const sim::Counters& c)
{
    const double instr = (double)c.instructions();
    return instr > 0 ? cpu.llcLoadMisses / (instr / 1000.0) : 0.0;
}

/** The note under a zoo table that marks its skipped instances. */
void
printSkippedNote(std::size_t limit)
{
    std::printf("\nskipped: more than %s constraints (ZKP_MAX_LOG_N)\n",
                pow2(limit).c_str());
}

/**
 * E12: the Groth16 proving stage per zoo circuit on the i9 model, then
 * the unprobed pipeline times and Groth16 prove cost per constraint.
 */
void
printZoo(const Sweeps& bn, std::size_t limit)
{
    TextTable prove;
    prove.setHeader({"circuit", "scale", "constraints", "bound",
                     "LLC MPKI", "DRAM MB", "mix C/B/D"});
    for (std::size_t i = 0; i < kZooScales.size(); ++i) {
        const auto& [name, scale] = kZooScales[i];
        const auto& obs = bn.zooProve[i];
        if (!obs) {
            const auto* e = r1cs::zoo::find<snark::Bn254::Fr>(name);
            prove.addRow({name, std::to_string(scale),
                          std::to_string(e->predictedConstraints(scale)),
                          "skipped", "", "", ""});
            continue;
        }
        const core::CpuObservation& i9 = obs->cpus.back();
        const auto mix = core::opcodeMixOf(obs->run.counters);
        char mix_cell[48];
        std::snprintf(mix_cell, sizeof(mix_cell), "%.0f/%.0f/%.0f",
                      mix.computePct, mix.controlPct, mix.dataPct);
        prove.addRow(
            {name, std::to_string(scale), std::to_string(obs->constraints),
             sim::classifyTopDown(core::stageEventsFor(*obs, i9), *i9.cpu)
                 .boundCategory(),
             fmtF(llcMpki(i9, obs->run.counters), 3),
             fmtF(i9.dramBytes / (1024.0 * 1024.0), 1), mix_cell});
    }
    printTable(std::string("E12 zoo prove-stage characterization "
                           "(i9 model), ") +
                   bn.curve,
               prove);
    printSkippedNote(limit);

    TextTable times;
    times.setHeader({"circuit", "scale", "r1cs", "gates", "compile",
                     "witness", "g16 setup", "g16 prove", "g16 verify",
                     "plonk setup", "plonk prove", "plonk verify",
                     "g16 us/constraint"});
    for (const ZooRun<double>& r : bn.zooTimes) {
        std::vector<std::string> row{r.circuit, std::to_string(r.scale),
                                     std::to_string(r.constraints)};
        if (r.skipped) {
            row.push_back("skipped");
            row.resize(13);
        } else {
            row.push_back(std::to_string(r.gates));
            for (std::size_t p = 0; p < kNumZooPhases; ++p)
                row.push_back(p < kPlonkSetup || r.plonkRan
                                  ? fmtSeconds(r.phase[p])
                                  : "-");
            row.push_back(
                fmtF(r.phase[kG16Prove] / (double)r.constraints * 1e6, 3));
        }
        times.addRow(row);
    }
    printTable(std::string("E12 zoo pipeline times, ") + bn.curve, times);
    printSkippedNote(limit);
    std::printf("plonk -: the lowered circuit has more than 2^%u gates\n",
                log2Of(kPlonkGateBudget));
}

/** @p v bytes with thousands separators, signed. */
std::string
fmtBytes(long long v)
{
    return (v < 0 ? "-" : "") + fmtCount(v < 0 ? -v : v);
}

/** E13: allocator traffic per zoo circuit, scheme and phase. */
void
printFootprint(const Sweeps& bn, std::size_t limit)
{
    TextTable table;
    table.setHeader({"circuit", "scheme", "phase", "scale", "r1cs",
                     "alloc bytes", "allocs", "live Δ", "peak RSS Δ MiB",
                     "B/constraint"});
    for (const auto& r : bn.footprint) {
        if (r.skipped) {
            table.addRow({r.circuit, "skipped", "", std::to_string(r.scale),
                          std::to_string(r.constraints), "", "", "", "", ""});
            continue;
        }
        for (const ZooPhase p : {kG16Setup, kG16Prove, kPlonkSetup,
                                 kPlonkProve}) {
            if (p >= kPlonkSetup && !r.plonkRan)
                continue;
            const obs::memprof::StageMem& m = r.phase[p];
            table.addRow(
                {r.circuit, p < kPlonkSetup ? "groth16" : "plonk",
                 p == kG16Setup || p == kPlonkSetup ? "setup" : "prove",
                 std::to_string(r.scale), std::to_string(r.constraints),
                 fmtCount(m.allocBytes), fmtCount(m.allocCount),
                 fmtBytes(m.liveDelta),
                 fmtF(m.peakRssDelta / (1024.0 * 1024.0), 1),
                 fmtF((double)m.allocBytes / (double)r.constraints, 1)});
        }
    }
    printTable(std::string("E13 zoo memory footprint by circuit, scheme "
                           "and phase (1 thread), ") +
                   bn.curve,
               table);
    printSkippedNote(limit);
}

/**
 * E14: each prover's opcode mix, wide multiplies per kilo-instruction,
 * the share of instructions in SHA-256 compressions, and LLC MPKI on
 * the i7 and i9 models.
 */
void
printProvers(const Sweeps& bn)
{
    TextTable table;
    table.setHeader({"prover", "comp%", "ctrl%", "data%", "imul/kinstr",
                     "hash-compress%", "i7 MPKI", "i9 MPKI"});
    const auto sig = sim::signatureFor(sim::PrimOp::HashCompress, 1);
    for (const ProverObservation& p : bn.provers) {
        const sim::Counters& c = p.counters;
        const core::OpcodeMix mix = core::opcodeMixOf(c);
        const double instr = (double)c.instructions();
        const double hash_instr =
            (double)c.prim[(std::size_t)sim::PrimOp::HashCompress] *
            (sig.compute + sig.control + sig.data);
        const auto mpki = [&](const char* cpu) {
            for (const auto& o : p.cpus)
                if (std::string(o.cpu->name).find(cpu) != std::string::npos)
                    return fmtF(llcMpki(o, c), 3);
            return std::string("-");
        };
        table.addRow(
            {p.label, fmtF(mix.computePct, 1), fmtF(mix.controlPct, 1),
             fmtF(mix.dataPct, 1),
             fmtF(instr > 0 ? (double)c.imuls / (instr / 1000.0) : 0, 1),
             fmtF(instr > 0 ? 100.0 * hash_instr / instr : 0, 1),
             mpki("i7"), mpki("i9")});
    }
    printTable("E14 STARK vs Groth16 prover opcode mix and LLC MPKI", table);
}

/** Print artifact @p a from both curves' sweeps. */
void
printArtifact(Artifact a, const Sweeps& bn, const Sweeps& bls,
              const std::vector<std::size_t>& sizes, bool hw)
{
    const std::size_t largest = sizes.back();
    const std::array<const Sweeps*, 2> curves{&bn, &bls};
    switch (a) {
      case kExec:
        for (const Sweeps* sw : curves)
            printExec(*sw, sizes);
        break;
      case kFig4:
        for (const Sweeps* sw : curves)
            hw ? printFig4Hw(*sw, largest) : printFig4(*sw);
        break;
      case kFig5:
        printFig5(bn, bls, sizes);
        break;
      case kFig6:
        for (const Sweeps* sw : curves)
            printFig6(*sw);
        std::printf("\n%s\n", kPaper.fig6);
        break;
      case kFig7:
        for (const Sweeps* sw : curves)
            printFig7(*sw);
        std::printf("\n%s\n", kPaper.fig7);
        break;
      case kTable2:
        if (!hw)
            printTable2(bn, bls);
        else
            for (const Sweeps* sw : curves)
                printTable2Hw(*sw, largest);
        break;
      case kTable3:
        if (!hw)
            printTable3(bn, bls);
        else
            for (const Sweeps* sw : curves)
                printTable3Hw(*sw, largest);
        break;
      case kTable4:
        for (const Sweeps* sw : curves)
            printTable4(*sw, largest);
        std::printf("\n%s\n", kPaper.table4);
        break;
      case kTable5:
        printTable5(bn, bls);
        break;
      case kTable6:
        printTable6(bn, bls);
        break;
      case kAblation:
        printAblation(bn);
        break;
      case kSchemes:
        printSchemes(bn, bls, sizes);
        break;
      case kZoo:
        printZoo(bn, largest);
        break;
      case kFootprint:
        printFootprint(bn, largest);
        break;
      case kProverMix:
        printProvers(bn);
        break;
      case kNumArtifacts:
        break;
    }
}

/**
 * --hw preamble: true when hardware counters can be read; otherwise
 * prints the reason, and the simulated tables are shown instead.
 */
bool
hwModeUsable()
{
    if (obs::pmu::enabled())
        return true;
    std::printf("bench_paper --hw: hardware counters unavailable (%s); "
                "showing simulated results only\n",
                obs::pmu::unavailableReason().empty()
                    ? "disabled via ZKP_PMU=0"
                    : obs::pmu::unavailableReason().c_str());
    return false;
}

int
usage()
{
    std::fprintf(stderr, "usage: bench_paper [--hw] [artifact...]\n"
                         "artifacts (default: all):\n");
    for (const auto& a : kArtifacts)
        std::fprintf(stderr, "  %-9s %s\n", a.name, a.what);
    return 2;
}

int
run(int argc, char** argv)
{
    Selection want{};
    bool hw_flag = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--hw") {
            hw_flag = true;
            continue;
        }
        std::size_t a = 0;
        while (a < kNumArtifacts && arg != kArtifacts[a].name)
            ++a;
        if (a == kNumArtifacts)
            return usage();
        want[a] = true;
    }
    if (std::find(want.begin(), want.end(), true) == want.end())
        want.fill(true);

    const auto sizes = sweepSizes();
    const std::size_t ws_base = std::size_t(1)
                                << envLong("ZKP_WS_BASE_LOG_N", 10, 1, 30);
    std::printf("bench_paper: n=%s..%s, repeats=%u, mul: %s, sha256: %s\n",
                pow2(sizes.front()).c_str(), pow2(sizes.back()).c_str(),
                repeats(), ff::mulImplName(), stark::shaImplName());
    const bool hw = hw_flag && hwModeUsable();

    const Sweeps bn = runSweeps<snark::Bn254>(want, hw, sizes, ws_base);
    const Sweeps bls = runSweeps<snark::Bls381>(want, hw, sizes, ws_base);

    for (std::size_t a = 0; a < kNumArtifacts; ++a) {
        if (want[a]) {
            std::printf("\n[%s] %s\n", kArtifacts[a].name,
                        kArtifacts[a].what);
            printArtifact((Artifact)a, bn, bls, sizes, hw);
        }
    }
    return bn.verified && bls.verified ? 0 : 1;
}

} // namespace
} // namespace zkp::bench

int
main(int argc, char** argv)
{
    return zkp::bench::run(argc, argv);
}
