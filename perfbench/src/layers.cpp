/**
 * @file
 * The layer suite of a traced run: each library layer timed from
 * outside at its public call boundary, with a benchmark span around
 * every call so run.py can derive self time and explained fractions.
 * Every value is the median of several repeats unless noted.
 *
 * Layers (names match the per_layer metrics of BENCHMARK.json):
 *   ff       mulBatch per field, batchInverse
 *   ec       Jacobian add, msmCurve sweep 2^10..2^17 at 1 and N
 *            threads, BLS12-381 MSM, the prover's G2 MSM
 *   poly     Domain::ntt over BN254 Fr and Goldilocks
 *   pairing  pairingProduct over three pairs
 *   r1cs     compile and witness at 2^16
 *   snark    Groth16 / PlonK setup, prove, verify, verifyBatch, and a
 *            replay of the Groth16 prover's NTTs and MSMs
 *   stark    hashPair, MerkleTree::fromRows, the prover's five stages
 *            from the run-report API
 *   core     core::StageRunner's five stages at 2^16, strong scaling
 *   common   empty parallelFor region entry
 */

#include <optional>

#include "common/parallel.h"
#include "core/pipeline.h"
#include "ec/msm.h"
#include "obs/report.h"
#include "poly/domain.h"
#include "record.h"
#include "snark/plonk.h"
#include "snark/serialize.h"
#include "stark/air.h"
#include "stark/merkle.h"
#include "stark/serialize.h"
#include "stark/stark.h"

namespace zkbench {
namespace {

using namespace zkp;
using Bn = snark::Bn254;
using Fr = Bn::Fr;
using G1 = Bn::G1;
using G2 = Bn::G2;

/** Median seconds of @p reps calls of @p fn. */
template <typename Fn>
double
medianSeconds(std::size_t reps, Fn&& fn)
{
    std::vector<double> s;
    for (std::size_t i = 0; i < reps; ++i) {
        const double t0 = now();
        fn();
        s.push_back(now() - t0);
    }
    return median(s);
}

/** ns per element of ff::mulBatch over a 4096-element batch. */
template <typename F>
double
mulNs(Rng& rng)
{
    constexpr std::size_t kBatch = 4096, kInner = 64;
    std::vector<F> a(kBatch), b(kBatch), out(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
        a[i] = F::random(rng);
        b[i] = F::random(rng);
    }
    const double s = medianSeconds(7, [&] {
        ZKP_TRACE_SCOPE("bench.ff.mul_batch", "n", (obs::u64)kBatch);
        for (std::size_t k = 0; k < kInner; ++k)
            ff::mulBatch(out.data(), a.data(), b.data(), kBatch);
    });
    return s * 1e9 / (double)(kBatch * kInner);
}

/** Random affine points: seeded scalars times the generator. */
template <typename Group>
std::vector<typename Group::Affine>
randomPoints(std::size_t n, u64 seed, std::size_t threads)
{
    ZKP_TRACE_SCOPE("bench.ec.points", "n", (obs::u64)n);
    using Jac = typename Group::Jacobian;
    using Repr = typename Group::Scalar::Repr;
    const ec::FixedBaseTable<Jac, Repr> table{Jac{Group::generator()}};
    std::vector<Jac> jac(n);
    parallelFor(n, threads, [&](std::size_t, std::size_t lo,
                                std::size_t hi) {
        Rng rng(seed + lo);
        for (std::size_t i = lo; i < hi; ++i)
            jac[i] = table.mul(Group::Scalar::random(rng).toBigInt());
    });
    return ec::batchToAffine(jac);
}

template <typename Scalar>
std::vector<typename Scalar::Repr>
randomScalars(std::size_t n, Rng& rng)
{
    std::vector<typename Scalar::Repr> out(n);
    for (auto& s : out)
        s = Scalar::random(rng).toBigInt();
    return out;
}

/** Window width msmCurve picks for @p n G1 points. */
unsigned
windowBits(std::size_t n)
{
    const auto& glv = ec::Glv<G1>::instance();
    if (n >= ec::kMsmGlvMin && glv.usable())
        return ec::msmWindowBits(2 * n, glv.halfBits());
    return ec::msmWindowBits(n, Fr::Repr::kBits);
}

std::string
tag(unsigned log2)
{
    return ".2e" + std::to_string(log2);
}

void
ffLayer(Record& rec, Rng& rng)
{
    rec.value("ff.bn254_fq.mul_ns", mulNs<ff::bn254::Fq>(rng));
    rec.value("ff.bn254_fr.mul_ns", mulNs<ff::bn254::Fr>(rng));
    rec.value("ff.bls381_fq.mul_ns", mulNs<ff::bls381::Fq>(rng));
    {
        constexpr std::size_t kBatch = 4096;
        std::vector<stark::Gl> a(kBatch), b(kBatch);
        for (std::size_t i = 0; i < kBatch; ++i) {
            a[i] = stark::Gl::fromU64(rng.next());
            b[i] = stark::Gl::fromU64(rng.next());
        }
        const double s = medianSeconds(7, [&] {
            ZKP_TRACE_SCOPE("bench.ff.mul_batch", "n", (obs::u64)kBatch);
            for (std::size_t k = 0; k < 64; ++k)
                ff::mulBatch(a.data(), a.data(), b.data(), kBatch);
        });
        rec.value("ff.gl64.mul_ns", s * 1e9 / (double)(kBatch * 64));
    }
    {
        constexpr std::size_t kBatch = 4096;
        std::vector<Fr> v(kBatch);
        for (auto& x : v)
            x = Fr::random(rng);
        const double s = medianSeconds(7, [&] {
            ZKP_TRACE_SCOPE("bench.ff.batch_inverse", "n",
                            (obs::u64)kBatch);
            ff::batchInverse(v.data(), kBatch);
        });
        rec.value("ff.bn254_fr.inv_ns", s * 1e9 / (double)kBatch);
    }
}

void
ecLayer(const Options& opt, Record& rec, Rng& rng)
{
    const auto pts =
        randomPoints<G1>(std::size_t(1) << 17, opt.seed, opt.threads);
    {
        constexpr std::size_t kAdds = 1 << 14;
        G1::Jacobian acc{pts[0]};
        const G1::Jacobian step{pts[1]};
        const double s = medianSeconds(5, [&] {
            ZKP_TRACE_SCOPE("bench.ec.add", "n", (obs::u64)kAdds);
            for (std::size_t i = 0; i < kAdds; ++i)
                acc += step;
        });
        rec.check(!acc.isInfinity(), "ec add chain");
        rec.value("ec.g1_add_ns", s * 1e9 / (double)kAdds);
    }
    const auto scalars = randomScalars<Fr>(pts.size(), rng);
    for (unsigned log2 = 10; log2 <= 17; ++log2) {
        const std::size_t n = std::size_t(1) << log2;
        // Repeats shrink with size: 2^14 points' worth, at least 2.
        const std::size_t reps = std::size_t(1)
                                 << (14 - std::min(log2, 13u));
        for (std::size_t t : {std::size_t(1), opt.threads}) {
            const double s = medianSeconds(reps, [&] {
                ZKP_TRACE_SCOPE("bench.ec.msm", "n", (obs::u64)n);
                (void)ec::msmCurve<G1>(pts.data(), scalars.data(), n, t);
            });
            rec.value("ec.msm_g1_us_per_point" + tag(log2) +
                          (t == 1 ? ".1t" : ".nt"),
                      s * 1e6 / (double)n);
        }
        rec.value("ec.msm_window_bits" + tag(log2), windowBits(n));
    }
    {
        using BG1 = snark::Bls381::G1;
        const std::size_t n = std::size_t(1) << 14;
        const auto bpts = randomPoints<BG1>(n, opt.seed + 7, opt.threads);
        const auto bsc = randomScalars<BG1::Scalar>(n, rng);
        const double s = medianSeconds(3, [&] {
            ZKP_TRACE_SCOPE("bench.ec.msm_bls", "n", (obs::u64)n);
            (void)ec::msmCurve<BG1>(bpts.data(), bsc.data(), n,
                                    opt.threads);
        });
        rec.value("ec.msm_bls_g1_us_per_point.2e14", s * 1e6 / (double)n);
    }
}

/** Median ms of a forward NTT of size 2^log2 over field F. */
template <typename F, typename Make>
double
nttMs(unsigned log2, std::size_t threads, Make&& make)
{
    const std::size_t n = std::size_t(1) << log2;
    const poly::Domain<F> dom(n);
    std::vector<F> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = make(i);
    dom.ntt(v, threads); // builds the twiddle cache
    return 1e3 * medianSeconds(5, [&] {
        ZKP_TRACE_SCOPE("bench.poly.ntt", "n", (obs::u64)n);
        dom.ntt(v, threads);
    });
}

void
polyLayer(const Options& opt, Record& rec, Rng& rng)
{
    auto fr = [&](std::size_t) { return Fr::random(rng); };
    rec.value("poly.ntt_fr_ms.2e14.nt", nttMs<Fr>(14, opt.threads, fr));
    rec.value("poly.ntt_fr_ms.2e16.1t", nttMs<Fr>(16, 1, fr));
    rec.value("poly.ntt_fr_ms.2e16.nt", nttMs<Fr>(16, opt.threads, fr));
    rec.value("poly.ntt_gl_ms.2e19.nt",
              nttMs<stark::Gl>(19, opt.threads, [&](std::size_t i) {
                  return stark::Gl::fromU64(i * 0x9e3779b97f4a7c15ULL);
              }));
}

/** core::StageRunner's five stages at 2^16, the paper's harness. */
void
coreLayer(const Options& opt, Record& rec)
{
    core::StageRunner<Bn> runner(std::size_t(1) << 16, opt.seed);
    for (core::Stage s : core::kAllStages) {
        const std::size_t reps = s == core::Stage::Verifying ? 5 : 1;
        std::vector<double> secs;
        for (std::size_t r = 0; r < reps; ++r) {
            ZKP_TRACE_SCOPE("bench.core.stage");
            secs.push_back(runner.run(s, opt.threads).seconds);
        }
        rec.value(std::string("core.stage.") + core::stageName(s) + "_s",
                  median(secs));
    }
    rec.check(runner.lastVerifyOk(), "core runner 2^16 verify");
}

void
r1csLayer(const Options& opt, Record& rec, Rng& rng)
{
    const std::size_t n = std::size_t(1) << 16;
    const auto* exp = r1cs::zoo::find<Fr>("exp");
    std::optional<r1cs::WitnessCalculator<Fr>> calc;
    const double compile = medianSeconds(1, [&] {
        ZKP_TRACE_SCOPE("bench.r1cs.compile", "n", (obs::u64)n);
        auto builder = exp->build(n);
        (void)builder.compile(opt.threads);
        calc.emplace(builder.witnessProgram());
    });
    const auto w = exp->sample(n, rng);
    const double witness = medianSeconds(3, [&] {
        ZKP_TRACE_SCOPE("bench.r1cs.witness", "n", (obs::u64)n);
        (void)calc->compute(w.pub, w.priv, opt.threads);
    });
    rec.value("r1cs.compile_s.2e16", compile);
    rec.value("r1cs.witness_ms.2e16", witness * 1e3);
}

/**
 * Replay the 2^16 Groth16 prover's 7 NTTs (3 intt, 3 coset ntt, 1
 * coset intt) and 5 MSMs (4 G1, 1 G2) on the same key and witness;
 * their sum over the measured prove is the fraction the kernels
 * explain. The G2 MSM of the replay is also ec.msm_g2_ms.2e16: B's
 * query is sparse for this circuit, which a dense G2 MSM would hide.
 */
template <typename Keys>
void
proveReplay(const Options& opt, Record& rec, Rng& rng, const Keys& keys,
            const std::vector<Fr>& z, double prove_s)
{
    const auto& pk = keys.pk;
    const std::size_t m = pk.domainSize;
    const std::size_t npub = pk.numPublic;
    std::vector<Fr::Repr> zr(z.size()), hr(m - 1);
    for (std::size_t i = 0; i < z.size(); ++i)
        zr[i] = z[i].toBigInt();
    for (auto& h : hr)
        h = Fr::random(rng).toBigInt();
    const poly::Domain<Fr> dom(m);
    std::vector<Fr> v(m);
    for (auto& x : v)
        x = Fr::random(rng);
    double ntt = 0, msm = 0, g2 = 0;
    {
        ZKP_TRACE_SCOPE("bench.groth16.replay");
        double t0 = now();
        for (int i = 0; i < 3; ++i)
            dom.intt(v, opt.threads);
        for (int i = 0; i < 3; ++i)
            dom.cosetNtt(v, opt.threads);
        dom.cosetIntt(v, opt.threads);
        ntt = now() - t0;
        t0 = now();
        (void)ec::msmCurve<G1>(pk.aQuery.data(), zr.data(), zr.size(),
                               opt.threads);
        (void)ec::msmCurve<G1>(pk.b1Query.data(), zr.data(), zr.size(),
                               opt.threads);
        (void)ec::msmCurve<G1>(pk.lQuery.data(), zr.data() + npub + 1,
                               zr.size() - npub - 1, opt.threads);
        (void)ec::msmCurve<G1>(pk.hQuery.data(), hr.data(), hr.size(),
                               opt.threads);
        msm = now() - t0;
        t0 = now();
        (void)ec::msmCurve<G2>(pk.b2Query.data(), zr.data(), zr.size(),
                               opt.threads);
        g2 = now() - t0;
    }
    rec.value("ec.msm_g2_ms.2e16", g2 * 1e3);
    rec.value("snark.groth16.replay_ntt_s", ntt);
    rec.value("snark.groth16.replay_msm_s", msm + g2);
    rec.value("snark.groth16.prove_explained_frac",
              (ntt + msm + g2) / prove_s);
}

/** pairingProduct over the three pairs a Groth16 verify pairs. */
template <typename Keys>
void
pairingLayer(Record& rec, const Keys& keys)
{
    const std::vector<std::pair<G1::Affine, G2::Affine>> pairs{
        {keys.pk.alpha1, keys.pk.beta2},
        {keys.vk.ic[0], keys.vk.gamma2},
        {keys.pk.delta1, keys.pk.delta2}};
    const double s = medianSeconds(9, [&] {
        ZKP_TRACE_SCOPE("bench.pairing.product", "n", 3);
        (void)Bn::Engine::pairingProduct(pairs);
    });
    rec.value("pairing.product3_ms", s * 1e3);
}

/**
 * Groth16 at 2^12, 2^14 and 2^16 (with the prover replay, pairing and
 * strong scaling), PlonK at 2^12 (PlonK set-up at 2^14 takes ~40 s on
 * a 4-core host, beyond a traced run's budget).
 */
void
snarkLayer(const Options& opt, Record& rec, Rng& rng)
{
    using G = snark::Groth16<Bn>;
    using P = snark::Plonk<Bn>;
    const auto* exp = r1cs::zoo::find<Fr>("exp");
    for (unsigned log2 : {12u, 14u, 16u}) {
        const std::size_t n = std::size_t(1) << log2;
        auto builder = exp->build(n);
        const auto cs = builder.compile(opt.threads);
        const r1cs::WitnessCalculator<Fr> calc(builder.witnessProgram());
        std::optional<G::Keypair> keys;
        const double ts = medianSeconds(1, [&] {
            ZKP_TRACE_SCOPE("bench.groth16.setup", "n", (obs::u64)n);
            keys = G::setup(cs, rng, opt.threads);
        });
        const auto w = exp->sample(n, rng);
        const auto z = calc.compute(w.pub, w.priv, opt.threads);
        std::optional<G::Proof> proof;
        const double tp = medianSeconds(log2 == 16 ? 2 : 3, [&] {
            ZKP_TRACE_SCOPE("bench.groth16.prove", "n", (obs::u64)n);
            proof = G::prove(keys->pk, cs, z, rng, opt.threads);
        });
        rec.check(G::verify(keys->vk, w.pub, *proof), "groth16 verify");
        rec.value("snark.groth16.prove_s" + tag(log2), tp);
        if (log2 == 12) {
            rec.value("snark.groth16.proof_bytes",
                      (double)snark::serializeProof<Bn>(*proof).size());
            const std::vector<std::vector<Fr>> pubs(16, w.pub);
            const std::vector<G::Proof> proofs(16, *proof);
            bool ok = true;
            const double s = medianSeconds(3, [&] {
                ZKP_TRACE_SCOPE("bench.groth16.verify_batch", "n", 16);
                ok = ok && G::verifyBatch(keys->vk, pubs, proofs, rng);
            });
            rec.check(ok, "groth16 verifyBatch of 16");
            rec.value("snark.groth16.verify_batch_ms_per_proof",
                      s * 1e3 / 16);
        } else if (log2 == 14) {
            // Strong scaling at 2^14: T1 / (p * Tp).
            const double t1 = medianSeconds(1, [&] {
                ZKP_TRACE_SCOPE("bench.groth16.prove", "n", (obs::u64)n);
                proof = G::prove(keys->pk, cs, z, rng, 1);
            });
            rec.value("core.strong_scaling_eff.2e14",
                      t1 / ((double)opt.threads * tp));
        } else {
            rec.value("snark.groth16.setup_s.2e16", ts);
            proveReplay(opt, rec, rng, *keys, z, tp);
            pairingLayer(rec, *keys);
        }
    }
    {
        const std::size_t n = std::size_t(1) << 12;
        std::optional<snark::PlonkExponentiation<Fr>> circ;
        std::optional<P::Keypair> keys;
        const double ts = medianSeconds(1, [&] {
            ZKP_TRACE_SCOPE("bench.plonk.setup", "n", (obs::u64)n);
            circ.emplace(n);
            keys = P::setup(circ->builder, rng, opt.threads);
        });
        const Fr x = Fr::random(rng);
        const auto values = circ->assign(x);
        const std::vector<Fr> pub{x.pow(BigInt<1>((u64)n))};
        std::optional<P::Proof> proof;
        const double tp = medianSeconds(2, [&] {
            ZKP_TRACE_SCOPE("bench.plonk.prove", "n", (obs::u64)n);
            proof = P::prove(keys->pk, values, pub, rng, opt.threads);
        });
        rec.check(P::verify(keys->vk, pub, *proof), "plonk verify");
        rec.value("snark.plonk.prove_s.2e12", tp);
        rec.value("snark.plonk.setup_s.2e12", ts);
        rec.value("snark.plonk.proof_bytes",
                  (double)snark::serializePlonkProof<Bn>(*proof).size());
    }
}

void
starkLayer(const Options& opt, Record& rec, Rng& rng)
{
    {
        constexpr std::size_t kCalls = 1 << 14;
        stark::Digest d{}, e{};
        d[0] = (std::uint8_t)rng.next();
        const double s = medianSeconds(5, [&] {
            ZKP_TRACE_SCOPE("bench.stark.hash_pair", "n", (obs::u64)kCalls);
            for (std::size_t i = 0; i < kCalls; ++i)
                d = stark::hashPair(d, e);
        });
        rec.check(d != e, "sha256 chain");
        rec.value("stark.sha256_compress_ns", s * 1e9 / (double)kCalls);
    }
    {
        const std::size_t rows = std::size_t(1) << 19;
        std::vector<stark::Gl> table(rows);
        for (std::size_t i = 0; i < rows; ++i)
            table[i] = stark::Gl::fromU64(rng.next());
        const double s = medianSeconds(3, [&] {
            ZKP_TRACE_SCOPE("bench.stark.merkle", "n", (obs::u64)rows);
            (void)stark::MerkleTree::fromRows(table.data(), rows, 1,
                                              opt.threads);
        });
        rec.value("stark.merkle_commit_ms.2e19", s * 1e3);
    }
    const stark::StarkParams params{};
    for (unsigned log2 : {12u, 14u, 16u}) {
        const stark::MimcAir air(std::size_t(1) << log2,
                                 stark::Gl::fromU64(rng.next()));
        obs::clearStageReports();
        double t = 0;
        std::optional<stark::StarkProof> proof;
        {
            ZKP_TRACE_SCOPE("bench.stark.prove", "n", (obs::u64)air.steps());
            const double t0 = now();
            proof = stark::prove(air, params, opt.threads);
            t = now() - t0;
        }
        rec.check(stark::verify(air, params, *proof), "stark verify");
        rec.value("stark.proof_bytes" + tag(log2),
                  (double)stark::proofByteSize(*proof));
        if (log2 != 16)
            continue;
        double staged = 0;
        for (const auto& r : obs::stageReports()) {
            const std::string name = r.stage;
            if (name.rfind("stark_", 0) != 0 || name == "stark_verify")
                continue;
            rec.value("stark.stage." + name.substr(6) + "_s", r.seconds);
            staged += r.seconds;
        }
        rec.value("stark.prove_s.2e16", t);
        rec.value("stark.prove_explained_frac", staged / t);
    }
}

void
commonLayer(const Options& opt, Record& rec)
{
    constexpr std::size_t kRegions = 2000;
    const std::size_t t = std::max<std::size_t>(2, opt.threads);
    const double s = medianSeconds(5, [&] {
        ZKP_TRACE_SCOPE("bench.common.regions", "n", (obs::u64)kRegions);
        for (std::size_t i = 0; i < kRegions; ++i)
            parallelFor(t, t, [](std::size_t, std::size_t, std::size_t) {
            });
    });
    rec.value("common.region_entry_us", s * 1e6 / (double)kRegions);
}

} // namespace

int
runLayers(const Options& opt, Record& rec)
{
    Rng rng(opt.seed ^ 0x6c61796572ULL);
    snark::Groth16<Bn>::prewarmTables();
    commonLayer(opt, rec);
    ffLayer(rec, rng);
    ecLayer(opt, rec, rng);
    polyLayer(opt, rec, rng);
    snarkLayer(opt, rec, rng);
    coreLayer(opt, rec);
    r1csLayer(opt, rec, rng);
    starkLayer(opt, rec, rng);
    return 0;
}

} // namespace zkbench
