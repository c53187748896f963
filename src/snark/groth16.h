/**
 * @file
 * The Groth16 zk-SNARK (Groth, EUROCRYPT 2016) — the proving scheme
 * the paper benchmarks through snarkjs.
 *
 * The five pipeline stages map to this library as follows:
 *   compile  -> r1cs::CircuitBuilder::compile()
 *   setup    -> Groth16::setup()   (CRS from tau, alpha, beta, gamma, delta)
 *   witness  -> r1cs::WitnessCalculator::compute()
 *   proving  -> Groth16::prove()   (QAP division via coset FFT + 4 MSMs)
 *   verifying-> Groth16::verify()  (3 Miller loops + final exponentiation)
 *
 * Every stage takes an explicit thread count so the scalability
 * analysis (paper §III-D) can sweep it.
 */

#ifndef ZKP_SNARK_GROTH16_H
#define ZKP_SNARK_GROTH16_H

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "ec/fixed_base.h"
#include "ec/msm.h"
#include "obs/trace.h"
#include "poly/domain.h"
#include "r1cs/r1cs.h"
#include "snark/curve.h"

namespace zkp::snark {

/**
 * Groth16 over one curve configuration (Bn254 or Bls381).
 */
template <typename Curve>
class Groth16
{
  public:
    using Fr = typename Curve::Fr;
    using FrRepr = typename Fr::Repr;
    using G1 = typename Curve::G1;
    using G2 = typename Curve::G2;
    using G1Affine = typename G1::Affine;
    using G2Affine = typename G2::Affine;
    using G1Jac = typename G1::Jacobian;
    using G2Jac = typename G2::Jacobian;
    using Fq12 = typename Curve::Fq12;
    using Engine = typename Curve::Engine;
    using R1cs = r1cs::R1cs<Fr>;

    /** The prover's half of the CRS. */
    struct ProvingKey
    {
        G1Affine alpha1, beta1, delta1;
        G2Affine beta2, delta2;
        /// [A_i(tau)]_1 per variable.
        std::vector<G1Affine> aQuery;
        /// [B_i(tau)]_1 per variable (for the G1 copy of B).
        std::vector<G1Affine> b1Query;
        /// [B_i(tau)]_2 per variable.
        std::vector<G2Affine> b2Query;
        /// [(beta A_i + alpha B_i + C_i)/delta]_1 for private wires.
        std::vector<G1Affine> lQuery;
        /// [tau^k Z(tau)/delta]_1 for k = 0..m-2.
        std::vector<G1Affine> hQuery;
        /// QAP domain size (power of two).
        std::size_t domainSize = 0;
        /// Number of public inputs (layout must match the R1CS).
        std::size_t numPublic = 0;

        /** Rough serialized size, for the memory analysis report. */
        std::size_t
        footprintBytes() const
        {
            return (aQuery.size() + b1Query.size() + lQuery.size() +
                    hQuery.size()) *
                       sizeof(G1Affine) +
                   b2Query.size() * sizeof(G2Affine);
        }
    };

    /** The verifier's half of the CRS. */
    struct VerifyingKey
    {
        /// e(alpha_1, beta_2), precomputed.
        Fq12 alphaBeta;
        G2Affine gamma2, delta2;
        /// [(beta A_i + alpha B_i + C_i)/gamma]_1 for i = 0..numPublic.
        std::vector<G1Affine> ic;
    };

    /** A Groth16 proof: two G1 points and one G2 point. */
    struct Proof
    {
        G1Affine a;
        G2Affine b;
        G1Affine c;
    };

    struct Keypair
    {
        ProvingKey pk;
        VerifyingKey vk;
    };

    /** QAP domain size for a constraint system. */
    static std::size_t
    domainSizeFor(const R1cs& cs)
    {
        std::size_t m = 2;
        while (m < cs.numConstraints())
            m <<= 1;
        return m;
    }

    /**
     * Trusted setup: sample toxic waste and encode the CRS.
     *
     * @param cs the compiled constraint system
     * @param rng entropy source for the toxic scalars
     * @param threads worker threads for the encoding loops
     */
    static Keypair
    setup(const R1cs& cs, Rng& rng, std::size_t threads = 1)
    {
        ZKP_TRACE_SCOPE("groth16_setup", "constraints",
                        (obs::u64)cs.numConstraints());
        const std::size_t m = domainSizeFor(cs);
        poly::Domain<Fr> domain(m);

        const Fr tau = nonZeroRandom(rng);
        const Fr alpha = nonZeroRandom(rng);
        const Fr beta = nonZeroRandom(rng);
        const Fr gamma = nonZeroRandom(rng);
        const Fr delta = nonZeroRandom(rng);

        // QAP evaluation at tau in Lagrange basis: A_i(tau) =
        // sum_j a_{j,i} L_j(tau), one pass over the sparse rows.
        const std::vector<Fr> lag = domain.lagrangeCoeffsAt(tau);
        const std::size_t nvars = cs.numVars();
        std::vector<Fr> at(nvars, Fr::zero());
        std::vector<Fr> bt(nvars, Fr::zero());
        std::vector<Fr> ct(nvars, Fr::zero());
        sim::countAlloc(3 * nvars * sizeof(Fr));
        const auto& rows = cs.constraints();
        for (std::size_t j = 0; j < rows.size(); ++j) {
            for (const auto& [v, coeff] : rows[j].a.terms) {
                sim::count(sim::PrimOp::SparseEntry);
                sim::traceLoad(&at[v], sizeof(Fr));
                at[v] += coeff * lag[j];
            }
            for (const auto& [v, coeff] : rows[j].b.terms) {
                sim::count(sim::PrimOp::SparseEntry);
                sim::traceLoad(&bt[v], sizeof(Fr));
                bt[v] += coeff * lag[j];
            }
            for (const auto& [v, coeff] : rows[j].c.terms) {
                sim::count(sim::PrimOp::SparseEntry);
                sim::traceLoad(&ct[v], sizeof(Fr));
                ct[v] += coeff * lag[j];
            }
        }

        const Fr zt = domain.vanishingAt(tau);
        const Fr gamma_inv = gamma.inverse();
        const Fr delta_inv = delta.inverse();

        const auto& t1 = ec::generatorTable<G1>();
        const auto& t2 = ec::generatorTable<G2>();

        Keypair kp;
        ProvingKey& pk = kp.pk;
        VerifyingKey& vk = kp.vk;
        pk.domainSize = m;
        pk.numPublic = cs.numPublic();

        pk.alpha1 = t1.mul(alpha.toBigInt()).toAffine();
        pk.beta1 = t1.mul(beta.toBigInt()).toAffine();
        pk.delta1 = t1.mul(delta.toBigInt()).toAffine();
        pk.beta2 = t2.mul(beta.toBigInt()).toAffine();
        pk.delta2 = t2.mul(delta.toBigInt()).toAffine();
        vk.gamma2 = t2.mul(gamma.toBigInt()).toAffine();
        vk.delta2 = pk.delta2;
        // e(alpha G1, beta G2) = e(G1, G2)^(alpha beta): one
        // exponentiation of the prewarmed base instead of a pairing.
        vk.alphaBeta = ff::fieldPow(
            gtGenerator(), BigNum::fromBigInt((alpha * beta).toBigInt()));

        // Per-variable queries.
        pk.aQuery = encodeAll(t1, at, threads);
        pk.b1Query = encodeAll(t1, bt, threads);
        pk.b2Query = encodeAll(t2, bt, threads);

        // IC (public) and L (private) queries share the combined
        // scalar (beta*A_i + alpha*B_i + C_i).
        std::vector<Fr> combined(nvars);
        parallelFor(nvars, threads,
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i)
                            combined[i] =
                                beta * at[i] + alpha * bt[i] + ct[i];
                    });

        const std::size_t npub = cs.numPublic();
        std::vector<Fr> ic_scalars(npub + 1);
        for (std::size_t i = 0; i <= npub; ++i)
            ic_scalars[i] = combined[i] * gamma_inv;
        std::vector<Fr> l_scalars(nvars - npub - 1);
        for (std::size_t i = 0; i < l_scalars.size(); ++i)
            l_scalars[i] = combined[npub + 1 + i] * delta_inv;
        vk.ic = encodeAll(t1, ic_scalars, threads);
        pk.lQuery = encodeAll(t1, l_scalars, threads);

        // H query: [tau^k Z(tau)/delta]_1 for k = 0..m-2.
        std::vector<Fr> h_scalars(m - 1);
        Fr cur = zt * delta_inv;
        for (std::size_t k = 0; k < h_scalars.size(); ++k) {
            h_scalars[k] = cur;
            cur *= tau;
        }
        pk.hQuery = encodeAll(t1, h_scalars, threads);
        return kp;
    }

    /**
     * Generate a proof for a full assignment.
     *
     * @param pk proving key
     * @param cs the constraint system the key was produced for
     * @param z full assignment [1 | public | private | internal]
     * @param rng entropy for the zero-knowledge blinding r, s
     * @param threads worker threads for FFTs and MSMs
     */
    static Proof
    prove(const ProvingKey& pk, const R1cs& cs, const std::vector<Fr>& z,
          Rng& rng, std::size_t threads = 1)
    {
        assert(z.size() == cs.numVars());
        ZKP_TRACE_SCOPE("prove", "constraints",
                        (obs::u64)cs.numConstraints());
        const std::size_t m = pk.domainSize;
        poly::Domain<Fr> domain(m);

        // Per-constraint evaluations <A_j, z>, <B_j, z>, <C_j, z>.
        std::vector<Fr> a_ev(m, Fr::zero());
        std::vector<Fr> b_ev(m, Fr::zero());
        std::vector<Fr> c_ev(m, Fr::zero());
        sim::countAlloc(3 * m * sizeof(Fr));
        const auto& rows = cs.constraints();
        parallelFor(rows.size(), threads,
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                        for (std::size_t j = lo; j < hi; ++j) {
                            a_ev[j] = rows[j].a.evaluate(z);
                            b_ev[j] = rows[j].b.evaluate(z);
                            c_ev[j] = rows[j].c.evaluate(z);
                        }
                    });

        // H(x) = (A(x)B(x) - C(x)) / Z(x) via coset evaluation.
        domain.intt(a_ev, threads);
        domain.intt(b_ev, threads);
        domain.intt(c_ev, threads);
        domain.cosetNtt(a_ev, threads);
        domain.cosetNtt(b_ev, threads);
        domain.cosetNtt(c_ev, threads);
        const Fr zinv = domain.vanishingOnCoset().inverse();
        std::vector<Fr>& h = a_ev;
        parallelFor(m, threads,
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i)
                            h[i] = (a_ev[i] * b_ev[i] - c_ev[i]) * zinv;
                    });
        domain.cosetIntt(h, threads);

        // Convert scalars to canonical form once for the MSMs.
        std::vector<FrRepr> z_repr(z.size());
        for (std::size_t i = 0; i < z.size(); ++i) {
            sim::count(sim::PrimOp::FieldCopy, Fr::N);
            z_repr[i] = z[i].toBigInt();
        }
        std::vector<FrRepr> h_repr(m - 1);
        for (std::size_t i = 0; i + 1 < m; ++i)
            h_repr[i] = h[i].toBigInt();

        const Fr r = Fr::random(rng);
        const Fr s = Fr::random(rng);
        const G1Jac delta1{pk.delta1};
        const G2Jac delta2{pk.delta2};

        // A = alpha + sum z_i [A_i] + r*delta.
        G1Jac a_acc = ec::msmCurve<G1>(pk.aQuery.data(), z_repr.data(),
                                       z_repr.size(), threads);
        a_acc += G1Jac{pk.alpha1};
        a_acc += delta1.mulScalar(r.toBigInt());

        // B (G2 and the G1 copy needed for C).
        G2Jac b_acc = ec::msmCurve<G2>(pk.b2Query.data(), z_repr.data(),
                                       z_repr.size(), threads);
        b_acc += G2Jac{pk.beta2};
        b_acc += delta2.mulScalar(s.toBigInt());

        G1Jac b1_acc = ec::msmCurve<G1>(pk.b1Query.data(),
                                        z_repr.data(), z_repr.size(),
                                        threads);
        b1_acc += G1Jac{pk.beta1};
        b1_acc += delta1.mulScalar(s.toBigInt());

        // C = sum_priv z_i [L_i] + sum_k h_k [H_k] + s*A + r*B1 - rs*delta.
        const std::size_t npub = pk.numPublic;
        G1Jac c_acc = ec::msmCurve<G1>(pk.lQuery.data(),
                                       z_repr.data() + npub + 1,
                                       z_repr.size() - npub - 1,
                                       threads);
        c_acc += ec::msmCurve<G1>(pk.hQuery.data(), h_repr.data(),
                                  h_repr.size(), threads);
        c_acc += a_acc.mulScalar(s.toBigInt());
        c_acc += b1_acc.mulScalar(r.toBigInt());
        c_acc += (-delta1).mulScalar((r * s).toBigInt());

        return Proof{a_acc.toAffine(), b_acc.toAffine(), c_acc.toAffine()};
    }

    /**
     * Verify a proof against the public inputs:
     * e(A, B) == e(alpha, beta) * e(vk_x, gamma) * e(C, delta).
     */
    static bool
    verify(const VerifyingKey& vk, const std::vector<Fr>& public_inputs,
           const Proof& proof)
    {
        assert(public_inputs.size() + 1 == vk.ic.size());

        ZKP_TRACE_SCOPE("verify");

        // vk_x = ic[0] + sum pub_i * ic[i+1] (a small MSM).
        std::vector<FrRepr> repr(public_inputs.size());
        for (std::size_t i = 0; i < public_inputs.size(); ++i)
            repr[i] = public_inputs[i].toBigInt();
        G1Jac vkx = ec::msmCurve<G1>(vk.ic.data() + 1, repr.data(),
                                     repr.size());
        vkx += G1Jac{vk.ic[0]};
        const G1Affine vkx_aff = vkx.toAffine();

        ZKP_TRACE_SCOPE("pairing", "pairs", 3);
        const Fq12 lhs =
            Engine::finalExponentiation(Engine::millerLoop(proof.a,
                                                           proof.b));
        const Fq12 rhs =
            vk.alphaBeta *
            Engine::finalExponentiation(
                Engine::millerLoop(vkx_aff, vk.gamma2) *
                Engine::millerLoop(proof.c, vk.delta2));
        return lhs == rhs;
    }

    /**
     * Batch verification of k proofs with one shared final
     * exponentiation (k + 2 Miller loops instead of 3k): checks
     *   prod_i e(-A_i, B_i)^{r_i} * e(sum r_i vkx_i, gamma)
     *        * e(sum r_i C_i, delta) == alphaBeta^{-sum r_i}
     * for uniformly random nonzero r_i, which holds iff every
     * individual proof verifies (up to ~k/|Fr| soundness error).
     *
     * @param vk verifying key shared by all proofs
     * @param public_inputs per-proof public input vectors
     * @param proofs the proofs, aligned with public_inputs
     * @param rng randomness for the batching scalars
     */
    static bool
    verifyBatch(const VerifyingKey& vk,
                const std::vector<std::vector<Fr>>& public_inputs,
                const std::vector<Proof>& proofs, Rng& rng)
    {
        assert(public_inputs.size() == proofs.size());
        if (proofs.empty())
            return true;

        ZKP_TRACE_SCOPE("verify_batch", "proofs",
                        (obs::u64)proofs.size());

        std::vector<std::pair<G1Affine, G2Affine>> pairs;
        pairs.reserve(proofs.size() + 2);

        G1Jac vkx_sum = G1Jac::infinity();
        G1Jac c_sum = G1Jac::infinity();
        Fr r_sum = Fr::zero();

        for (std::size_t k = 0; k < proofs.size(); ++k) {
            assert(public_inputs[k].size() + 1 == vk.ic.size());
            const Fr r = nonZeroRandom(rng);
            r_sum += r;

            // vkx_k = ic[0] + sum pub_i ic[i+1].
            std::vector<FrRepr> repr(public_inputs[k].size());
            for (std::size_t i = 0; i < repr.size(); ++i)
                repr[i] = public_inputs[k][i].toBigInt();
            G1Jac vkx = ec::msmCurve<G1>(vk.ic.data() + 1, repr.data(),
                                         repr.size());
            vkx += G1Jac{vk.ic[0]};

            vkx_sum += vkx.mulScalar(r.toBigInt());
            c_sum += G1Jac{proofs[k].c}.mulScalar(r.toBigInt());
            pairs.emplace_back(
                (-G1Jac{proofs[k].a}.mulScalar(r.toBigInt()))
                    .toAffine(),
                proofs[k].b);
        }
        pairs.emplace_back(vkx_sum.toAffine(), vk.gamma2);
        pairs.emplace_back(c_sum.toAffine(), vk.delta2);

        const Fq12 lhs = Engine::pairingProduct(pairs);
        const Fq12 rhs = ff::fieldPow(vk.alphaBeta,
                                      BigNum::fromBigInt(
                                          r_sum.toBigInt()))
                             .inverse();
        return lhs == rhs;
    }

    /**
     * Build the process-wide generator tables (ec::generatorTable,
     * shared with KZG) and e(G1, G2) outside a measured region. Real
     * deployments precompute these once per curve; sharing them keeps
     * the measured setup stage linear in the circuit size.
     */
    static void
    prewarmTables()
    {
        (void)ec::generatorTable<G1>();
        (void)ec::generatorTable<G2>();
        (void)gtGenerator();
    }

  private:
    /** e(G1, G2), the base of setup's alphaBeta. */
    static const Fq12&
    gtGenerator()
    {
        static const Fq12 gt =
            Engine::pairing(G1::generator(), G2::generator());
        return gt;
    }

    static Fr
    nonZeroRandom(Rng& rng)
    {
        Fr v = Fr::random(rng);
        while (v.isZero())
            v = Fr::random(rng);
        return v;
    }

    /** Encode scalars against a fixed-base table, in parallel. */
    template <typename Table>
    static auto
    encodeAll(const Table& table, const std::vector<Fr>& scalars,
              std::size_t threads)
    {
        std::vector<FrRepr> repr(scalars.size());
        parallelFor(scalars.size(), threads,
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i)
                            repr[i] = scalars[i].toBigInt();
                    });
        return table.mulAll(repr.data(), repr.size(), threads);
    }
};

} // namespace zkp::snark

#endif // ZKP_SNARK_GROTH16_H
