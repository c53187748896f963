/**
 * @file
 * KZG polynomial commitments (Kate-Zaverucha-Goldberg) — the
 * commitment scheme underlying PlonK, the second proving scheme the
 * paper's snarkjs artifact supports.
 *
 * SRS: [tau^i]_1 for i <= degree, plus [1]_2 and [tau]_2.
 * Commit: C = [p(tau)]_1 via MSM over the SRS.
 * Open at z: witness W = [(p(X) - p(z)) / (X - z) at tau]_1.
 * Verify: e(C - [v]_1, [1]_2) == e(W, [tau - z]_2), checked as a
 * two-pairing product.
 */

#ifndef ZKP_SNARK_KZG_H
#define ZKP_SNARK_KZG_H

#include <cassert>
#include <vector>

#include "ec/fixed_base.h"
#include "ec/msm.h"
#include "snark/curve.h"

namespace zkp::snark {

/**
 * KZG commitment scheme over one curve configuration.
 *
 * @tparam Curve snark::Bn254 or snark::Bls381
 */
template <typename Curve>
class Kzg
{
  public:
    using Fr = typename Curve::Fr;
    using FrRepr = typename Fr::Repr;
    using G1 = typename Curve::G1;
    using G2 = typename Curve::G2;
    using G1Affine = typename G1::Affine;
    using G2Affine = typename G2::Affine;
    using G1Jac = typename G1::Jacobian;
    using Engine = typename Curve::Engine;

    /** Structured reference string. */
    struct Srs
    {
        /// [tau^i]_1 for i = 0 .. maxDegree.
        std::vector<G1Affine> g1Powers;
        G2Affine g2;
        G2Affine g2Tau;

        std::size_t maxDegree() const { return g1Powers.size() - 1; }
    };

    /** A commitment is a single G1 point. */
    using Commitment = G1Affine;

    /** An opening proof is a single G1 point. */
    using OpeningProof = G1Affine;

    /**
     * Generate an SRS supporting polynomials up to @p max_degree
     * (trusted: tau is toxic waste).
     */
    static Srs
    setup(std::size_t max_degree, Rng& rng, std::size_t threads = 1)
    {
        Fr tau = Fr::random(rng);
        while (tau.isZero())
            tau = Fr::random(rng);

        std::vector<FrRepr> powers(max_degree + 1);
        Fr cur = Fr::one();
        for (auto& p : powers) {
            p = cur.toBigInt();
            cur *= tau;
        }

        Srs srs;
        srs.g1Powers = ec::generatorTable<G1>().mulAll(
            powers.data(), powers.size(), threads);
        srs.g2 = G2::generator();
        srs.g2Tau = ec::generatorTable<G2>().mul(tau.toBigInt()).toAffine();
        return srs;
    }

    /** Commit to a coefficient vector (degree < srs capacity). */
    static Commitment
    commit(const Srs& srs, const std::vector<Fr>& coeffs,
           std::size_t threads = 1)
    {
        assert(coeffs.size() <= srs.g1Powers.size());
        std::vector<FrRepr> repr(coeffs.size());
        for (std::size_t i = 0; i < coeffs.size(); ++i)
            repr[i] = coeffs[i].toBigInt();
        return ec::msmCurve<G1>(srs.g1Powers.data(), repr.data(),
                                repr.size(), threads)
            .toAffine();
    }

    /** Evaluate a coefficient vector at @p x (Horner). */
    static Fr
    evaluate(const std::vector<Fr>& coeffs, const Fr& x)
    {
        Fr acc = Fr::zero();
        for (std::size_t i = coeffs.size(); i-- > 0;)
            acc = acc * x + coeffs[i];
        return acc;
    }

    /**
     * Quotient (p(X) - p(z)) / (X - z) by synthetic division.
     * The division is exact by construction.
     */
    static std::vector<Fr>
    quotientAt(const std::vector<Fr>& coeffs, const Fr& z)
    {
        if (coeffs.empty())
            return {};
        std::vector<Fr> q(coeffs.size() - 1, Fr::zero());
        Fr carry = Fr::zero();
        for (std::size_t i = coeffs.size(); i-- > 1;) {
            carry = coeffs[i] + carry * z;
            q[i - 1] = carry;
        }
        return q;
    }

    /** Opening proof for p at z. */
    static OpeningProof
    open(const Srs& srs, const std::vector<Fr>& coeffs, const Fr& z,
         std::size_t threads = 1)
    {
        return commit(srs, quotientAt(coeffs, z), threads);
    }

    /**
     * Verify that commitment @p c opens to value @p v at point @p z.
     */
    static bool
    verify(const Srs& srs, const Commitment& c, const Fr& z,
           const Fr& v, const OpeningProof& w)
    {
        // e(C - [v]_1, [1]_2) * e(-W, [tau - z]_2) == 1.
        G1Jac lhs = G1Jac{c} - G1Jac{G1::generator()}.mulScalar(
                                   v.toBigInt());
        typename G2::Jacobian tz =
            typename G2::Jacobian{srs.g2Tau} -
            typename G2::Jacobian{srs.g2}.mulScalar(z.toBigInt());

        auto product = Engine::pairingProduct(
            {{lhs.toAffine(), srs.g2},
             {(-G1Jac{w}).toAffine(), tz.toAffine()}});
        return product.isOne();
    }

    /**
     * Batch opening of several polynomials at the same point: the
     * proof is the opening of sum nu^i p_i; the verifier checks it
     * against sum nu^i C_i and sum nu^i v_i.
     */
    static OpeningProof
    openBatch(const Srs& srs,
              const std::vector<const std::vector<Fr>*>& polys,
              const Fr& z, const Fr& nu, std::size_t threads = 1)
    {
        std::size_t max_len = 0;
        for (const auto* p : polys)
            max_len = std::max(max_len, p->size());
        std::vector<Fr> combined(max_len, Fr::zero());
        Fr scale = Fr::one();
        for (const auto* p : polys) {
            for (std::size_t i = 0; i < p->size(); ++i)
                combined[i] += (*p)[i] * scale;
            scale *= nu;
        }
        return open(srs, combined, z, threads);
    }

    /** Verify a same-point batch opening. */
    static bool
    verifyBatch(const Srs& srs, const std::vector<Commitment>& cs,
                const Fr& z, const std::vector<Fr>& values,
                const Fr& nu, const OpeningProof& w)
    {
        assert(cs.size() == values.size());
        G1Jac combined_c = G1Jac::infinity();
        Fr combined_v = Fr::zero();
        Fr scale = Fr::one();
        for (std::size_t i = 0; i < cs.size(); ++i) {
            combined_c += G1Jac{cs[i]}.mulScalar(scale.toBigInt());
            combined_v += values[i] * scale;
            scale *= nu;
        }
        return verify(srs, combined_c.toAffine(), z, combined_v, w);
    }
};

} // namespace zkp::snark

#endif // ZKP_SNARK_KZG_H
