/**
 * @file
 * Optimal ate pairings for BN254 and BLS12-381.
 *
 * The implementation favours transparency over micro-optimization: G2
 * points are untwisted into E(Fq12) once, the Miller loop then runs in
 * affine coordinates over Fq12 with explicit line evaluations, and the
 * hard part of the final exponentiation is a plain exponentiation by
 * (p^4 - p^2 + 1)/r computed with arbitrary-precision arithmetic. This
 * removes every curve-specific magic constant except the curve family
 * parameter x itself; correctness is established by the bilinearity and
 * non-degeneracy property tests.
 *
 * The ate endomorphism pi(Q) needed by the BN two extra line steps is
 * simply the coordinate-wise p-power Frobenius of the untwisted point.
 */

#ifndef ZKP_PAIRING_PAIRING_H
#define ZKP_PAIRING_PAIRING_H

#include <cassert>
#include <utility>
#include <vector>

#include "common/bignum.h"
#include "ec/groups.h"
#include "ff/fp12.h"
#include "obs/trace.h"
#include "sim/counters.h"

namespace zkp::pairing {

/** BN254 pairing configuration: loop count 6x + 2, two extra steps. */
struct Bn254Config
{
    using Tower = ff::Bn254Tower;
    using G1 = ec::Bn254G1;
    using G2 = ec::Bn254G2;

    static constexpr bool kIsBn = true;
    static constexpr bool kNegativeX = false;

    static BigNum
    millerLoopCount()
    {
        return BigNum(ff::bn254::kX) * BigNum(6) + BigNum(2);
    }
};

/** BLS12-381 pairing configuration: loop count |x|, x negative. */
struct Bls381Config
{
    using Tower = ff::Bls381Tower;
    using G1 = ec::Bls381G1;
    using G2 = ec::Bls381G2;

    static constexpr bool kIsBn = false;
    static constexpr bool kNegativeX = ff::bls381::kXNegative;

    static BigNum millerLoopCount() { return BigNum(ff::bls381::kXAbs); }
};

/**
 * Pairing engine for one curve.
 *
 * @tparam Config Bn254Config or Bls381Config
 */
template <typename Config>
class Engine
{
  public:
    using Tower = typename Config::Tower;
    using Fq = typename Tower::Fq;
    using Fq2 = typename Tower::Fq2;
    using Fq6 = ff::Fp6<Tower>;
    using Fq12 = ff::Fp12<Tower>;
    using G1 = typename Config::G1;
    using G2 = typename Config::G2;
    using G1Affine = typename G1::Affine;
    using G2Affine = typename G2::Affine;

    /** A point of E(Fq12) in affine coordinates. */
    struct PointFq12
    {
        Fq12 x, y;
    };

    /** Embed an Fq element at the Fq12 tower root. */
    static Fq12
    embedFq(const Fq& a)
    {
        return embedFq2(Fq2::fromFq(a));
    }

    /** Embed an Fq2 element at the Fq12 tower root. */
    static Fq12
    embedFq2(const Fq2& a)
    {
        return Fq12(Fq6(a, Fq2::zero(), Fq2::zero()), Fq6::zero());
    }

    /**
     * Untwist a G2 point into E(Fq12).
     *
     * D-twist: (x, y) -> (x w^2, y w^3); M-twist uses the inverse
     * powers. w^2 = v and w^3 = v*w in the tower basis.
     */
    static PointFq12
    untwist(const G2Affine& q)
    {
        assert(!q.infinity);
        const Fq12 w2(Fq6(Fq2::zero(), Fq2::one(), Fq2::zero()),
                      Fq6::zero());
        const Fq12 w3(Fq6::zero(),
                      Fq6(Fq2::zero(), Fq2::one(), Fq2::zero()));
        Fq12 cx, cy;
        if constexpr (G2::kTwistIsM) {
            cx = embedFq2(q.x) * w2.inverse();
            cy = embedFq2(q.y) * w3.inverse();
        } else {
            cx = embedFq2(q.x) * w2;
            cy = embedFq2(q.y) * w3;
        }
        return {cx, cy};
    }

    /**
     * Miller loop for one (P, Q) pair; the result still needs the
     * final exponentiation.
     */
    static Fq12
    millerLoop(const G1Affine& p, const G2Affine& q)
    {
        ZKP_TRACE_SCOPE("pairing_miller_loop");
        sim::count(sim::PrimOp::MillerLoop);
        if (p.infinity || q.infinity)
            return Fq12::one();

        const Fq12 xp = embedFq(p.x);
        const Fq12 yp = embedFq(p.y);
        const PointFq12 qu = untwist(q);

        Fq12 f = Fq12::one();
        PointFq12 t = qu;

        const BigNum loop = Config::millerLoopCount();
        for (std::size_t i = loop.bitLength() - 1; i-- > 0;) {
            f = f.squared() * lineDouble(t, xp, yp);
            t = pointDouble(t);
            if (loop.bit(i)) {
                f *= lineAdd(t, qu, xp, yp);
                t = pointAdd(t, qu);
            }
        }

        if constexpr (Config::kIsBn) {
            // Two extra steps with pi(Q) and -pi^2(Q).
            PointFq12 q1{qu.x.frobenius(), qu.y.frobenius()};
            PointFq12 q2{qu.x.frobenius(2), -(qu.y.frobenius(2))};
            f *= lineAdd(t, q1, xp, yp);
            t = pointAdd(t, q1);
            f *= lineAdd(t, q2, xp, yp);
        } else if constexpr (Config::kNegativeX) {
            f = f.conjugate();
        }
        return f;
    }

    /** Final exponentiation: f^((p^12 - 1) / r). */
    static Fq12
    finalExponentiation(const Fq12& f)
    {
        ZKP_TRACE_SCOPE("pairing_final_exp");
        sim::count(sim::PrimOp::FinalExp);
        // Easy part: f^((p^6 - 1)(p^2 + 1)).
        Fq12 g = f.conjugate() * f.inverse();
        g = g.frobenius(2) * g;

        // Hard part: g^((p^4 - p^2 + 1) / r).
        return g.pow(hardExponent());
    }

    /** Full pairing e(P, Q). */
    static Fq12
    pairing(const G1Affine& p, const G2Affine& q)
    {
        ZKP_TRACE_SCOPE("pairing");
        return finalExponentiation(millerLoop(p, q));
    }

    /**
     * Product of pairings: e(P1,Q1) * ... * e(Pk,Qk) with a single
     * shared final exponentiation (the verifier's hot path).
     */
    static Fq12
    pairingProduct(const std::vector<std::pair<G1Affine, G2Affine>>& pairs)
    {
        ZKP_TRACE_SCOPE("pairing", "pairs", (obs::u64)pairs.size());
        Fq12 acc = Fq12::one();
        for (const auto& [p, q] : pairs)
            acc *= millerLoop(p, q);
        return finalExponentiation(acc);
    }

  private:
    /** (p^4 - p^2 + 1) / r, derived once at startup. */
    static const BigNum&
    hardExponent()
    {
        static const BigNum e = [] {
            const BigNum p = BigNum::fromBigInt(Fq::kModulus);
            const BigNum r =
                BigNum::fromBigInt(G1::Scalar::kModulus);
            const BigNum p2 = p * p;
            const BigNum p4 = p2 * p2;
            return (p4 - p2 + BigNum(1)) / r;
        }();
        return e;
    }

    /** Tangent line at T evaluated at (xp, yp). */
    static Fq12
    lineDouble(const PointFq12& t, const Fq12& xp, const Fq12& yp)
    {
        assert(!t.y.isZero());
        Fq12 x2 = t.x.squared();
        Fq12 lambda = (x2 + x2 + x2) * (t.y + t.y).inverse();
        return yp - t.y - lambda * (xp - t.x);
    }

    /** Chord line through T and Q evaluated at (xp, yp). */
    static Fq12
    lineAdd(const PointFq12& t, const PointFq12& q, const Fq12& xp,
            const Fq12& yp)
    {
        if (t.x == q.x) {
            if (t.y == q.y)
                return lineDouble(t, xp, yp);
            // Vertical line.
            return xp - t.x;
        }
        Fq12 lambda = (q.y - t.y) * (q.x - t.x).inverse();
        return yp - t.y - lambda * (xp - t.x);
    }

    static PointFq12
    pointDouble(const PointFq12& t)
    {
        Fq12 x2 = t.x.squared();
        Fq12 lambda = (x2 + x2 + x2) * (t.y + t.y).inverse();
        Fq12 x3 = lambda.squared() - t.x - t.x;
        Fq12 y3 = lambda * (t.x - x3) - t.y;
        return {x3, y3};
    }

    static PointFq12
    pointAdd(const PointFq12& t, const PointFq12& q)
    {
        if (t.x == q.x && t.y == q.y)
            return pointDouble(t);
        assert(t.x != q.x && "ate loop hit the vertical-line case");
        Fq12 lambda = (q.y - t.y) * (q.x - t.x).inverse();
        Fq12 x3 = lambda.squared() - t.x - q.x;
        Fq12 y3 = lambda * (t.x - x3) - t.y;
        return {x3, y3};
    }
};

using Bn254Engine = Engine<Bn254Config>;
using Bls381Engine = Engine<Bls381Config>;

} // namespace zkp::pairing

#endif // ZKP_PAIRING_PAIRING_H
