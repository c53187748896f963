/**
 * @file
 * GLV endomorphism and batch-affine accumulator properties.
 *
 * The endomorphism path rewrites every scalar as k1 + lambda*k2 with
 * half-width k1, k2 and doubles the point set; any error in the
 * lattice arithmetic or the sign handling silently corrupts proofs.
 * These suites pin (a) the decomposition congruence itself on the
 * adversarial scalar set {0, 1, r-1, lambda, r-lambda} plus random
 * values, (b) end-to-end MSM-with-endomorphism against the naive
 * double-and-add reference, also over degenerate scalar distributions
 * (all equal, all one, binary, sparse, few distinct values) that pile
 * every add of a window into a few buckets, and (c) the batch-affine
 * bucket adder against Jacobian accumulation under adversarial bucket
 * collisions (every scheduling path: direct store, chord, tangent,
 * P + (-P), parked and paired colliding adds, mid-stream flush).
 */

#include <gtest/gtest.h>

#include "ec/batch_add.h"
#include "ec/glv.h"
#include "ec/groups.h"
#include "ec/msm.h"
#include "zkcheck.h"

namespace zkp::prop {
namespace {

template <typename G>
class GlvLaws : public ::testing::Test
{
};

using GlvGroups = ::testing::Types<ec::Bn254G1, ec::Bls381G1>;
TYPED_TEST_SUITE(GlvLaws, GlvGroups);

/** The recoding-hostile scalar set the ISSUE pins, plus randoms. */
template <typename G>
std::vector<typename G::Scalar::Repr>
adversarialScalars(Rng& rng, std::size_t extra)
{
    using Fr = typename G::Scalar;
    const auto& glv = ec::Glv<G>::instance();
    const Fr lam = Fr::fromBigInt(glv.lambda());
    std::vector<typename Fr::Repr> out{
        Fr::zero().toBigInt(),  Fr::one().toBigInt(),
        (-Fr::one()).toBigInt(), // r - 1
        glv.lambda(),
        (-lam).toBigInt(), // r - lambda
    };
    for (std::size_t i = 0; i < extra; ++i)
        out.push_back(Fr::random(rng).toBigInt());
    return out;
}

TYPED_TEST(GlvLaws, DecompositionIsCongruentAndShort)
{
    using G = TypeParam;
    using Fr = typename G::Scalar;
    using Repr = typename Fr::Repr;
    using GlvT = ec::Glv<G>;

    const GlvT& glv = GlvT::instance();
    ASSERT_TRUE(glv.usable());
    const Fr lam = Fr::fromBigInt(glv.lambda());

    forAll("glv_congruence", 8, [&](Rng& rng, std::size_t) {
        for (const Repr& k : adversarialScalars<G>(rng, 8)) {
            typename GlvT::HalfScalar k1, k2;
            glv.decompose(k, k1, k2);

            EXPECT_LE(k1.mag.bitLength(), glv.halfBits());
            EXPECT_LE(k2.mag.bitLength(), glv.halfBits());

            Fr s1 = Fr::fromBigInt(zeroExtend<Repr::kLimbs>(k1.mag));
            Fr s2 = Fr::fromBigInt(zeroExtend<Repr::kLimbs>(k2.mag));
            if (k1.neg)
                s1 = -s1;
            if (k2.neg)
                s2 = -s2;
            EXPECT_EQ(s1 + lam * s2, Fr::fromBigInt(k));
        }
    });
}

TYPED_TEST(GlvLaws, EndomorphismActsAsLambda)
{
    using G = TypeParam;
    using Jac = typename G::Jacobian;

    const auto& glv = ec::Glv<G>::instance();
    ASSERT_TRUE(glv.usable());

    forAll("glv_endo_is_lambda", 4, [&](Rng& rng, std::size_t) {
        const auto p = genPoint<G>(rng);
        const auto phi = glv.endo(p);
        EXPECT_TRUE(phi.isOnCurve(G::b()));
        EXPECT_EQ(Jac{phi}, Jac{p}.mulScalar(glv.lambda()));
        // phi(infinity) == infinity.
        EXPECT_TRUE(glv.endo(typename G::Affine()).infinity);
    });
}

TYPED_TEST(GlvLaws, MsmWithEndoMatchesNaive)
{
    using G = TypeParam;
    using Jac = typename G::Jacobian;

    forAll("glv_msm_vs_naive", 4, [&](Rng& rng, std::size_t) {
        auto scalars = adversarialScalars<G>(rng, 6 + rng.nextBelow(8));
        const std::size_t n = scalars.size();
        const Jac g{G::generator()};
        std::vector<typename G::Affine> pts;
        for (std::size_t i = 0; i < n; ++i)
            pts.push_back(
                g.mulScalar(rng.nextBelow(1000) + 1).toAffine());
        pts[0] = typename G::Affine(); // infinity point through endo()

        const auto naive =
            ec::msmNaive<Jac>(pts.data(), scalars.data(), n);
        EXPECT_EQ(ec::msmGlv<G>(pts.data(), scalars.data(), n), naive);
        EXPECT_EQ(ec::msmGlv<G>(pts.data(), scalars.data(), n, 2),
                  naive);
        // The dispatching front end (below the GLV size floor here).
        EXPECT_EQ(ec::msmCurve<G>(pts.data(), scalars.data(), n),
                  naive);
    });
}

// One case above kMsmGlvMin so msmCurve actually takes the GLV branch.
TYPED_TEST(GlvLaws, MsmCurveDispatchesGlvAboveFloor)
{
    using G = TypeParam;
    using Fr = typename G::Scalar;
    using Jac = typename G::Jacobian;

    forAll("glv_msm_dispatch", 1, [&](Rng& rng, std::size_t) {
        const std::size_t n = ec::kMsmGlvMin + 16;
        const Jac g{G::generator()};
        std::vector<typename G::Affine> pts;
        std::vector<typename Fr::Repr> scalars;
        for (std::size_t i = 0; i < n; ++i) {
            pts.push_back(
                g.mulScalar(rng.nextBelow(4096) + 1).toAffine());
            scalars.push_back(Fr::random(rng).toBigInt());
        }
        EXPECT_EQ(ec::msmCurve<G>(pts.data(), scalars.data(), n),
                  ec::msmSerial<Jac>(pts.data(), scalars.data(), n));
    });
}

// ---------------------------------------------------------------------
// MSM over degenerate scalar distributions
// ---------------------------------------------------------------------

template <typename G>
class MsmDistributions : public ::testing::Test
{
};

// G1 of both curves takes the GLV path; G2 runs full-width scalars.
using MsmGroups = ::testing::Types<ec::Bn254G1, ec::Bn254G2, ec::Bls381G1>;
TYPED_TEST_SUITE(MsmDistributions, MsmGroups);

enum class ScalarDist
{
    Random,
    AllEqual,
    AllOne,
    Binary,
    Sparse, ///< 90% zero
    FewValues, ///< at most 8 distinct values
};

template <typename Fr>
std::vector<Fr>
genScalars(Rng& rng, ScalarDist dist, std::size_t n)
{
    std::vector<Fr> few{Fr::zero(), Fr::one(), -Fr::one()};
    while (few.size() < 8)
        few.push_back(Fr::random(rng));
    const Fr k = Fr::random(rng);
    std::vector<Fr> out(n);
    for (Fr& s : out) {
        switch (dist) {
        case ScalarDist::Random: s = Fr::random(rng); break;
        case ScalarDist::AllEqual: s = k; break;
        case ScalarDist::AllOne: s = Fr::one(); break;
        case ScalarDist::Binary:
            s = rng.nextBool() ? Fr::one() : Fr::zero();
            break;
        case ScalarDist::Sparse:
            s = rng.nextBelow(10) == 0 ? Fr::random(rng) : Fr::zero();
            break;
        case ScalarDist::FewValues: s = few[rng.nextBelow(8)]; break;
        }
    }
    return out;
}

// msmCurve against msmNaive when the scalars are not random: all
// equal and all one put every add of a window into one or two
// buckets, binary and sparse leave most digits zero, few values reach
// a handful of buckets. The points are drawn with repeats from a small
// pool holding each point's negation (and infinity), so colliding
// adds and their pair sums hit P + P and P + (-P). The sizes reach the
// GLV split, input chunking (1 thread) and window parallelism
// (4 threads). msmNaive runs over the same terms grouped by point
// (each pool point times the sum of its scalars), which is the same
// group element at a fraction of the double-and-add cost.
TYPED_TEST(MsmDistributions, MsmCurveMatchesNaive)
{
    using G = TypeParam;
    using Fr = typename G::Scalar;
    using Aff = typename G::Affine;
    using Jac = typename G::Jacobian;

    forAll("msm_scalar_distributions", 2, [&](Rng& rng, std::size_t) {
        std::vector<Aff> pool{Aff()};
        for (std::size_t i = 0; i < 12; ++i) {
            pool.push_back(genPoint<G>(rng));
            pool.push_back(pool.back().negated());
        }
        for (std::size_t n : {ec::kMsmGlvMin + 1 + rng.nextBelow(256),
                              std::size_t(4096) + rng.nextBelow(64)}) {
            std::vector<std::size_t> pick(n);
            std::vector<Aff> pts(n);
            for (std::size_t i = 0; i < n; ++i) {
                pick[i] = rng.nextBelow(pool.size());
                pts[i] = pool[pick[i]];
            }
            for (ScalarDist dist :
                 {ScalarDist::Random, ScalarDist::AllEqual,
                  ScalarDist::AllOne, ScalarDist::Binary,
                  ScalarDist::Sparse, ScalarDist::FewValues}) {
                const auto scalars = genScalars<Fr>(rng, dist, n);
                std::vector<Fr> grouped(pool.size(), Fr::zero());
                std::vector<typename Fr::Repr> repr(n);
                for (std::size_t i = 0; i < n; ++i) {
                    grouped[pick[i]] += scalars[i];
                    repr[i] = scalars[i].toBigInt();
                }
                std::vector<typename Fr::Repr> grouped_repr;
                for (const Fr& s : grouped)
                    grouped_repr.push_back(s.toBigInt());
                const Jac naive = ec::msmNaive<Jac>(
                    pool.data(), grouped_repr.data(), pool.size());
                for (std::size_t threads : {1, 4})
                    EXPECT_EQ(ec::msmCurve<G>(pts.data(), repr.data(), n,
                                              threads),
                              naive)
                        << "distribution " << (int)dist << ", " << n
                        << " points, " << threads << " threads";
            }
        }
    });
}

// ---------------------------------------------------------------------
// Batch-affine accumulator vs Jacobian reference under collisions
// ---------------------------------------------------------------------

TYPED_TEST(GlvLaws, BatchAffineMatchesJacobianUnderCollisions)
{
    using G = TypeParam;
    using Field = typename G::Field;
    using Aff = typename G::Affine;
    using Jac = typename G::Jacobian;

    forAll("batch_affine_colliding", 6, [&](Rng& rng, std::size_t) {
        const Jac g{G::generator()};
        // A small pool makes doublings (bucket == incoming point) and
        // P + (-P) cancellations occur organically.
        std::vector<Aff> pool;
        for (std::size_t i = 0; i < 5; ++i) {
            pool.push_back(
                g.mulScalar(rng.nextBelow(64) + 1).toAffine());
            pool.push_back(pool.back().negated());
        }

        const std::size_t buckets = 4;
        // Tiny batch cap: forces many mid-stream flushes and keeps
        // colliding adds parked and paired.
        ec::BatchAffineAdder<Field> acc(buckets, 4);
        acc.reset(buckets);
        std::vector<Jac> ref(buckets);

        const std::size_t adds = 48 + rng.nextBelow(48);
        for (std::size_t i = 0; i < adds; ++i) {
            // Heavily biased toward one bucket: the adversarial
            // stream that pairs colliding adds.
            const std::size_t b =
                rng.nextBool() ? 0 : rng.nextBelow(buckets);
            const Aff& p = pool[rng.nextBelow(pool.size())];
            acc.add(b, p);
            ref[b] = ref[b].addMixed(p);
        }
        acc.flush();
        for (std::size_t b = 0; b < buckets; ++b)
            EXPECT_EQ(Jac{acc.buckets()[b]}, ref[b]) << "bucket " << b;
    });
}

TYPED_TEST(GlvLaws, BatchAffineSingleBucketWorstCase)
{
    using G = TypeParam;
    using Field = typename G::Field;
    using Aff = typename G::Affine;
    using Jac = typename G::Jacobian;

    forAll("batch_affine_one_bucket", 3, [&](Rng& rng, std::size_t) {
        const Jac g{G::generator()};
        ec::BatchAffineAdder<Field> acc(1, 8);
        acc.reset(1);
        Jac ref;
        const std::size_t adds = 32 + rng.nextBelow(32);
        for (std::size_t i = 0; i < adds; ++i) {
            Aff p = g.mulScalar(rng.nextBelow(8) + 1).toAffine();
            if (rng.nextBool())
                p = p.negated();
            acc.add(0, p); // every add after the first collides
            ref = ref.addMixed(p);
        }
        acc.flush();
        EXPECT_EQ(Jac{acc.buckets()[0]}, ref);
    });
}

} // namespace
} // namespace zkp::prop
