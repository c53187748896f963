/**
 * @file
 * Algebraic-law properties for the prime fields and quadratic
 * extensions of both curves, plus self-tests for the zkcheck harness
 * itself (seed determinism, shrinker minimality).
 */

#include <gtest/gtest.h>

#include "ff/tower.h"
#include "zkcheck.h"

namespace zkp::prop {
namespace {

// ---------------------------------------------------------------------
// Harness self-tests
// ---------------------------------------------------------------------

TEST(Harness, CaseSeedsAreDeterministicAndDistinct)
{
    EXPECT_EQ(caseSeed("p", 0), caseSeed("p", 0));
    EXPECT_NE(caseSeed("p", 0), caseSeed("p", 1));
    EXPECT_NE(caseSeed("p", 0), caseSeed("q", 0));
}

TEST(Harness, RngForkStreamsAreIndependent)
{
    Rng parent(7);
    Rng a = parent.fork(0);
    Rng b = parent.fork(1);
    // Distinct streams disagree...
    bool differs = false;
    for (int i = 0; i < 8; ++i)
        differs |= a.next() != b.next();
    EXPECT_TRUE(differs);
    // ...and reconstructing the parent reproduces the same children.
    Rng parent2(7);
    Rng a2 = parent2.fork(0);
    Rng a3(9);
    (void)a3;
    Rng check(7);
    Rng a4 = check.fork(0);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(a2.next(), a4.next());
}

TEST(Harness, ShrinkVectorFindsMinimalSubset)
{
    // "Fails" iff the set contains both 13 and 42.
    auto fails = [](const std::vector<int>& v) {
        bool a = false, b = false;
        for (int x : v) {
            a |= x == 13;
            b |= x == 42;
        }
        return a && b;
    };
    std::vector<int> start;
    for (int i = 0; i < 64; ++i)
        start.push_back(i);
    ASSERT_TRUE(fails(start));
    auto min = shrinkVector(start, fails);
    ASSERT_EQ(min.size(), 2u);
    EXPECT_TRUE(fails(min));
}

TEST(Harness, ShrinkSizeDescends)
{
    // Fails for any n >= 17.
    auto fails = [](std::size_t n) { return n >= 17; };
    EXPECT_EQ(shrinkSize(1000, 1, fails), 17u);
    // Predicate failing everywhere shrinks to the floor.
    EXPECT_EQ(shrinkSize(64, 4, [](std::size_t) { return true; }), 4u);
}

TEST(Harness, ForAllRunsRequestedIterations)
{
    std::size_t calls = 0;
    forAll("harness_count", 11, [&](Rng&, std::size_t) { ++calls; });
    EXPECT_EQ(calls, scaledIters(11));
}

// ---------------------------------------------------------------------
// Prime-field laws (both curves, base and scalar fields)
// ---------------------------------------------------------------------

template <typename F>
class PrimeFieldLaws : public ::testing::Test
{
};

using PrimeFields =
    ::testing::Types<ff::bn254::Fr, ff::bn254::Fq, ff::bls381::Fr,
                     ff::bls381::Fq>;
TYPED_TEST_SUITE(PrimeFieldLaws, PrimeFields);

TYPED_TEST(PrimeFieldLaws, RingAxioms)
{
    using F = TypeParam;
    forAll("field_ring_axioms", 32, [&](Rng& rng, std::size_t) {
        const F a = F::random(rng), b = F::random(rng),
                c = F::random(rng);
        EXPECT_EQ((a + b) + c, a + (b + c));
        EXPECT_EQ(a + b, b + a);
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ(a * (b + c), a * b + a * c);
        EXPECT_EQ(a + F::zero(), a);
        EXPECT_EQ(a * F::one(), a);
        EXPECT_EQ(a - a, F::zero());
        EXPECT_EQ(a + (-a), F::zero());
        EXPECT_EQ(a.doubled(), a + a);
        EXPECT_EQ(a.squared(), a * a);
    });
}

TYPED_TEST(PrimeFieldLaws, InverseAndBatchInverse)
{
    using F = TypeParam;
    forAll("field_inverse", 16, [&](Rng& rng, std::size_t) {
        const F a = genNonZero<F>(rng);
        EXPECT_EQ(a * a.inverse(), F::one());
        EXPECT_EQ(a.inverse(), a.inverseFermat());

        std::vector<F> xs(9);
        for (auto& x : xs)
            x = genNonZero<F>(rng);
        std::vector<F> batch = xs;
        ff::batchInverse(batch.data(), batch.size());
        for (std::size_t i = 0; i < xs.size(); ++i)
            EXPECT_EQ(batch[i], xs[i].inverse());
    });
}

TYPED_TEST(PrimeFieldLaws, CanonicalRoundTripAndPow)
{
    using F = TypeParam;
    forAll("field_roundtrip_pow", 16, [&](Rng& rng, std::size_t) {
        const F a = F::random(rng);
        EXPECT_EQ(F::fromBigInt(a.toBigInt()), a);
        EXPECT_EQ(F::fromRaw(a.raw()), a);
        EXPECT_TRUE(a.toBigInt() < F::kModulus);

        const u64 m = rng.nextBelow(32), n = rng.nextBelow(32);
        EXPECT_EQ(a.pow(m) * a.pow(n), a.pow(m + n));
        EXPECT_EQ(a.pow((u64)0), F::one());
        // Fermat: a^p == a.
        EXPECT_EQ(a.pow(F::kModulus), a);
    });
}

TYPED_TEST(PrimeFieldLaws, SqrtAndLegendre)
{
    using F = TypeParam;
    forAll("field_sqrt", 12, [&](Rng& rng, std::size_t) {
        const F a = genNonZero<F>(rng);
        const F sq = a.squared();
        EXPECT_EQ(sq.legendre(), 1);
        F root;
        ASSERT_TRUE(sq.sqrt(root));
        EXPECT_TRUE(root == a || root == -a);
        // Legendre is multiplicative.
        const F b = genNonZero<F>(rng);
        EXPECT_EQ((a * b).legendre(), a.legendre() * b.legendre());
        // Non-residues have no root.
        if (a.legendre() == -1) {
            F r2;
            EXPECT_FALSE(a.sqrt(r2));
        }
    });
}

// ---------------------------------------------------------------------
// Quadratic-extension laws
// ---------------------------------------------------------------------

template <typename F2>
class QuadraticFieldLaws : public ::testing::Test
{
};

using QuadraticFields =
    ::testing::Types<ff::Bn254Tower::Fq2, ff::Bls381Tower::Fq2>;
TYPED_TEST_SUITE(QuadraticFieldLaws, QuadraticFields);

TYPED_TEST(QuadraticFieldLaws, RingAxiomsAndInverse)
{
    using F = TypeParam;
    forAll("fq2_ring_axioms", 24, [&](Rng& rng, std::size_t) {
        const F a = F::random(rng), b = F::random(rng),
                c = F::random(rng);
        EXPECT_EQ((a + b) + c, a + (b + c));
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ(a * (b + c), a * b + a * c);
        EXPECT_EQ(a.squared(), a * a);
        if (!a.isZero()) {
            EXPECT_EQ(a * a.inverse(), F::one());
        }
        // Norm is multiplicative (it is the map to the base field).
        EXPECT_EQ((a * b).norm(), a.norm() * b.norm());
        // Conjugation is a ring homomorphism.
        EXPECT_EQ((a * b).conjugate(), a.conjugate() * b.conjugate());
    });
}

TYPED_TEST(QuadraticFieldLaws, SqrtOfSquareRecoversRoot)
{
    using F = TypeParam;
    forAll("fq2_sqrt", 12, [&](Rng& rng, std::size_t) {
        const F a = F::random(rng);
        const F sq = a.squared();
        F root;
        ASSERT_TRUE(sq.sqrt(root));
        EXPECT_TRUE(root == a || root == -a);
        EXPECT_EQ(root.squared(), sq);
    });
}

} // namespace
} // namespace zkp::prop
