/**
 * @file
 * Unit and property tests for the prime fields and extension towers.
 */

#include <gtest/gtest.h>

#include "common/bignum.h"
#include "common/rng.h"
#include "ff/field_util.h"
#include "ff/fp12.h"
#include "ff/params.h"

namespace zkp::ff {
namespace {

// ---------------------------------------------------------------------
// Typed field-axiom tests across all four prime fields.
// ---------------------------------------------------------------------

template <typename F>
class PrimeFieldTest : public ::testing::Test
{
};

using PrimeFields =
    ::testing::Types<bn254::Fq, bn254::Fr, bls381::Fq, bls381::Fr>;
TYPED_TEST_SUITE(PrimeFieldTest, PrimeFields);

TYPED_TEST(PrimeFieldTest, Identities)
{
    using F = TypeParam;
    Rng rng(1);
    for (int i = 0; i < 32; ++i) {
        F a = F::random(rng);
        EXPECT_EQ(a + F::zero(), a);
        EXPECT_EQ(a * F::one(), a);
        EXPECT_EQ(a - a, F::zero());
        EXPECT_EQ(a + (-a), F::zero());
        EXPECT_EQ(a * F::zero(), F::zero());
    }
}

TYPED_TEST(PrimeFieldTest, CommutativityAssociativityDistributivity)
{
    using F = TypeParam;
    Rng rng(2);
    for (int i = 0; i < 32; ++i) {
        F a = F::random(rng);
        F b = F::random(rng);
        F c = F::random(rng);
        EXPECT_EQ(a + b, b + a);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a + b) + c, a + (b + c));
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * (b + c), a * b + a * c);
    }
}

TYPED_TEST(PrimeFieldTest, InverseRoundTrip)
{
    using F = TypeParam;
    Rng rng(3);
    for (int i = 0; i < 16; ++i) {
        F a = F::random(rng);
        if (a.isZero())
            continue;
        EXPECT_EQ(a * a.inverse(), F::one());
    }
}

TYPED_TEST(PrimeFieldTest, MontgomeryRoundTrip)
{
    using F = TypeParam;
    Rng rng(4);
    for (int i = 0; i < 16; ++i) {
        F a = F::random(rng);
        EXPECT_EQ(F::fromBigInt(a.toBigInt()), a);
    }
    EXPECT_EQ(F::fromU64(1), F::one());
    EXPECT_TRUE(F::fromU64(0).isZero());
}

TYPED_TEST(PrimeFieldTest, MatchesBigNumReference)
{
    // Cross-check Montgomery multiplication against the independent
    // dynamic bignum implementation.
    using F = TypeParam;
    const BigNum p = BigNum::fromBigInt(F::kModulus);
    Rng rng(5);
    for (int i = 0; i < 16; ++i) {
        F a = F::random(rng);
        F b = F::random(rng);
        BigNum ref = (BigNum::fromBigInt(a.toBigInt()) *
                      BigNum::fromBigInt(b.toBigInt())) %
                     p;
        EXPECT_EQ(BigNum::fromBigInt((a * b).toBigInt()), ref);

        BigNum sum = (BigNum::fromBigInt(a.toBigInt()) +
                      BigNum::fromBigInt(b.toBigInt())) %
                     p;
        EXPECT_EQ(BigNum::fromBigInt((a + b).toBigInt()), sum);
    }
}

TYPED_TEST(PrimeFieldTest, FermatLittleTheorem)
{
    using F = TypeParam;
    Rng rng(6);
    F a = F::random(rng);
    typename F::Repr e = F::kModulus;
    e.subInPlace(typename F::Repr(1));
    EXPECT_EQ(a.pow(e), F::one());
}

TYPED_TEST(PrimeFieldTest, SqrtOfSquare)
{
    using F = TypeParam;
    Rng rng(7);
    for (int i = 0; i < 8; ++i) {
        F a = F::random(rng);
        F sq = a.squared();
        F root;
        ASSERT_TRUE(sq.sqrt(root));
        EXPECT_TRUE(root == a || root == -a);
    }
}

TYPED_TEST(PrimeFieldTest, LegendreSymbol)
{
    using F = TypeParam;
    Rng rng(8);
    F a = F::random(rng);
    while (a.isZero())
        a = F::random(rng);
    EXPECT_EQ(a.squared().legendre(), 1);
    EXPECT_EQ(F::zero().legendre(), 0);
}

TYPED_TEST(PrimeFieldTest, BatchInverseMatchesSingle)
{
    using F = TypeParam;
    Rng rng(9);
    std::vector<F> v;
    for (int i = 0; i < 20; ++i) {
        F a = F::random(rng);
        if (!a.isZero())
            v.push_back(a);
    }
    std::vector<F> batch = v;
    batchInverse(batch.data(), batch.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_EQ(batch[i], v[i].inverse());
}

TYPED_TEST(PrimeFieldTest, MulBatchAllImplsMatchOperator)
{
    using F = TypeParam;
    Rng rng(7);
    constexpr std::size_t kMaxN = 37;
    std::vector<F> a(kMaxN), b(kMaxN);
    for (std::size_t i = 0; i < kMaxN; ++i) {
        a[i] = F::random(rng);
        b[i] = F::random(rng);
    }
    // Edge values among random ones.
    a[0] = F::zero();
    b[1] = F::zero();
    a[2] = F::one();
    b[3] = -F::one();

    std::vector<MulImpl> impls = {MulImpl::kScalar};
    if (ifmaSupported())
        impls.push_back(MulImpl::kIfma);
    // Lengths on both sides of every 8-wide IFMA block / scalar tail
    // boundary.
    for (std::size_t n : {0, 1, 7, 8, 9, 15, 16, 17, 37}) {
        std::vector<F> expect(n), square(n);
        for (std::size_t i = 0; i < n; ++i) {
            expect[i] = a[i] * b[i];
            square[i] = a[i] * a[i];
        }
        for (MulImpl impl : impls) {
            SCOPED_TRACE(::testing::Message()
                         << "impl=" << (int)impl << " n=" << n);
            std::vector<F> out(n);
            F::mulBatch(out.data(), a.data(), b.data(), n, impl);
            EXPECT_EQ(out, expect);

            // In-place aliasing, as BatchAffineAdder::flush uses it:
            // out == a, out == b, and out == a == b.
            std::vector<F> lhs(a.begin(), a.begin() + n);
            F::mulBatch(lhs.data(), lhs.data(), b.data(), n, impl);
            EXPECT_EQ(lhs, expect);
            std::vector<F> rhs(b.begin(), b.begin() + n);
            F::mulBatch(rhs.data(), a.data(), rhs.data(), n, impl);
            EXPECT_EQ(rhs, expect);
            std::vector<F> both(a.begin(), a.begin() + n);
            F::mulBatch(both.data(), both.data(), both.data(), n, impl);
            EXPECT_EQ(both, square);
        }
    }

    // The generic helper routes prime fields through the same kernel.
    std::vector<F> generic(kMaxN);
    mulBatch(generic.data(), a.data(), b.data(), kMaxN);
    for (std::size_t i = 0; i < kMaxN; ++i)
        EXPECT_EQ(generic[i], a[i] * b[i]);
}

TEST(MulBatch, ExtensionFieldFallback)
{
    using F2 = Bn254Tower::Fq2;
    Rng rng(8);
    constexpr std::size_t kN = 9;
    std::vector<F2> a(kN), b(kN), out(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        a[i] = F2::random(rng);
        b[i] = F2::random(rng);
    }
    mulBatch(out.data(), a.data(), b.data(), kN);
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(out[i], a[i] * b[i]);
}

TEST(FieldParams, ModulusProperties)
{
    // Both base fields are 3 mod 4 (so u^2 = -1 builds Fp2) and both
    // scalar fields have high two-adicity (so radix-2 NTT domains
    // exist for every circuit size the paper sweeps).
    EXPECT_EQ(bn254::Fq::kModulus.limbs[0] & 3, 3u);
    EXPECT_EQ(bls381::Fq::kModulus.limbs[0] & 3, 3u);

    auto two_adicity = [](auto m) {
        std::size_t s = 0;
        m.subInPlace(decltype(m)(1));
        while (!m.isOdd()) {
            m.shr1InPlace();
            ++s;
        }
        return s;
    };
    EXPECT_GE(two_adicity(bn254::Fr::kModulus), 28u);
    EXPECT_GE(two_adicity(bls381::Fr::kModulus), 32u);
}

TEST(FieldParams, MontgomeryConstants)
{
    // R * R^-1 = 1: one() converts back to integer 1.
    EXPECT_EQ(bn254::Fq::one().toBigInt(), BigInt<4>(1));
    EXPECT_EQ(bls381::Fq::one().toBigInt(), BigInt<6>(1));
    // n0 * p = -1 mod 2^64.
    EXPECT_EQ(bn254::Fq::kN0 * bn254::Fq::kModulus.limbs[0], ~(u64)0);
    EXPECT_EQ(bls381::Fq::kN0 * bls381::Fq::kModulus.limbs[0], ~(u64)0);
}

// ---------------------------------------------------------------------
// Tower field tests, typed over both towers.
// ---------------------------------------------------------------------

template <typename Tower>
class TowerTest : public ::testing::Test
{
};

using Towers = ::testing::Types<Bn254Tower, Bls381Tower>;
TYPED_TEST_SUITE(TowerTest, Towers);

TYPED_TEST(TowerTest, XiIsNotACube)
{
    // xi must be a cubic and quadratic non-residue in Fp2 for the
    // tower to be a field: check via xi^((p^2-1)/3) != 1 and
    // xi^((p^2-1)/2) != 1.
    using Tower = TypeParam;
    using Fq = typename Tower::Fq;
    const BigNum p = BigNum::fromBigInt(Fq::kModulus);
    const BigNum p2m1 = p * p - BigNum(1);
    auto xi = Tower::xi();
    EXPECT_FALSE(fieldPow(xi, p2m1 / BigNum(3)) == Tower::Fq2::one());
    EXPECT_FALSE(fieldPow(xi, p2m1 / BigNum(2)) == Tower::Fq2::one());
}

TYPED_TEST(TowerTest, Fp2FieldAxioms)
{
    using Fq2 = typename TypeParam::Fq2;
    Rng rng(10);
    for (int i = 0; i < 16; ++i) {
        Fq2 a = Fq2::random(rng);
        Fq2 b = Fq2::random(rng);
        Fq2 c = Fq2::random(rng);
        EXPECT_EQ(a * (b + c), a * b + a * c);
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a.squared(), a * a);
        if (!a.isZero()) {
            EXPECT_EQ(a * a.inverse(), Fq2::one());
        }
    }
}

TYPED_TEST(TowerTest, Fp6FieldAxioms)
{
    using F = Fp6<TypeParam>;
    Rng rng(11);
    for (int i = 0; i < 8; ++i) {
        F a = F::random(rng);
        F b = F::random(rng);
        F c = F::random(rng);
        EXPECT_EQ(a * (b + c), a * b + a * c);
        EXPECT_EQ((a * b) * c, a * (b * c));
        if (!a.isZero()) {
            EXPECT_EQ(a * a.inverse(), F::one());
        }
    }
}

TYPED_TEST(TowerTest, Fp6MulByVMatchesExplicitV)
{
    using F = Fp6<TypeParam>;
    using Fq2 = typename TypeParam::Fq2;
    Rng rng(12);
    F a = F::random(rng);
    F v(Fq2::zero(), Fq2::one(), Fq2::zero());
    EXPECT_EQ(a.mulByV(), a * v);
}

TYPED_TEST(TowerTest, Fp12FieldAxioms)
{
    using F = Fp12<TypeParam>;
    Rng rng(13);
    for (int i = 0; i < 4; ++i) {
        F a = F::random(rng);
        F b = F::random(rng);
        F c = F::random(rng);
        EXPECT_EQ(a * (b + c), a * b + a * c);
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a.squared(), a * a);
        if (!a.isZero()) {
            EXPECT_EQ(a * a.inverse(), F::one());
        }
    }
}

TYPED_TEST(TowerTest, FrobeniusIsPPower)
{
    using F = Fp12<TypeParam>;
    using Fq = typename TypeParam::Fq;
    Rng rng(14);
    F a = F::random(rng);
    const BigNum p = BigNum::fromBigInt(Fq::kModulus);
    EXPECT_EQ(a.frobenius(), a.pow(p));
}

TYPED_TEST(TowerTest, FrobeniusOrderTwelve)
{
    using F = Fp12<TypeParam>;
    Rng rng(15);
    F a = F::random(rng);
    EXPECT_EQ(a.frobenius(12), a);
    EXPECT_EQ(a.frobenius(6), a.conjugate());
}

} // namespace
} // namespace zkp::ff
