/**
 * @file
 * Extended curve-layer tests: representation invariance, fixed-base
 * tables, MSM window heuristics, and parameterized scalar sweeps.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ec/fixed_base.h"
#include "ec/groups.h"
#include "ec/msm.h"

namespace zkp::ec {
namespace {

using G1 = Bn254G1;
using Fr = G1::Scalar;
using Jac = G1::Jacobian;

TEST(Representation, EqualityAcrossZ)
{
    // The same affine point under different Jacobian Z coordinates
    // must compare equal.
    Jac g{G1::generator()};
    Jac p = g.mulScalar((u64)777);
    // Scale (X, Y, Z) -> (l^2 X, l^3 Y, l Z).
    auto l = G1::Field::fromU64(5);
    Jac q;
    q.x = p.x * l.squared();
    q.y = p.y * l.squared() * l;
    q.z = p.z * l;
    EXPECT_EQ(p, q);
    EXPECT_EQ(p.toAffine(), q.toAffine());
    EXPECT_EQ(p + q, p.doubled());
}

TEST(Representation, NegationAndSubtraction)
{
    Jac g{G1::generator()};
    Jac p = g.mulScalar((u64)31);
    Jac q = g.mulScalar((u64)13);
    EXPECT_EQ(p - q, g.mulScalar((u64)18));
    EXPECT_EQ(-(-p), p);
    EXPECT_TRUE((-Jac::infinity()).isInfinity());
    // Affine negation stays on curve.
    auto aff = p.toAffine();
    EXPECT_TRUE(aff.negated().isOnCurve(G1::b()));
    EXPECT_EQ(Jac(aff.negated()), -p);
}

TEST(Representation, OffCurvePointDetected)
{
    auto aff = G1::generator();
    aff.x += G1::Field::one();
    EXPECT_FALSE(aff.isOnCurve(G1::b()));
}

TEST(FixedBase, MatchesScalarMulOnEdgeScalars)
{
    Jac g{G1::generator()};
    FixedBaseTable<Jac, Fr::Repr> table(g);

    // Zero, one, small, and max-ish scalars.
    EXPECT_TRUE(table.mul(Fr::Repr(0)).isInfinity());
    EXPECT_EQ(table.mul(Fr::Repr(1)), g);
    EXPECT_EQ(table.mul(Fr::Repr(255)), g.mulScalar((u64)255));
    EXPECT_EQ(table.mul(Fr::Repr(256)), g.mulScalar((u64)256));

    auto rm1 = Fr::kModulus;
    rm1.subInPlace(Fr::Repr(1));
    EXPECT_EQ(table.mul(rm1), -g); // (r-1)G == -G
    EXPECT_GT(table.footprintBytes(), 0u);
}

class FixedBaseScalarSweep : public ::testing::TestWithParam<u64>
{
};

TEST_P(FixedBaseScalarSweep, AgreesWithDoubleAndAdd)
{
    Rng rng(GetParam());
    Jac g{G1::generator()};
    static FixedBaseTable<Jac, Fr::Repr> table(g);
    Fr k = Fr::random(rng);
    EXPECT_EQ(table.mul(k.toBigInt()), g.mulScalar(k.toBigInt()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixedBaseScalarSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Batch-affine mulAll vs one-scalar mul ---------------------------

template <typename Group>
class FixedBaseMulAll : public ::testing::Test
{
  protected:
    using Repr = typename Group::Scalar::Repr;

    static Repr
    powerOfTwo(unsigned bit)
    {
        Repr r;
        r.limbs[bit / 64] = u64(1) << (bit % 64);
        return r;
    }

    /** Edge scalars, some twice, then random ones up to @p n. */
    static std::vector<Repr>
    scalars(std::size_t n, u64 seed)
    {
        using Table =
            FixedBaseTable<typename Group::Jacobian, Repr>;
        Repr rm1 = Group::Scalar::kModulus;
        rm1.subInPlace(Repr(1));
        std::vector<Repr> ks{Repr(0), Repr(1), rm1, Repr(255),
                             Repr(256), Repr(0), rm1};
        for (unsigned w = 1; w < Table::kWindows; ++w) {
            const Repr p = powerOfTwo(w * Table::kWindowBits);
            Repr below = p;
            below.subInPlace(Repr(1));
            ks.push_back(p);
            ks.push_back(below);
        }
        // Zero digits in every window but the top one.
        const unsigned top = (Table::kWindows - 1) * Table::kWindowBits;
        ks.push_back(powerOfTwo(top));
        ks.push_back(powerOfTwo(top + 4));
        Rng rng(seed);
        while (ks.size() < n) {
            const Repr k = Group::Scalar::random(rng).toBigInt();
            ks.push_back(k);
            if (ks.size() % 7 == 0 && ks.size() < n)
                ks.push_back(k); // duplicated scalar
        }
        ks.resize(n);
        return ks;
    }

    /** mulAll at each thread count equals mul(k).toAffine(). */
    static void
    expectMatchesMul(const std::vector<Repr>& ks,
                     std::initializer_list<std::size_t> threads)
    {
        const auto& table = generatorTable<Group>();
        std::vector<typename Group::Affine> want;
        for (const Repr& k : ks)
            want.push_back(table.mul(k).toAffine());
        for (std::size_t t : threads) {
            const auto got = table.mulAll(ks.data(), ks.size(), t);
            ASSERT_EQ(got.size(), ks.size());
            for (std::size_t i = 0; i < ks.size(); ++i) {
                EXPECT_EQ(got[i], want[i])
                    << "threads " << t << " scalar " << i;
            }
        }
    }
};

using FixedBaseGroups =
    ::testing::Types<Bn254G1, Bn254G2, Bls381G1, Bls381G2>;
TYPED_TEST_SUITE(FixedBaseMulAll, FixedBaseGroups);

TYPED_TEST(FixedBaseMulAll, MatchesMulOnEdgeAndDuplicateScalars)
{
    const auto ks = TestFixture::scalars(90, 601);
    TestFixture::expectMatchesMul(ks, {1, 3, 4});
    TestFixture::expectMatchesMul({ks[2]}, {1, 4}); // n = 1
    EXPECT_TRUE(
        generatorTable<TypeParam>().mulAll(ks.data(), 0, 4).empty());
}

TYPED_TEST(FixedBaseMulAll, MatchesMulAcrossChunkBoundary)
{
    using Table = FixedBaseTable<typename TypeParam::Jacobian,
                                 typename TestFixture::Repr>;
    // One full chunk plus a short one at one thread; uneven chunks at
    // four.
    TestFixture::expectMatchesMul(
        TestFixture::scalars(Table::kEncodeChunk + 5, 602), {1, 4});
}

class MsmSizeSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MsmSizeSweep, MatchesNaiveAcrossSizes)
{
    const std::size_t n = GetParam();
    Rng rng(500 + n);
    Jac g{G1::generator()};
    std::vector<G1::Affine> pts;
    std::vector<Fr::Repr> scalars;
    for (std::size_t i = 0; i < n; ++i) {
        pts.push_back(g.mulScalar(rng.nextBelow(1 << 14) + 1)
                          .toAffine());
        // Mix tiny, zero, and full-width scalars.
        if (i % 5 == 0)
            scalars.push_back(Fr::Repr(i % 3));
        else
            scalars.push_back(Fr::random(rng).toBigInt());
    }
    auto fast = msm<Jac>(pts.data(), scalars.data(), n);
    auto naive = msmNaive<Jac>(pts.data(), scalars.data(), n);
    EXPECT_EQ(fast, naive);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MsmSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 17, 33, 90));

TEST(MsmProperties, LinearInScalars)
{
    // msm(points, s) + msm(points, t) == msm(points, s + t).
    Rng rng(501);
    Jac g{G1::generator()};
    const std::size_t n = 24;
    std::vector<G1::Affine> pts;
    std::vector<Fr> s(n), t(n), sum(n);
    for (std::size_t i = 0; i < n; ++i) {
        pts.push_back(g.mulScalar(rng.nextBelow(1000) + 1).toAffine());
        s[i] = Fr::random(rng);
        t[i] = Fr::random(rng);
        sum[i] = s[i] + t[i];
    }
    auto to_repr = [](const std::vector<Fr>& v) {
        std::vector<Fr::Repr> r(v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
            r[i] = v[i].toBigInt();
        return r;
    };
    auto rs = to_repr(s), rt = to_repr(t), rsum = to_repr(sum);
    EXPECT_EQ(msm<Jac>(pts.data(), rs.data(), n) +
                  msm<Jac>(pts.data(), rt.data(), n),
              msm<Jac>(pts.data(), rsum.data(), n));
}

TEST(MsmProperties, PermutationInvariant)
{
    Rng rng(502);
    Jac g{G1::generator()};
    const std::size_t n = 20;
    std::vector<G1::Affine> pts;
    std::vector<Fr::Repr> scalars;
    for (std::size_t i = 0; i < n; ++i) {
        pts.push_back(g.mulScalar(rng.nextBelow(997) + 1).toAffine());
        scalars.push_back(Fr::random(rng).toBigInt());
    }
    auto base = msm<Jac>(pts.data(), scalars.data(), n);
    // Reverse both arrays.
    std::reverse(pts.begin(), pts.end());
    std::reverse(scalars.begin(), scalars.end());
    EXPECT_EQ(msm<Jac>(pts.data(), scalars.data(), n), base);
}

TEST(MsmProperties, InfinityPointsContributeNothing)
{
    Rng rng(503);
    Jac g{G1::generator()};
    std::vector<G1::Affine> pts{g.toAffine(), G1::Affine(),
                                g.doubled().toAffine()};
    std::vector<Fr::Repr> scalars{Fr::Repr(3), Fr::Repr(1000),
                                  Fr::Repr(4)};
    EXPECT_EQ(msm<Jac>(pts.data(), scalars.data(), 3),
              g.mulScalar((u64)11)); // 3*1 + 4*2
}

TEST(G2Arithmetic, TwistCoefficientConsistency)
{
    // b2 of the D-twist times xi equals 3 (BN254); the M-twist b2 of
    // BLS12-381 equals 4*xi.
    auto bn_b2 = Bn254G2::b() * ff::Bn254Tower::xi();
    EXPECT_TRUE(bn_b2 ==
                Bn254G2::Field::fromFq(ff::bn254::Fq::fromU64(3)));
    auto bls_b2 = Bls381G2::b();
    EXPECT_TRUE(bls_b2 ==
                ff::Bls381Tower::xi().mulByFq(
                    ff::bls381::Fq::fromU64(4)));
}

TEST(BatchToAffineExtended, AllInfinity)
{
    std::vector<Jac> pts(4, Jac::infinity());
    auto affs = batchToAffine(pts);
    for (const auto& a : affs)
        EXPECT_TRUE(a.infinity);
}

// --- Signed-window MSM vs naive on adversarial scalars ---------------
//
// The signed-digit decomposition (bias trick, msm.h) must be exact for
// every representable scalar, including values that are NOT reduced
// mod r: zero, r - 1, all-ones 2^256 - 1, and single set bits at limb
// boundaries — the cases that stress digit recentering, the headroom
// window, and the limb-straddling window read.

std::vector<Fr::Repr>
adversarialScalars()
{
    std::vector<Fr::Repr> out;
    out.push_back(Fr::Repr(0));
    out.push_back(Fr::Repr(1));
    auto rm1 = Fr::kModulus;
    rm1.subInPlace(Fr::Repr(1));
    out.push_back(rm1); // r - 1: largest reduced scalar
    Fr::Repr ones;
    for (std::size_t i = 0; i < Fr::Repr::kLimbs; ++i)
        ones.limbs[i] = ~u64(0);
    out.push_back(ones); // 2^256 - 1: non-reduced, max headroom
    for (std::size_t b : {0, 63, 64, 127, 128, 255}) {
        Fr::Repr one_bit;
        one_bit.limbs[b / 64] = u64(1) << (b % 64);
        out.push_back(one_bit);
    }
    return out;
}

TEST(MsmSignedWindows, AdversarialScalarsMatchNaive)
{
    Rng rng(601);
    Jac g{G1::generator()};
    const auto special = adversarialScalars();

    // Pad with random scalars so n clears the Pippenger path (the
    // heuristic falls back to tiny windows below 32 points).
    std::vector<G1::Affine> pts;
    std::vector<Fr::Repr> scalars;
    for (std::size_t i = 0; i < special.size(); ++i) {
        pts.push_back(g.mulScalar(rng.nextBelow(4096) + 1).toAffine());
        scalars.push_back(special[i]);
    }
    while (scalars.size() < 48) {
        pts.push_back(g.mulScalar(rng.nextBelow(4096) + 1).toAffine());
        scalars.push_back(Fr::random(rng).toBigInt());
    }
    const std::size_t n = scalars.size();

    const auto naive = msmNaive<Jac>(pts.data(), scalars.data(), n);
    for (std::size_t threads = 1; threads <= 4; ++threads)
        EXPECT_EQ(msm<Jac>(pts.data(), scalars.data(), n, threads),
                  naive)
            << "threads = " << threads;
}

TEST(MsmSignedWindows, SingleAdversarialScalarExactness)
{
    // Each adversarial scalar alone against one point: any digit
    // decoding error shows up undiluted.
    Jac g{G1::generator()};
    const auto pt = g.mulScalar((u64)97).toAffine();
    for (const auto& s : adversarialScalars()) {
        std::vector<G1::Affine> pts(33, pt);
        std::vector<Fr::Repr> scalars(33, Fr::Repr(0));
        scalars[17] = s;
        EXPECT_EQ(msm<Jac>(pts.data(), scalars.data(), pts.size()),
                  msmNaive<Jac>(pts.data(), scalars.data(), pts.size()))
            << "scalar " << s.toHex();
    }
}

TEST(MsmSignedWindows, WindowParallelMatchesNaive)
{
    // Direct coverage of the per-window decomposition (msm() only
    // routes there above kMsmWindowParallelMin points).
    Rng rng(603);
    Jac g{G1::generator()};
    const auto special = adversarialScalars();
    std::vector<G1::Affine> pts;
    std::vector<Fr::Repr> scalars;
    for (std::size_t i = 0; i < 64; ++i) {
        pts.push_back(g.mulScalar(rng.nextBelow(8192) + 1).toAffine());
        scalars.push_back(i < special.size()
                              ? special[i]
                              : Fr::random(rng).toBigInt());
    }
    const auto naive = msmNaive<Jac>(pts.data(), scalars.data(),
                                     scalars.size());
    for (std::size_t threads : {1, 2, 4})
        EXPECT_EQ(msmWindowParallel<Jac>(pts.data(), scalars.data(),
                                         scalars.size(), threads),
                  naive)
            << "threads = " << threads;
}

TEST(MsmSignedWindows, BiasDigitsReconstructScalar)
{
    // Decode every signed digit of the biased form and rebuild the
    // scalar as an integer: sum_w d_w * 2^(wc) over a 320-bit
    // accumulator must give back the original 256-bit value.
    for (unsigned c : {2u, 5u, 13u, 16u}) {
        for (const auto& s : adversarialScalars()) {
            const unsigned windows = msmSignedWindows<Fr::Repr>(c);
            const auto biased = msmBiasScalars(&s, 1, c);
            const long half = (long)(1L << (c - 1));
            BigInt<5> acc;
            for (unsigned w = windows; w-- > 0;) {
                for (unsigned i = 0; i < c; ++i)
                    acc.shl1InPlace();
                const long d =
                    (long)biased[0].bits((std::size_t)w * c, c) - half;
                BigInt<5> mag((u64)(d < 0 ? -d : d));
                if (d >= 0)
                    acc.addInPlace(mag);
                else
                    acc.subInPlace(mag);
            }
            EXPECT_EQ(truncate<4>(acc), s)
                << "c = " << c << ", scalar " << s.toHex();
            EXPECT_EQ(acc.limbs[4], 0u);
        }
    }
}

} // namespace
} // namespace zkp::ec
