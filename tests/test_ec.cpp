/**
 * @file
 * Group-law, scalar-multiplication and MSM tests for all four groups.
 */

#include <bit>

#include <gtest/gtest.h>

#include "common/bignum.h"
#include "common/rng.h"
#include "ec/groups.h"
#include "ec/msm.h"
#include "sim/counters.h"

namespace zkp::ec {
namespace {

template <typename Group>
class GroupTest : public ::testing::Test
{
};

using Groups = ::testing::Types<Bn254G1, Bn254G2, Bls381G1, Bls381G2>;
TYPED_TEST_SUITE(GroupTest, Groups);

TYPED_TEST(GroupTest, GeneratorOnCurve)
{
    using G = TypeParam;
    EXPECT_TRUE(G::generator().isOnCurve(G::b()));
    EXPECT_FALSE(G::generator().infinity);
}

TYPED_TEST(GroupTest, GeneratorHasOrderR)
{
    using G = TypeParam;
    typename G::Jacobian g{G::generator()};
    auto r = G::Scalar::kModulus;
    EXPECT_TRUE(g.mulScalar(r).isInfinity());
    EXPECT_FALSE(g.mulScalar(BigInt<4>(12345)).isInfinity());
}

TYPED_TEST(GroupTest, AdditionLaws)
{
    using G = TypeParam;
    typename G::Jacobian g{G::generator()};
    auto p = g.mulScalar((u64)17);
    auto q = g.mulScalar((u64)23);
    auto r = g.mulScalar((u64)99);

    EXPECT_EQ(p + q, q + p);
    EXPECT_EQ((p + q) + r, p + (q + r));
    EXPECT_EQ(p + decltype(p)::infinity(), p);
    EXPECT_TRUE((p - p).isInfinity());
    EXPECT_EQ(p + q, g.mulScalar((u64)40));
}

TYPED_TEST(GroupTest, DoublingMatchesAddition)
{
    using G = TypeParam;
    typename G::Jacobian g{G::generator()};
    EXPECT_EQ(g.doubled(), g + g);
    EXPECT_EQ(g.doubled().doubled(), g.mulScalar((u64)4));
    // Doubling infinity stays at infinity.
    EXPECT_TRUE(decltype(g)::infinity().doubled().isInfinity());
}

TYPED_TEST(GroupTest, MixedAdditionMatchesFull)
{
    using G = TypeParam;
    typename G::Jacobian g{G::generator()};
    auto p = g.mulScalar((u64)1234567);
    auto q_aff = g.mulScalar((u64)7654321).toAffine();
    EXPECT_EQ(p.addMixed(q_aff), p + decltype(p)(q_aff));
    // Mixed-add corner cases: same point (doubling) and inverse.
    auto p_aff = p.toAffine();
    EXPECT_EQ(p.addMixed(p_aff), p.doubled());
    EXPECT_TRUE(p.addMixed(p_aff.negated()).isInfinity());
    EXPECT_EQ(p.addMixed(typename G::Affine()), p);
}

TYPED_TEST(GroupTest, AffineRoundTrip)
{
    using G = TypeParam;
    typename G::Jacobian g{G::generator()};
    auto p = g.mulScalar((u64)424242);
    auto aff = p.toAffine();
    EXPECT_TRUE(aff.isOnCurve(G::b()));
    EXPECT_EQ(typename G::Jacobian(aff), p);
    // Infinity round trip.
    EXPECT_TRUE(decltype(p)::infinity().toAffine().infinity);
}

TYPED_TEST(GroupTest, ScalarMulDistributes)
{
    using G = TypeParam;
    using Fr = typename G::Scalar;
    Rng rng(21);
    typename G::Jacobian g{G::generator()};
    Fr a = Fr::random(rng);
    Fr b = Fr::random(rng);
    auto lhs = g.mulScalar((a + b).toBigInt());
    auto rhs = g.mulScalar(a.toBigInt()) + g.mulScalar(b.toBigInt());
    EXPECT_EQ(lhs, rhs);
    // (a*b)G == a(bG)
    EXPECT_EQ(g.mulScalar((a * b).toBigInt()),
              g.mulScalar(b.toBigInt()).mulScalar(a.toBigInt()));
}

TYPED_TEST(GroupTest, BatchToAffine)
{
    using G = TypeParam;
    typename G::Jacobian g{G::generator()};
    std::vector<typename G::Jacobian> pts;
    for (u64 k = 0; k < 10; ++k)
        pts.push_back(g.mulScalar(k)); // includes infinity at k=0
    auto affs = batchToAffine(pts);
    ASSERT_EQ(affs.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
        EXPECT_EQ(affs[i], pts[i].toAffine());
}

TYPED_TEST(GroupTest, MsmMatchesNaive)
{
    using G = TypeParam;
    using Fr = typename G::Scalar;
    using Repr = typename Fr::Repr;
    Rng rng(22);
    typename G::Jacobian g{G::generator()};

    const std::size_t n = 64;
    std::vector<typename G::Affine> points;
    std::vector<Repr> scalars;
    for (std::size_t i = 0; i < n; ++i) {
        points.push_back(g.mulScalar(rng.nextBelow(1000) + 1).toAffine());
        scalars.push_back(Fr::random(rng).toBigInt());
    }
    auto fast = msm<typename G::Jacobian>(points.data(), scalars.data(), n);
    auto naive =
        msmNaive<typename G::Jacobian>(points.data(), scalars.data(), n);
    EXPECT_EQ(fast, naive);
}

TYPED_TEST(GroupTest, MsmThreadedMatchesSerial)
{
    using G = TypeParam;
    using Fr = typename G::Scalar;
    using Repr = typename Fr::Repr;
    Rng rng(23);
    typename G::Jacobian g{G::generator()};

    const std::size_t n = 300;
    std::vector<typename G::Affine> points;
    std::vector<Repr> scalars;
    for (std::size_t i = 0; i < n; ++i) {
        points.push_back(g.mulScalar(rng.nextBelow(997) + 1).toAffine());
        scalars.push_back(Fr::random(rng).toBigInt());
    }
    auto serial =
        msmSerial<typename G::Jacobian>(points.data(), scalars.data(), n);
    auto threaded =
        msm<typename G::Jacobian>(points.data(), scalars.data(), n, 4);
    EXPECT_EQ(serial, threaded);
}

TYPED_TEST(GroupTest, MsmEdgeCases)
{
    using G = TypeParam;
    using Repr = typename G::Scalar::Repr;
    using J = typename G::Jacobian;
    J g{G::generator()};

    // Empty input.
    EXPECT_TRUE((msm<J, typename G::Affine, Repr>(nullptr, nullptr, 0))
                    .isInfinity());

    // All-zero scalars.
    std::vector<typename G::Affine> pts(5, G::generator());
    std::vector<Repr> zeros(5);
    EXPECT_TRUE(msm<J>(pts.data(), zeros.data(), 5).isInfinity());

    // Single element.
    std::vector<Repr> one{Repr(7)};
    EXPECT_EQ(msm<J>(pts.data(), one.data(), 1), g.mulScalar((u64)7));
}

TEST(MsmWindow, GrowsWithSize)
{
    EXPECT_LE(msmWindowBits(16), msmWindowBits(1 << 10));
    EXPECT_LE(msmWindowBits(1 << 10), msmWindowBits(1 << 20));
    EXPECT_GE(msmWindowBits(1), 1u);
    EXPECT_LE(msmWindowBits(std::size_t(1) << 40), 16u);
}

TEST(MsmWindow, GlvWidthNeverShrinksWithSize)
{
    const unsigned half = Glv<Bn254G1>::instance().halfBits();
    unsigned prev = 0;
    for (unsigned log2 = 10; log2 <= 17; ++log2) {
        const unsigned c = msmWindowBits(std::size_t(2) << log2, half);
        EXPECT_GE(c, prev) << "2^" << log2 << " points";
        prev = c;
    }
}

/** @p n distinct G1 points: a running sum with a fixed step. */
std::vector<Bn254G1::Affine>
distinctPoints(std::size_t n)
{
    using J = Bn254G1::Jacobian;
    const J step = J{Bn254G1::generator()}.mulScalar((u64)12345);
    std::vector<J> jac(n);
    J acc = step;
    for (auto& p : jac) {
        p = acc;
        acc += step;
    }
    return batchToAffine(jac);
}

// A uniformly random digit stream, 32 adds per bucket. The waiting
// list (points parked for a busy bucket) must never outgrow one batch,
// and a batch sized to the bucket count fills with few collisions, so
// few points are rescheduled after a flush.
TEST(BatchAffine, RandomStreamKeepsWaitingBounded)
{
    using G = Bn254G1;
    using J = G::Jacobian;
    Rng rng(31);
    const auto pool = distinctPoints(256);

    for (std::size_t buckets : {64, 512, 1024, 2048, 4096}) {
        BatchAffineAdder<G::Field> acc(buckets);
        EXPECT_EQ(acc.batchCap(), batchAffineCap(buckets));
        std::vector<J> ref(buckets);
        const std::size_t adds = 32 * buckets;
        for (std::size_t i = 0; i < adds; ++i) {
            const std::size_t b = rng.nextBelow(buckets);
            G::Affine p = pool[rng.nextBelow(pool.size())];
            if (rng.nextBelow(2))
                p = p.negated();
            acc.add(b, p);
            ref[b] = ref[b].addMixed(p);
            ASSERT_LE(acc.waitingSize(), acc.batchCap())
                << buckets << " buckets, add " << i;
        }
        acc.flush();
        EXPECT_LE(acc.stats().rescheduled, 4 * adds)
            << buckets << " buckets";
        for (std::size_t b = 0; b < buckets; ++b)
            ASSERT_EQ(J{acc.buckets()[b]}, ref[b])
                << buckets << " buckets, bucket " << b;
    }
}

// The top window of an MSM holds only the scalar's leftover high bits,
// so its digits reach a handful of buckets and almost every add
// collides. The waiting list must stay bounded there too.
TEST(BatchAffine, NarrowStreamKeepsWaitingBounded)
{
    using G = Bn254G1;
    using J = G::Jacobian;
    Rng rng(33);
    const auto pool = distinctPoints(64);
    const std::size_t buckets = 512, reached = 4;
    BatchAffineAdder<G::Field> acc(buckets);
    std::vector<J> ref(buckets);
    for (std::size_t i = 0; i < 16 * acc.batchCap(); ++i) {
        const std::size_t b = rng.nextBelow(reached);
        const G::Affine& p = pool[rng.nextBelow(pool.size())];
        acc.add(b, p);
        ref[b] = ref[b].addMixed(p);
        ASSERT_LE(acc.waitingSize(), acc.batchCap()) << "add " << i;
    }
    acc.flush();
    for (std::size_t b = 0; b < buckets; ++b)
        ASSERT_EQ(J{acc.buckets()[b]}, ref[b]) << "bucket " << b;
}

// Every add of the stream targets one bucket, as in a window of an MSM
// whose scalars are all equal. Colliding adds pair up inside a batch,
// so the adder still flushes about once per batchCap() adds, plus
// log2(batchCap()) flushes to reduce the last batch; it must not fall
// back to one flush (and one field inversion) per add.
TEST(BatchAffine, OneBucketStreamFlushesPerBatch)
{
    using G = Bn254G1;
    using J = G::Jacobian;
    const std::size_t n = std::size_t(1) << 12;
    const auto distinct = distinctPoints(n);
    const std::vector<G::Affine> equal(n, distinct[0]);

    for (const auto* pts : {&equal, &distinct}) {
        for (std::size_t buckets : {1, 64, 2048}) {
            BatchAffineAdder<G::Field> acc(buckets);
            const std::size_t bucket = buckets / 2;
            J ref;
            for (const G::Affine& p : *pts) {
                acc.add(bucket, p);
                ref = ref.addMixed(p);
            }
            acc.flush();
            const std::size_t cap = acc.batchCap();
            EXPECT_LE(acc.stats().flushes,
                      2 * n / cap + (std::bit_width(cap) - 1) + 2)
                << buckets << " buckets, batch " << cap
                << (pts == &equal ? ", equal points" : ", distinct");
            EXPECT_EQ(J{acc.buckets()[bucket]}, ref);
        }
    }
}

// msmCurve over all-equal and all-one scalars: every window's digits
// reach one or two buckets. The BatchFlush count must still grow by
// O(n / batch) per window (the bound of the test above), and the
// result must be the plain sum.
TEST(BatchAffine, DegenerateScalarsFlushPerBatch)
{
    using G = Bn254G1;
    using J = G::Jacobian;
    using Repr = G::Scalar::Repr;
    const std::size_t n = std::size_t(1) << 12;
    const auto points = distinctPoints(n);
    J sum;
    for (const auto& p : points)
        sum = sum.addMixed(p);

    // The GLV path runs 2n half-width scalars.
    const std::size_t half = Glv<G>::instance().halfBits();
    ASSERT_TRUE(Glv<G>::instance().usable());
    const unsigned c = msmWindowBits(2 * n, half);
    const std::size_t windows = half / c + 1;
    const std::size_t cap = batchAffineCap(std::size_t(1) << (c - 1));
    const std::size_t per_window =
        2 * (2 * n) / cap + (std::bit_width(cap) - 1) + 2;

    Rng rng(34);
    const Repr k = G::Scalar::random(rng).toBigInt();
    sim::CountingScope counting;
    auto flushes = [] {
        return sim::counters().prim[(std::size_t)sim::PrimOp::BatchFlush];
    };
    for (const Repr& s : {k, Repr(1)}) {
        const std::vector<Repr> scalars(n, s);
        const std::uint64_t before = flushes();
        const J got = msmCurve<G>(points.data(), scalars.data(), n, 1);
        const std::uint64_t delta = flushes() - before;
        EXPECT_GT(delta, 0u) << "flushes were not counted";
        EXPECT_LE(delta, windows * per_window)
            << "scalar " << (s == k ? "k" : "1") << ": c = " << c << ", "
            << windows << " windows, batch " << cap;
        EXPECT_EQ(got, sum.mulScalar(s));
    }
}

TEST(MsmGlv, MatchesPlainMsmAcrossThreads)
{
    using G = Bn254G1;
    using J = G::Jacobian;
    Rng rng(32);
    const auto points = distinctPoints(std::size_t(1) << 14);
    std::vector<G::Scalar::Repr> scalars(points.size());
    for (auto& s : scalars)
        s = G::Scalar::random(rng).toBigInt();

    for (std::size_t n : {std::size_t(1) << 12, std::size_t(1) << 14}) {
        const J plain = msm<J>(points.data(), scalars.data(), n);
        for (std::size_t threads : {1, 4})
            EXPECT_EQ(msmCurve<G>(points.data(), scalars.data(), n,
                                  threads),
                      plain)
                << n << " points, " << threads << " threads";
    }
}

// Mostly-dead input (points at infinity, zero scalars), as in
// Groth16's B queries: msmCurve drops the dead terms before the MSM.
TYPED_TEST(GroupTest, MsmCurveSkipsDeadTerms)
{
    using G = TypeParam;
    using J = typename G::Jacobian;
    using Repr = typename G::Scalar::Repr;
    Rng rng(34);
    const J g{G::generator()};

    const std::size_t n = 600;
    std::vector<typename G::Affine> points(n);
    std::vector<Repr> scalars(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 3 == 0)
            points[i] = g.mulScalar(rng.nextBelow(1000) + 1).toAffine();
        else
            points[i] = typename G::Affine();
        scalars[i] = G::Scalar::random(rng).toBigInt();
        if (i % 9 == 3)
            scalars[i] = Repr();
    }
    // Every third point is live; a third of those has a zero scalar.
    const J plain = msm<J>(points.data(), scalars.data(), n);
    EXPECT_EQ(msmCurve<G>(points.data(), scalars.data(), n), plain);
    EXPECT_EQ(msmCurve<G>(points.data(), scalars.data(), n, 4), plain);
}

} // namespace
} // namespace zkp::ec
