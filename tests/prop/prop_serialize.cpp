/**
 * @file
 * Serialization properties: encode/decode round-trips for proofs and
 * keys on both curves, plus the rejection paths the validating
 * readers must take — corrupted bytes, truncations, random garbage,
 * off-curve and out-of-subgroup uncompressed points, non-canonical
 * field encodings, and forged length fields.
 */

#include <gtest/gtest.h>

#include "r1cs/circuits.h"
#include "snark/curve.h"
#include "snark/groth16.h"
#include "snark/plonk.h"
#include "snark/serialize.h"
#include "zkcheck.h"

namespace zkp::prop {
namespace {

/** Groth16 fixture: keys + one valid proof for x^4 = y. */
template <typename Curve>
struct G16Fixture
{
    using Fr = typename Curve::Fr;
    using Scheme = snark::Groth16<Curve>;

    typename Scheme::Keypair kp;
    typename Scheme::Proof proof;
    std::vector<Fr> pub;

    static const G16Fixture&
    instance()
    {
        static const G16Fixture f;
        return f;
    }

  private:
    G16Fixture()
    {
        r1cs::ExponentiationCircuit<Fr> circ(4);
        const auto cs = circ.builder.compile();
        Rng rng(0x5e71a112u); // fixture-only entropy
        kp = Scheme::setup(cs, rng);
        const Fr x = Fr::fromU64(5);
        const Fr y = circ.evaluate(x);
        std::vector<Fr> z{Fr::one(), y, x};
        Fr acc = x;
        for (std::size_t i = 1; i < circ.exponent; ++i) {
            acc *= x;
            z.push_back(acc);
        }
        proof = Scheme::prove(kp.pk, cs, z, rng);
        pub = {y};
    }
};

template <typename Curve>
class SerializeRoundTrip : public ::testing::Test
{
};

using Curves = ::testing::Types<snark::Bn254, snark::Bls381>;
TYPED_TEST_SUITE(SerializeRoundTrip, Curves);

TYPED_TEST(SerializeRoundTrip, ProofAndKeySurviveRoundTrip)
{
    using Curve = TypeParam;
    using Scheme = snark::Groth16<Curve>;
    const auto& f = G16Fixture<Curve>::instance();

    const auto proofBytes = snark::serializeProof<Curve>(f.proof);
    const auto parsed = snark::deserializeProof<Curve>(proofBytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(snark::serializeProof<Curve>(*parsed), proofBytes);

    const auto vkBytes =
        snark::serializeVerifyingKey<Curve>(f.kp.vk);
    const auto vk = snark::deserializeVerifyingKey<Curve>(vkBytes);
    ASSERT_TRUE(vk.has_value());
    EXPECT_EQ(snark::serializeVerifyingKey<Curve>(*vk), vkBytes);

    // The round-tripped pair still verifies.
    EXPECT_TRUE(Scheme::verify(*vk, f.pub, *parsed));
}

TYPED_TEST(SerializeRoundTrip, EveryProofPrefixIsRejected)
{
    using Curve = TypeParam;
    const auto& f = G16Fixture<Curve>::instance();
    const auto bytes = snark::serializeProof<Curve>(f.proof);
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + n);
        EXPECT_FALSE(
            snark::deserializeProof<Curve>(prefix).has_value())
            << "prefix of length " << n << " parsed";
    }
    // Trailing garbage is rejected too.
    auto padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(snark::deserializeProof<Curve>(padded).has_value());
}

TYPED_TEST(SerializeRoundTrip, CorruptedBytesRejectOrFailVerify)
{
    using Curve = TypeParam;
    using Scheme = snark::Groth16<Curve>;
    const auto& f = G16Fixture<Curve>::instance();
    const auto bytes = snark::serializeProof<Curve>(f.proof);

    forAll("serialize_corrupt", 24, [&](Rng& rng, std::size_t) {
        auto m = bytes;
        const std::size_t k = 1 + rng.nextBelow(4);
        for (std::size_t j = 0; j < k; ++j)
            m[rng.nextBelow(m.size())] ^=
                (std::uint8_t)(1 + rng.nextBelow(255));
        if (m == bytes)
            return; // XOR happened to cancel; nothing was mutated
        const auto parsed = snark::deserializeProof<Curve>(m);
        if (parsed) {
            EXPECT_FALSE(Scheme::verify(f.kp.vk, f.pub, *parsed));
        }
    });
}

TYPED_TEST(SerializeRoundTrip, RandomGarbageNeverParses)
{
    using Curve = TypeParam;
    forAll("serialize_garbage", 16, [&](Rng& rng, std::size_t) {
        const auto junk = genBytes(rng, rng.nextBelow(600));
        EXPECT_FALSE(
            snark::deserializeProof<Curve>(junk).has_value());
        EXPECT_FALSE(
            snark::deserializeVerifyingKey<Curve>(junk).has_value());
        EXPECT_FALSE(
            snark::deserializePlonkProof<Curve>(junk).has_value());
    });
}

// ---------------------------------------------------------------------
// Uncompressed (tag 4) encodings: the attacker-chosen-coordinate path
// ---------------------------------------------------------------------

TEST(SerializeUncompressed, G1RoundTripsAndRejectsOffCurve)
{
    using G1 = ec::Bn254G1;
    using Fq = G1::Field;

    forAll("uncompressed_g1", 8, [&](Rng& rng, std::size_t) {
        const auto p = genPoint<G1>(rng);

        snark::ByteWriter w;
        snark::writeG1Uncompressed<G1>(w, p);
        {
            snark::ByteReader r(w.bytes());
            G1::Affine q;
            ASSERT_TRUE(snark::readG1<G1>(r, q));
            EXPECT_EQ(q, p);
            EXPECT_TRUE(r.atEnd());
        }

        // (x, y + 1) is not on the curve: must be rejected even
        // though both coordinates are canonical field elements.
        snark::ByteWriter bad;
        bad.putU8(snark::kTagUncompressed);
        bad.putField(p.x);
        bad.putField(p.y + Fq::one());
        snark::ByteReader r(bad.bytes());
        G1::Affine q;
        EXPECT_FALSE(snark::readG1<G1>(r, q));
    });
}

TEST(SerializeUncompressed, G2RoundTripsAndRejectsOffCurve)
{
    using G2 = ec::Bls381G2;
    using Fq = ec::Bls381G1::Field;

    forAll("uncompressed_g2", 4, [&](Rng& rng, std::size_t) {
        const auto p = genPoint<G2>(rng);

        snark::ByteWriter w;
        snark::writeG2Uncompressed<G2>(w, p);
        {
            snark::ByteReader r(w.bytes());
            G2::Affine q;
            ASSERT_TRUE(snark::readG2<G2>(r, q));
            EXPECT_EQ(q, p);
            EXPECT_TRUE(r.atEnd());
        }

        snark::ByteWriter bad;
        bad.putU8(snark::kTagUncompressed);
        bad.putField(p.x.c0);
        bad.putField(p.x.c1);
        bad.putField(p.y.c0 + Fq::one());
        bad.putField(p.y.c1);
        snark::ByteReader r(bad.bytes());
        G2::Affine q;
        EXPECT_FALSE(snark::readG2<G2>(r, q));
    });
}

TEST(SerializeUncompressed, NonCanonicalCoordinateRejected)
{
    using G1 = ec::Bn254G1;
    using Fq = G1::Field;
    Rng rng(caseSeed("noncanonical", 0));
    const auto p = genPoint<G1>(rng);

    // x encoded as x + p (>= modulus): getField must refuse it, so
    // the same group element has exactly one accepted encoding.
    auto repr = p.x.toBigInt();
    u64 carry = 0;
    for (std::size_t i = 0; i < repr.limbs.size(); ++i) {
        const u64 m = Fq::kModulus.limbs[i];
        const u64 before = repr.limbs[i];
        repr.limbs[i] += m + carry;
        carry = (repr.limbs[i] < before || (carry && repr.limbs[i] == before))
                    ? 1
                    : 0;
    }
    snark::ByteWriter w;
    w.putU8(snark::kTagUncompressed);
    w.putBigInt(repr);
    w.putField(p.y);
    snark::ByteReader r(w.bytes());
    G1::Affine q;
    EXPECT_FALSE(snark::readG1<G1>(r, q));

    // Same rejection on the compressed path.
    snark::ByteWriter wc;
    wc.putU8(snark::kTagEvenY);
    wc.putBigInt(repr);
    snark::ByteReader rc(wc.bytes());
    EXPECT_FALSE(snark::readG1<G1>(rc, q));
}

TEST(SerializeUncompressed, OutOfSubgroupG2Rejected)
{
    // BN254's G2 has a nontrivial cofactor: a random point on the
    // twist is (overwhelmingly) outside the order-r subgroup and must
    // be rejected on both the compressed and uncompressed paths.
    using G2 = ec::Bn254G2;
    using Fq2 = G2::Field;

    Rng rng(caseSeed("subgroup_g2", 0));
    G2::Affine p;
    for (;;) {
        const Fq2 x = Fq2::random(rng);
        const Fq2 y2 = x.squared() * x + G2::b();
        Fq2 y;
        if (!y2.sqrt(y))
            continue;
        p = G2::Affine(x, y);
        break;
    }
    ASSERT_TRUE(p.isOnCurve(G2::b()));
    ASSERT_FALSE(snark::inSubgroup<G2>(p));

    snark::ByteWriter wu;
    snark::writeG2Uncompressed<G2>(wu, p);
    snark::ByteReader ru(wu.bytes());
    G2::Affine q;
    EXPECT_FALSE(snark::readG2<G2>(ru, q));

    snark::ByteWriter wc;
    snark::writeG2<G2>(wc, p);
    snark::ByteReader rc(wc.bytes());
    EXPECT_FALSE(snark::readG2<G2>(rc, q));
}

TEST(SerializeUncompressed, UnknownTagRejected)
{
    using G1 = ec::Bn254G1;
    Rng rng(caseSeed("unknown_tag", 0));
    const auto p = genPoint<G1>(rng);
    snark::ByteWriter w;
    snark::writeG1<G1>(w, p);
    auto bytes = w.bytes();
    bytes[0] = 9; // not infinity/even/odd/uncompressed
    snark::ByteReader r(bytes);
    G1::Affine q;
    EXPECT_FALSE(snark::readG1<G1>(r, q));
}

// ---------------------------------------------------------------------
// Verifying-key length field
// ---------------------------------------------------------------------

TEST(SerializeVk, ForgedHugeLengthRejected)
{
    using Curve = snark::Bn254;
    using Fq = Curve::G1::Field;
    const auto& f = G16Fixture<Curve>::instance();
    auto bytes = snark::serializeVerifyingKey<Curve>(f.kp.vk);

    // Offset of the u64 ic-count: 12 Fq (alphaBeta) + 2 compressed G2.
    const std::size_t fqLen = sizeof(Fq::Repr);
    const std::size_t off = 12 * fqLen + 2 * (1 + 2 * fqLen);
    ASSERT_LT(off + 8, bytes.size());

    // A count that claims more points than there are bytes must fail
    // before any allocation sized by it.
    for (const u64 forged :
         {(u64)1 << 60, (u64)bytes.size(), (u64)0}) {
        auto m = bytes;
        for (int i = 0; i < 8; ++i)
            m[off + i] = (std::uint8_t)(forged >> (8 * i));
        EXPECT_FALSE(
            snark::deserializeVerifyingKey<Curve>(m).has_value())
            << "forged ic count " << forged << " accepted";
    }
}

// ---------------------------------------------------------------------
// PlonK proof bytes
// ---------------------------------------------------------------------

TEST(SerializePlonk, RoundTripAndTruncationBn254)
{
    using Curve = snark::Bn254;
    using Fr = Curve::Fr;
    using Scheme = snark::Plonk<Curve>;

    snark::PlonkExponentiation<Fr> circ(4);
    Rng rng(0x706b7274u);
    const auto kp = Scheme::setup(circ.builder, rng);
    const auto values = circ.assign(Fr::fromU64(9));
    const std::vector<Fr> pub{values[circ.yVar]};
    const auto proof = Scheme::prove(kp.pk, values, pub, rng);
    ASSERT_TRUE(Scheme::verify(kp.vk, pub, proof));

    const auto bytes = snark::serializePlonkProof<Curve>(proof);
    const auto parsed = snark::deserializePlonkProof<Curve>(bytes);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(snark::serializePlonkProof<Curve>(*parsed), bytes);
    EXPECT_TRUE(Scheme::verify(kp.vk, pub, *parsed));

    // Sampled strict prefixes never parse (the full sweep is long:
    // the encoding is ~700 bytes).
    forAll("plonk_truncate", 16, [&](Rng& r2, std::size_t) {
        const std::size_t n = r2.nextBelow(bytes.size());
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + n);
        EXPECT_FALSE(
            snark::deserializePlonkProof<Curve>(prefix).has_value());
    });

    // A non-canonical claimed evaluation (>= r) is rejected.
    const std::size_t g1Len = 1 + sizeof(Curve::G1::Field::Repr);
    auto m = bytes;
    for (std::size_t i = 0; i < sizeof(Fr::Repr); ++i)
        m[5 * g1Len + i] = 0xff; // first eval := 2^256 - 1 >= r
    EXPECT_FALSE(snark::deserializePlonkProof<Curve>(m).has_value());
}

} // namespace
} // namespace zkp::prop
