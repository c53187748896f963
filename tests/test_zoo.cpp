/**
 * @file
 * Tier-1 circuit-zoo tests: catalog shape, the exact constraint-count
 * models, witness satisfaction for every entry on both fields, native
 * SHA-256 FIPS vectors, embedded-curve sanity, one Groth16
 * prove/verify per entry, and one cheap dual (Groth16 + PlonK)
 * prove/verify through the generic lowering. The
 * heavyweight differential and reference-vector property suites live
 * in tests/prop/prop_gadgets.cpp.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/rng.h"
#include "ff/params.h"
#include "r1cs/witness.h"
#include "r1cs/zoo.h"
#include "snark/curve.h"
#include "snark/groth16.h"
#include "snark/plonk_from_r1cs.h"

namespace zkp {
namespace {

template <typename FrT>
struct ZooTest : public ::testing::Test
{
    using Fr = FrT;

    /** Small tier-1 scales per entry. */
    static std::size_t
    smallScale(const std::string& name)
    {
        static const std::map<std::string, std::size_t> scales = {
            {"exp", 64},   {"mimc", 2},  {"poseidon", 2}, {"sha256", 1},
            {"merkle", 2}, {"range", 16}, {"schnorr", 1}};
        auto it = scales.find(name);
        return it == scales.end() ? 1 : it->second;
    }
};

using Fields = ::testing::Types<ff::bn254::Fr, ff::bls381::Fr>;
TYPED_TEST_SUITE(ZooTest, Fields);

TYPED_TEST(ZooTest, CatalogShape)
{
    using Fr = TypeParam;
    const auto& entries = r1cs::zoo::all<Fr>();
    ASSERT_GE(entries.size(), 7u);
    std::set<std::string> names;
    for (const auto& e : entries) {
        EXPECT_TRUE(names.insert(e.name).second)
            << "duplicate zoo name " << e.name;
        EXPECT_FALSE(e.family.empty());
        EXPECT_FALSE(e.description.empty());
        EXPECT_GT(e.defaultScale, 0u);
        EXPECT_EQ(r1cs::zoo::find<Fr>(e.name), &e);
    }
    for (const char* required :
         {"exp", "mimc", "poseidon", "sha256", "merkle", "range",
          "schnorr"})
        EXPECT_NE(r1cs::zoo::find<Fr>(required), nullptr) << required;
    EXPECT_EQ(r1cs::zoo::find<Fr>("nope"), nullptr);
}

TYPED_TEST(ZooTest, PredictedCountsMatchAndWitnessesSatisfy)
{
    using Fr = TypeParam;
    Rng rng(0x5a6f6f31u);
    for (const auto& e : r1cs::zoo::all<Fr>()) {
        const std::size_t scale = this->smallScale(e.name);
        auto builder = e.build(scale);
        EXPECT_EQ(builder.numConstraints(),
                  e.predictedConstraints(scale))
            << e.name << " scale " << scale
            << ": constraint-count model out of date";

        auto w = e.sample(scale, rng);
        EXPECT_EQ(w.pub.size(), builder.numPublic()) << e.name;
        EXPECT_EQ(w.priv.size(), builder.numPrivate()) << e.name;

        auto cs = builder.compile();
        r1cs::WitnessCalculator<Fr> calc(builder.witnessProgram());
        auto z = calc.compute(w.pub, w.priv);
        EXPECT_TRUE(cs.isSatisfied(z)) << e.name;
    }
}

TYPED_TEST(ZooTest, ModelHoldsAcrossScales)
{
    using Fr = TypeParam;
    for (const auto& e : r1cs::zoo::all<Fr>()) {
        for (std::size_t scale : {1, 2, 3}) {
            auto builder = e.build(scale);
            EXPECT_EQ(builder.numConstraints(),
                      e.predictedConstraints(scale))
                << e.name << " scale " << scale;
        }
    }
}

TYPED_TEST(ZooTest, CorruptedWitnessRejected)
{
    using Fr = TypeParam;
    Rng rng(0x5a6f6f32u);
    // Poseidon: wrong preimage element. SHA-256: flipped message bit.
    for (const char* name : {"poseidon", "sha256"}) {
        const auto* e = r1cs::zoo::find<Fr>(name);
        ASSERT_NE(e, nullptr);
        const std::size_t scale = 1;
        auto builder = e->build(scale);
        auto cs = builder.compile();
        r1cs::WitnessCalculator<Fr> calc(builder.witnessProgram());
        auto w = e->sample(scale, rng);
        w.priv[0] = w.priv[0] + Fr::one();
        auto z = calc.compute(w.pub, w.priv);
        EXPECT_FALSE(cs.isSatisfied(z)) << name;
    }
}

TYPED_TEST(ZooTest, EmbeddedCurveSanity)
{
    using Fr = TypeParam;
    using Curve = r1cs::EmbeddedEdwards<Fr>;
    // Complete-formula preconditions.
    EXPECT_EQ(Curve::paramA().legendre(), 1);
    EXPECT_EQ(Curve::paramD().legendre(), -1);
    const auto& g = Curve::generator();
    EXPECT_TRUE(Curve::onCurve(g));
    EXPECT_FALSE(g == Curve::identity());
    // Group laws through the complete formula.
    auto g2 = Curve::add(g, g);
    EXPECT_TRUE(Curve::onCurve(g2));
    EXPECT_TRUE(Curve::add(g, Curve::identity()) == g);
    auto g3a = Curve::add(g2, g);
    auto g3b = Curve::scalarMul(g, BigInt<1>(3));
    EXPECT_TRUE(g3a == g3b);
}

TYPED_TEST(ZooTest, SchnorrNativeRoundtrip)
{
    using Fr = TypeParam;
    using Scheme = r1cs::Schnorr<Fr>;
    Rng rng(0x5363686eu);
    auto kp = Scheme::keygen(rng);
    Fr msg = Fr::random(rng);
    auto sig = Scheme::sign(kp, msg, rng);
    EXPECT_TRUE(Scheme::verify(kp.pk, msg, sig));
    EXPECT_FALSE(Scheme::verify(kp.pk, msg + Fr::one(), sig));
    auto bad = sig;
    bad.s = bad.s + Fr::one();
    EXPECT_FALSE(Scheme::verify(kp.pk, msg, bad));
}

TEST(Sha256Native, Fips180Vectors)
{
    auto hex = [](const std::array<std::uint8_t, 32>& d) {
        std::string s;
        for (auto b : d) {
            static const char* x = "0123456789abcdef";
            s += x[b >> 4];
            s += x[b & 15];
        }
        return s;
    };
    EXPECT_EQ(hex(r1cs::Sha256::hash({})),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(hex(r1cs::Sha256::hash({'a', 'b', 'c'})),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    const std::string two = "abcdbcdecdefdefgefghfghighijhijk"
                            "ijkljklmklmnlmnomnopnopq";
    EXPECT_EQ(hex(r1cs::Sha256::hash(
                  std::vector<std::uint8_t>(two.begin(), two.end()))),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

// One Groth16 prove/verify round per catalog entry at its tier-1
// scale, so an entry that compiles and satisfies but no longer proves
// fails here. SHA-256 (27.6k constraints) relies on
// GoldenZooVectors.FreshGroth16GenerationMatchesCheckedInBytes, which
// proves it and checks the proof against verified bytes.
TEST(ZooGroth16, EveryEntryProvesAndVerifies)
{
    using Curve = snark::Bn254;
    using Fr = Curve::Fr;
    for (const auto& e : r1cs::zoo::all<Fr>()) {
        if (e.name == "sha256")
            continue;
        const std::size_t scale = ZooTest<Fr>::smallScale(e.name);
        auto builder = e.build(scale);
        const auto cs = builder.compile();
        Rng rng(0x67313631u);
        const auto w = e.sample(scale, rng);
        const auto z = r1cs::WitnessCalculator<Fr>(builder.witnessProgram())
                           .compute(w.pub, w.priv);
        const auto kp = snark::Groth16<Curve>::setup(cs, rng);
        const auto proof = snark::Groth16<Curve>::prove(kp.pk, cs, z, rng);
        EXPECT_TRUE(snark::Groth16<Curve>::verify(kp.vk, w.pub, proof))
            << e.name << " scale " << scale;
    }
}

TEST(ZooDual, PoseidonProvesUnderBothSchemes)
{
    using Curve = snark::Bn254;
    using Fr = Curve::Fr;
    const auto* e = r1cs::zoo::find<Fr>("poseidon");
    ASSERT_NE(e, nullptr);
    auto builder = e->build(2);
    auto cs = builder.compile();
    r1cs::WitnessCalculator<Fr> calc(builder.witnessProgram());
    Rng rng(0x64756f31u);
    auto w = e->sample(2, rng);
    auto z = calc.compute(w.pub, w.priv);
    ASSERT_TRUE(cs.isSatisfied(z));

    Rng setup_rng(1), prove_rng(2);
    auto kp = snark::Groth16<Curve>::setup(cs, setup_rng);
    auto proof = snark::Groth16<Curve>::prove(kp.pk, cs, z, prove_rng);
    EXPECT_TRUE(snark::Groth16<Curve>::verify(kp.vk, w.pub, proof));
    auto bad = w.pub;
    bad[0] = bad[0] + Fr::one();
    EXPECT_FALSE(snark::Groth16<Curve>::verify(kp.vk, bad, proof));

    snark::PlonkFromR1cs<Fr> lowered(cs);
    auto values = lowered.assign(z);
    Rng psetup_rng(3), pprove_rng(4);
    auto pkp =
        snark::Plonk<Curve>::setup(lowered.builder, psetup_rng);
    ASSERT_TRUE(snark::Plonk<Curve>::satisfied(pkp.pk, values, w.pub));
    auto pproof = snark::Plonk<Curve>::prove(pkp.pk, values, w.pub,
                                             pprove_rng);
    EXPECT_TRUE(snark::Plonk<Curve>::verify(pkp.vk, w.pub, pproof));
    EXPECT_FALSE(snark::Plonk<Curve>::verify(pkp.vk, bad, pproof));
}

} // namespace
} // namespace zkp
