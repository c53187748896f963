/**
 * @file
 * STARK backend unit tests: Goldilocks arithmetic against a
 * widening-multiply reference, NTT round-trips over the small field,
 * the SHA-256 kernels and padding against the reference SHA-256,
 * Merkle commitments and their allocation count, Fiat-Shamir channel
 * determinism, full prove/verify round-trips for both shipped AIRs
 * including serialization, and the simulator's hash counts for one
 * pinned statement.
 *
 * The negative-path suite (tampered openings, wrong folds, truncated
 * bytes) lives in test_verifier_negative.cpp with the other schemes.
 */

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "obs/memprof.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "poly/domain.h"
#include "prop/zkcheck.h"
#include "stark/air.h"
#include "stark/channel.h"
#include "stark/merkle.h"
#include "stark/serialize.h"
#include "stark/stark.h"

namespace zkp::stark {
namespace {

u64 mulRef(u64 a, u64 b)
{
    return (u64)(((unsigned __int128)a * b) % Gl::kP);
}

TEST(StarkField, MatchesWideReference)
{
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const u64 a = rng.next() % Gl::kP;
        const u64 b = rng.next() % Gl::kP;
        const Gl x = Gl::fromU64(a), y = Gl::fromU64(b);
        EXPECT_EQ((x * y).value(), mulRef(a, b));
        EXPECT_EQ((x + y).value(), (a + (unsigned __int128)b) % Gl::kP);
        EXPECT_EQ((x - y).value(),
                  (u64)(((unsigned __int128)a + Gl::kP - b) % Gl::kP));
    }
    // The reduction's edge region: operands near p and near 2^32
    // boundaries, where the EPSILON fixups fire.
    const u64 edges[] = {0,          1,          Gl::kEpsilon,
                         1ULL << 32, Gl::kP - 1, Gl::kP - 2,
                         (1ULL << 32) + 1};
    for (u64 a : edges)
        for (u64 b : edges)
            EXPECT_EQ((Gl::fromU64(a) * Gl::fromU64(b)).value(),
                      mulRef(a % Gl::kP, b % Gl::kP));
}

TEST(StarkField, InverseAndPow)
{
    Rng rng(8);
    for (int i = 0; i < 50; ++i) {
        const Gl x = Gl::random(rng);
        if (x.isZero())
            continue;
        EXPECT_EQ(x * x.inverse(), Gl::one());
    }
    EXPECT_EQ(Gl::fromU64(3).pow((u64)0), Gl::one());
    EXPECT_EQ(Gl::fromU64(3).pow((u64)5), Gl::fromU64(243));
    // Fermat: x^(p-1) = 1.
    EXPECT_EQ(Gl::fromU64(12345).pow(Gl::kP - 1), Gl::one());
}

TEST(StarkField, TwoAdicityMatchesDomainMachinery)
{
    const auto& ta = poly::TwoAdicity<Gl>::get();
    EXPECT_EQ(ta.s, Gl::kTwoAdicity);
    // The derived root really has order 2^32: squaring it 32 times
    // reaches one, 31 times does not.
    Gl r = ta.rootOfUnity;
    for (std::size_t i = 0; i < 31; ++i)
        r = r.squared();
    EXPECT_NE(r, Gl::one());
    EXPECT_EQ(r.squared(), Gl::one());
}

TEST(StarkField, NttRoundTrip)
{
    Rng rng(9);
    const std::size_t n = 256;
    poly::Domain<Gl> dom(n);
    std::vector<Gl> v(n), orig;
    for (auto& x : v)
        x = Gl::random(rng);
    orig = v;
    dom.ntt(v);
    dom.intt(v);
    EXPECT_EQ(v, orig);
    dom.cosetNtt(v);
    dom.cosetIntt(v);
    EXPECT_EQ(v, orig);
}

TEST(StarkHash, ShaNiKernelMatchesScalar)
{
#ifdef ZKP_STARK_HAVE_SHANI
    if (!shaNiSupported())
        GTEST_SKIP() << "CPU lacks the SHA extensions (sha_ni: CPUID "
                        "leaf 7 EBX bit 29) or SSE4.1";
    prop::forAll("sha_ni_compress", 10000, [](Rng& rng, std::size_t) {
        r1cs::Sha256::State s;
        r1cs::Sha256::Block b;
        for (auto& x : s)
            x = (std::uint32_t)rng.next();
        for (auto& x : b)
            x = (std::uint32_t)rng.next();
        ASSERT_EQ(detail::compressShaNi(s, b),
                  r1cs::Sha256::compress(s, b));
    });
#else
    GTEST_SKIP() << "build has no SHA-NI kernel (not x86-64)";
#endif
}

// FIPS 180-4 padding boundaries: 55 bytes is the longest message with
// room for the 0x80 marker and the length in its last block, 56-63
// spill into a second block, 64/128 are whole blocks.
TEST(StarkHash, HashBytesMatchesReferenceAtPaddingBoundaries)
{
    Rng rng(12);
    for (std::size_t n : {0, 1, 55, 56, 63, 64, 65, 119, 120, 128}) {
        std::vector<std::uint8_t> msg(n);
        for (auto& b : msg)
            b = (std::uint8_t)rng.next();
        EXPECT_EQ(hashBytes(msg.data(), n), r1cs::Sha256::hash(msg))
            << "length " << n;
    }
    auto hex = [](std::string_view m) {
        return digestHex(hashBytes(
            reinterpret_cast<const std::uint8_t*>(m.data()), m.size()));
    };
    EXPECT_EQ(hex(""), "e3b0c44298fc1c149afbf4c8996fb924"
                       "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(hex("abc"), "ba7816bf8f01cfea414140de5dae2223"
                          "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                  "nopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(StarkHash, HashRowIsHashOfLittleEndianBytes)
{
    Rng rng(13);
    for (std::size_t width = 0; width <= 17; ++width) {
        std::vector<Gl> row(width);
        std::vector<std::uint8_t> bytes;
        for (auto& x : row) {
            x = Gl::random(rng);
            for (std::size_t b = 0; b < 8; ++b)
                bytes.push_back((std::uint8_t)(x.value() >> (8 * b)));
        }
        EXPECT_EQ(hashRow(row.data(), width),
                  hashBytes(bytes.data(), bytes.size()))
            << "width " << width;
    }
}

TEST(StarkMerkle, FromRowsAllocatesPerLevelNotPerRow)
{
    namespace memprof = obs::memprof;
    if (!memprof::available())
        GTEST_SKIP() << memprof::unavailableReason();
    const std::size_t rows = 1 << 12, width = 2, levels = 13;
    Rng rng(14);
    std::vector<Gl> table(rows * width);
    for (auto& x : table)
        x = Gl::random(rng);
    ASSERT_TRUE(memprof::setTracking(true));
    const auto before = memprof::threadStats();
    const MerkleTree tree = MerkleTree::fromRows(table.data(), rows, width);
    const auto after = memprof::threadStats();
    memprof::setTracking(false);
    EXPECT_EQ(tree.leafCount(), rows);
    // One vector per level plus the level index; O(rows) would be
    // thousands.
    EXPECT_LE(after.allocCount - before.allocCount, 2 * levels);
}

TEST(StarkMerkle, OpenVerify)
{
    Rng rng(10);
    const std::size_t rows = 64, width = 3;
    std::vector<Gl> table(rows * width);
    for (auto& x : table)
        x = Gl::random(rng);
    MerkleTree tree =
        MerkleTree::fromRows(table.data(), rows, width);
    for (std::size_t i : {std::size_t(0), std::size_t(13),
                          std::size_t(63)}) {
        MerklePath path = tree.open(i);
        const Digest leaf = hashRow(&table[i * width], width);
        EXPECT_TRUE(
            MerkleTree::verify(leaf, i, path, tree.root()));
        // Wrong index fails.
        EXPECT_FALSE(
            MerkleTree::verify(leaf, i ^ 1, path, tree.root()));
        // Tampered sibling fails.
        MerklePath bad = path;
        bad.siblings[0][0] ^= 1;
        EXPECT_FALSE(
            MerkleTree::verify(leaf, i, bad, tree.root()));
    }
}

TEST(StarkChannel, DeterministicAndOrderSensitive)
{
    Channel a(1), b(1), c(2);
    a.absorbU64(42);
    b.absorbU64(42);
    c.absorbU64(42);
    EXPECT_EQ(a.challenge(), b.challenge());
    EXPECT_NE(a.challenge(), c.challenge());
    // Same data, different absorb kind -> different challenge.
    Channel d(1), e(1);
    d.absorbU64(7);
    e.absorbField(Gl::fromU64(7));
    EXPECT_NE(d.challenge(), e.challenge());
}

TEST(StarkChannel, GrindRoundTrip)
{
    Channel p(3), v(3);
    const u64 nonce = p.grind(8);
    EXPECT_TRUE(v.checkGrind(nonce, 8));
    // Both sides advanced identically.
    EXPECT_EQ(p.challenge(), v.challenge());
    Channel w(3);
    EXPECT_FALSE(w.checkGrind(nonce + 1, 20));
}

StarkParams
testParams()
{
    StarkParams p;
    p.queries = 10;
    p.grindBits = 4;
    return p;
}

TEST(Stark, FibonacciRoundTrip)
{
    FibonacciAir air(64, Gl::fromU64(1), Gl::fromU64(1));
    const StarkParams params = testParams();
    StarkProof proof = prove(air, params, 2);
    EXPECT_TRUE(verify(air, params, proof));

    // A different statement rejects the same proof.
    FibonacciAir other(64, Gl::fromU64(2), Gl::fromU64(1));
    EXPECT_FALSE(verify(other, params, proof));
}

TEST(Stark, MimcRoundTrip)
{
    MimcAir air(128, Gl::fromU64(7));
    const StarkParams params = testParams();
    StarkProof proof = prove(air, params, 2);
    EXPECT_TRUE(verify(air, params, proof));

    MimcAir other(128, Gl::fromU64(8));
    EXPECT_FALSE(verify(other, params, proof));
}

TEST(Stark, TraceSatisfiesConstraints)
{
    // The AIR's own trace satisfies its own constraints row by row —
    // the invariant the whole quotient construction rests on.
    MimcAir air(64, Gl::fromU64(3));
    const auto trace = air.buildTrace();
    const auto periodic = air.periodicColumns();
    for (std::size_t r = 0; r + 1 < air.steps(); ++r) {
        Gl pv = periodic[0][r % periodic[0].size()];
        Gl out;
        air.evalTransition(&trace[r], &trace[r + 1], &pv, &out);
        EXPECT_TRUE(out.isZero()) << "row " << r;
    }
}

TEST(Stark, SerializeRoundTrip)
{
    FibonacciAir air(32, Gl::fromU64(3), Gl::fromU64(5));
    const StarkParams params = testParams();
    StarkProof proof = prove(air, params, 1);
    const auto bytes = serializeProof(proof);
    EXPECT_GT(bytes.size(), 0u);
    auto back = deserializeProof(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(verify(air, params, *back));
    // Round-trip is byte-stable (deterministic prover => golden
    // vectors are meaningful).
    EXPECT_EQ(serializeProof(*back), bytes);
}

TEST(Stark, ProofIsDeterministic)
{
    MimcAir air(64, Gl::fromU64(11));
    const StarkParams params = testParams();
    const auto a = serializeProof(prove(air, params, 1));
    const auto b = serializeProof(prove(air, params, 2));
    EXPECT_EQ(a, b) << "proof depends on thread count";
}

// The simulator counts one HashCompress per compression and one
// HashAbsorb per hashed field element, whichever kernel runs, so the
// E14 instruction mix does not depend on the host. The values are
// those the scalar-only, heap-buffered hashing produced; threads = 1
// keeps every count on this thread.
TEST(StarkSim, HashCountsArePinned)
{
    const MimcAir air(1 << 8, Gl::fromU64(7));
    const sim::CountingScope counting;
    sim::drainWorkerCounters();
    const sim::Counters before = sim::counters();
    const StarkProof proof = prove(air, StarkParams{}, 1);
    sim::drainWorkerCounters();
    const sim::Counters after = sim::counters();
    auto delta = [&](sim::PrimOp op) {
        return after.prim[(std::size_t)op] - before.prim[(std::size_t)op];
    };
    EXPECT_EQ(delta(sim::PrimOp::HashCompress), 8198u);
    EXPECT_EQ(delta(sim::PrimOp::HashAbsorb), 3968u);
    EXPECT_TRUE(verify(air, StarkParams{}, proof));
}

// Every STARK prove and verify runs through core::measureStage. With
// no reader (no CountingScope, no trace sinks, no ZKP_REPORT, no span
// tracing) a stage counts nothing and records nothing; span tracing
// alone records every stage, with its spans and without counters.
TEST(StarkSim, ProveOutsideScopeCountsNothing)
{
    if (obs::reportAtExit())
        GTEST_SKIP() << "ZKP_REPORT turns STARK stage counting on";
    if (obs::tracingEnabled())
        GTEST_SKIP() << "ZKP_TRACE makes every stage a traced one";
    const MimcAir air(1 << 6, Gl::fromU64(7));
    sim::drainWorkerCounters();
    const sim::Counters before = sim::counters();
    obs::clearStageReports();
    StarkProof proof = prove(air, StarkParams{}, 2);
    EXPECT_TRUE(verify(air, StarkParams{}, proof));
    sim::drainWorkerCounters();
    EXPECT_EQ(sim::counters().instructions(), before.instructions());
    EXPECT_EQ(sim::counters().prim, before.prim);
    EXPECT_TRUE(obs::stageReports().empty());

    obs::startTracing("");
    proof = prove(air, StarkParams{}, 2);
    const bool ok = verify(air, StarkParams{}, proof);
    obs::stopTracing();
    obs::clearTrace();
    EXPECT_TRUE(ok);
    sim::drainWorkerCounters();
    EXPECT_EQ(sim::counters().instructions(), before.instructions());
    std::vector<std::string> stages;
    for (const auto& r : obs::stageReports()) {
        stages.push_back(r.stage);
        EXPECT_TRUE(r.counters.empty()) << r.stage;
        EXPECT_FALSE(r.topSpans.empty()) << r.stage;
    }
    EXPECT_EQ(stages, (std::vector<std::string>{
                          "stark_trace_gen", "stark_lde", "stark_commit",
                          "stark_fri", "stark_query", "stark_verify"}));
    obs::clearStageReports();
}

} // namespace
} // namespace zkp::stark
