/**
 * @file
 * Unit tests for the common substrate: fixed and dynamic bignums,
 * RNG determinism, parallel helpers and table rendering.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/bignum.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/timer.h"
#include "common/uint.h"

namespace zkp {
namespace {

TEST(BigIntTest, BasicArithmetic)
{
    BigInt<4> a(5);
    BigInt<4> b(7);
    BigInt<4> c = a;
    EXPECT_EQ(c.addInPlace(b), 0u);
    EXPECT_EQ(c, BigInt<4>(12));
    EXPECT_EQ(c.subInPlace(a), 0u);
    EXPECT_EQ(c, b);
}

TEST(BigIntTest, CarryPropagation)
{
    BigInt<2> a;
    a.limbs = {~(u64)0, 0};
    BigInt<2> one(1);
    EXPECT_EQ(a.addInPlace(one), 0u);
    EXPECT_EQ(a.limbs[0], 0u);
    EXPECT_EQ(a.limbs[1], 1u);

    // Borrow across limbs.
    EXPECT_EQ(a.subInPlace(one), 0u);
    EXPECT_EQ(a.limbs[0], ~(u64)0);
    EXPECT_EQ(a.limbs[1], 0u);
}

TEST(BigIntTest, OverflowReturnsCarry)
{
    BigInt<1> a(~(u64)0);
    EXPECT_EQ(a.addInPlace(BigInt<1>(1)), 1u);
    EXPECT_TRUE(a.isZero());
    EXPECT_EQ(a.subInPlace(BigInt<1>(1)), 1u);
}

TEST(BigIntTest, HexRoundTrip)
{
    auto a = BigInt<4>::fromHex(
        "0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47");
    EXPECT_EQ(a.toHex(),
        "0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47");
    EXPECT_EQ(BigInt<4>().toHex(), "0x0");
    EXPECT_EQ(BigInt<4>::fromHex("ff").limbs[0], 255u);
}

TEST(BigIntTest, BitOperations)
{
    auto a = BigInt<4>::fromHex("0x8000000000000001");
    EXPECT_TRUE(a.bit(0));
    EXPECT_TRUE(a.bit(63));
    EXPECT_FALSE(a.bit(1));
    EXPECT_EQ(a.bitLength(), 64u);
    a.shl1InPlace();
    EXPECT_TRUE(a.bit(64));
    EXPECT_TRUE(a.bit(1));
    a.shr1InPlace();
    EXPECT_TRUE(a.bit(63));
    EXPECT_TRUE(a.bit(0));
}

TEST(BigIntTest, Comparison)
{
    BigInt<2> small(3);
    BigInt<2> big;
    big.limbs = {0, 1};
    EXPECT_LT(small.cmp(big), 0);
    EXPECT_GT(big.cmp(small), 0);
    EXPECT_EQ(small.cmp(small), 0);
    EXPECT_TRUE(small < big);
    EXPECT_TRUE(big >= small);
}

TEST(BigIntTest, MulFull)
{
    BigInt<2> a;
    a.limbs = {~(u64)0, ~(u64)0}; // 2^128 - 1
    auto sq = a.mulFull(a); // (2^128-1)^2 = 2^256 - 2^129 + 1
    BigNum ref = BigNum::fromBigInt(a) * BigNum::fromBigInt(a);
    EXPECT_EQ(BigNum::fromBigInt(sq), ref);
}

TEST(BigNumTest, DecimalRoundTrip)
{
    const char* dec =
        "21888242871839275222246405745257275088696311157297823662689037894"
        "645226208583";
    BigNum a = BigNum::fromDec(dec);
    EXPECT_EQ(a.toDec(), dec);
    // Same value as the BN254 hex modulus.
    EXPECT_EQ(a, BigNum::fromHex(
        "0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47"));
}

TEST(BigNumTest, DivisionProperties)
{
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
        BigNum a = BigNum::fromBigInt(rng.nextBigInt<6>());
        BigNum b = BigNum::fromBigInt(rng.nextBigInt<3>());
        if (b.isZero())
            continue;
        auto [q, r] = a.divMod(b);
        EXPECT_TRUE(r < b);
        EXPECT_EQ(q * b + r, a);
    }
}

TEST(BigNumTest, DivisionEdgeCases)
{
    BigNum a = BigNum::fromHex("0x100000000000000000000000000000000");
    EXPECT_EQ(a / a, BigNum(1));
    EXPECT_EQ(a % a, BigNum());
    EXPECT_EQ(BigNum() / a, BigNum());
    EXPECT_EQ((a - BigNum(1)) / a, BigNum());
    EXPECT_EQ((a - BigNum(1)) % a, a - BigNum(1));
    // Knuth-D "add back" path is rare; exercise near-boundary values.
    BigNum u = BigNum::fromHex("0x7fffffffffffffff8000000000000000"
                               "00000000000000000000000000000000");
    BigNum v = BigNum::fromHex("0x80000000000000008000000000000001");
    auto [q, r] = u.divMod(v);
    EXPECT_EQ(q * v + r, u);
    EXPECT_TRUE(r < v);
}

TEST(BigNumTest, ShiftInverse)
{
    BigNum a = BigNum::fromHex("0xdeadbeefcafebabe1234567890abcdef");
    for (std::size_t s : {1u, 17u, 64u, 65u, 127u})
        EXPECT_EQ(a.shl(s).shr(s), a);
}

TEST(BigNumTest, PowMod)
{
    // 2^10 mod 1000 = 24
    EXPECT_EQ(BigNum(2).powMod(BigNum(10), BigNum(1000)), BigNum(24));
    // Fermat: a^(p-1) = 1 mod p for prime p = 2^61 - 1.
    BigNum p = BigNum((1ULL << 61) - 1);
    BigNum a = BigNum(123456789);
    EXPECT_EQ(a.powMod(p - BigNum(1), p), BigNum(1));
}

TEST(RngTest, DeterministicAndDispersed)
{
    Rng a(7), b(7), c(8);
    std::set<u64> seen;
    bool diverged = false;
    for (int i = 0; i < 100; ++i) {
        u64 v = a.next();
        EXPECT_EQ(v, b.next());
        diverged |= v != c.next();
        seen.insert(v);
    }
    EXPECT_TRUE(diverged);
    EXPECT_EQ(seen.size(), 100u);
}

TEST(ParallelTest, CoversRangeExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(1000, 7, [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i)
            hits[i]++;
    });
    for (auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, SingleThreadRunsInline)
{
    std::size_t calls = 0;
    parallelFor(10, 1, [&](std::size_t tid, std::size_t b, std::size_t e) {
        EXPECT_EQ(tid, 0u);
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(e, 10u);
        ++calls;
    });
    EXPECT_EQ(calls, 1u);
}

TEST(ParallelTest, MoreThreadsThanWork)
{
    std::atomic<int> total{0};
    parallelFor(3, 16, [&](std::size_t, std::size_t b, std::size_t e) {
        total += (int)(e - b);
    });
    EXPECT_EQ(total.load(), 3);
}

TEST(TimerTest, LapReturnsElapsedAndResets)
{
    Timer t;
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 5000000; ++i)
        sink = sink + i;
    const double first = t.lap();
    EXPECT_GT(first, 0.0);
    // lap() restarted the clock: an immediate reading excludes the
    // milliseconds of work measured above.
    const double second = t.seconds();
    EXPECT_GE(second, 0.0);
    EXPECT_LT(second, first);
}

TEST(TableTest, RenderAlignsColumns)
{
    TextTable t;
    t.setHeader({"stage", "value"});
    t.addRow({"setup", "76.1%"});
    t.addRow({"proving", "13.4%"});
    std::string s = t.render();
    EXPECT_NE(s.find("stage"), std::string::npos);
    EXPECT_NE(s.find("proving"), std::string::npos);
}

TEST(TableTest, Formatters)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPct(0.761, 1), "76.1%");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
    EXPECT_EQ(fmtGBps(25e9), "25.00 GB/s");
    EXPECT_EQ(fmtSeconds(0.0025), "2.50 ms");
}

} // namespace
} // namespace zkp
