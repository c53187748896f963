/**
 * @file
 * SHA-256 digests over Goldilocks data: the commitment hash of the
 * STARK backend.
 *
 * Every compression goes through one entry point,
 * detail::compressCounted, which runs one of two kernels chosen once
 * per process:
 *
 *  - sha_ni  the x86 SHA extensions (sha256rnds2/msg1/msg2), taken
 *            when CPUID leaf 7 reports SHA (EBX bit 29) and leaf 1
 *            reports SSE4.1; detection reads CPUID directly, so it
 *            does not depend on the compiler's feature-name table;
 *  - scalar  r1cs::Sha256::compress, the repo's reference SHA-256
 *            (the one the SHA circuit gadget is checked against), on
 *            every other host.
 *
 * Both produce the same words, so proofs are byte-identical across
 * hosts; shaImplName() reports which one ran. Three fixed-shape
 * entry points cover everything the Merkle tree and the Fiat-Shamir
 * channel need, none of which touches the heap:
 *
 *  - hashBytes: FIPS 180-4 SHA-256 of a byte string; whole blocks are
 *    loaded in place and the padding goes into a stack tail block;
 *  - hashRow: a trace/FRI-layer row of field elements -> digest (leaf
 *    hashing). Equal to hashBytes over the row's little-endian bytes,
 *    but each element is written straight into the block as two
 *    byte-swapped message words;
 *  - hashPair: two digests -> digest (interior node; exactly one
 *    compression, since 2 x 32 bytes fills one 512-bit block — the
 *    padding block is deliberately omitted on this fixed-width path,
 *    a standard Merkle-node construction).
 *
 * Every compression reports PrimOp::HashCompress to the sim layer
 * whichever kernel runs it, so the opcode-mix/MPKI analyses keep the
 * scalar compression's simulated instruction profile: the
 * hash-dominated mix that distinguishes the STARK prover from the
 * Montgomery-multiply-dominated SNARK stages (EXPERIMENTS.md §E14).
 */

#ifndef ZKP_STARK_HASH_H
#define ZKP_STARK_HASH_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "r1cs/gadgets/sha256.h"
#include "sim/counters.h"
#include "sim/memtrace.h"
#include "stark/field.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define ZKP_STARK_HAVE_SHANI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace zkp::stark {

/** A 32-byte SHA-256 digest. */
using Digest = std::array<std::uint8_t, 32>;

/**
 * True when this build AND this CPU can run the SHA-NI kernel; read
 * from CPUID once per process.
 */
inline bool
shaNiSupported()
{
#ifdef ZKP_STARK_HAVE_SHANI
    static const bool supported = [] {
        unsigned a, b, c, d;
        if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & (1u << 19)))
            return false; // no SSE4.1
        if (!__get_cpuid_count(7, 0, &a, &b, &c, &d))
            return false;
        return (b & (1u << 29)) != 0; // SHA
    }();
    return supported;
#else
    return false;
#endif
}

/** Diagnostic name of the active kernel ("sha_ni" or "scalar"). */
inline const char*
shaImplName()
{
    return shaNiSupported() ? "sha_ni" : "scalar";
}

namespace detail {

using ShaState = r1cs::Sha256::State;
using ShaBlock = r1cs::Sha256::Block;

#ifdef ZKP_STARK_HAVE_SHANI
/**
 * One SHA-256 compression on the SHA extensions. sha256rnds2 keeps
 * the state as two lanes-reversed halves, ABEF and CDGH, and does
 * two rounds per call; msg1/msg2 extend the schedule four words at a
 * time. Call only when shaNiSupported().
 */
__attribute__((target("sha,sse4.1"))) inline ShaState
compressShaNi(const ShaState& state, const ShaBlock& block)
{
    const auto* k =
        reinterpret_cast<const __m128i*>(r1cs::Sha256::kK.data());
    const auto* w = reinterpret_cast<const __m128i*>(block.data());
    __m128i dcba = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(state.data()));
    __m128i hgfe = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(state.data() + 4));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
    const __m128i abef0 = abef, cdgh0 = cdgh;

    // m[g % 4] holds schedule words 4g..4g+3 of round group g.
    __m128i m[4];
    for (std::size_t i = 0; i < 4; ++i)
        m[i] = _mm_loadu_si128(w + i);
#pragma GCC unroll 16
    for (std::size_t g = 0; g < 16; ++g) {
        if (g >= 4) {
            const __m128i mid = _mm_alignr_epi8(m[(g + 3) % 4],
                                                m[(g + 2) % 4], 4);
            m[g % 4] = _mm_sha256msg2_epu32(
                _mm_add_epi32(
                    _mm_sha256msg1_epu32(m[g % 4], m[(g + 1) % 4]),
                    mid),
                m[(g + 3) % 4]);
        }
        const __m128i wk =
            _mm_add_epi32(m[g % 4], _mm_loadu_si128(k + g));
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh,
                                     _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    hgfe = _mm_alignr_epi8(dchg, feba, 8);
    ShaState out{};
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data()), dcba);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + 4), hgfe);
    return out;
}
#endif

/** The one compression entry point: counted, kernel-dispatched. */
inline ShaState
compressCounted(const ShaState& s, const ShaBlock& b)
{
    sim::count(sim::PrimOp::HashCompress, 1);
#ifdef ZKP_STARK_HAVE_SHANI
    if (shaNiSupported())
        return compressShaNi(s, b);
#endif
    return r1cs::Sha256::compress(s, b);
}

/** Big-endian 32-bit words from @p n_words x 4 bytes at @p p. */
inline void
loadWords(const std::uint8_t* p, std::uint32_t* out, std::size_t n_words)
{
    for (std::size_t i = 0; i < n_words; ++i)
        out[i] = ((std::uint32_t)p[4 * i] << 24) |
                 ((std::uint32_t)p[4 * i + 1] << 16) |
                 ((std::uint32_t)p[4 * i + 2] << 8) |
                 (std::uint32_t)p[4 * i + 3];
}

inline Digest
stateToDigest(const ShaState& s)
{
    Digest out;
    for (std::size_t i = 0; i < 8; ++i) {
        out[4 * i] = (std::uint8_t)(s[i] >> 24);
        out[4 * i + 1] = (std::uint8_t)(s[i] >> 16);
        out[4 * i + 2] = (std::uint8_t)(s[i] >> 8);
        out[4 * i + 3] = (std::uint8_t)s[i];
    }
    return out;
}

/**
 * Finish a message whose last block holds @p used words (message
 * tail plus the 0x80 marker): zero the rest, append the 64-bit bit
 * length, spilling into one more block when it does not fit.
 */
inline Digest
finishPadded(ShaState s, ShaBlock& blk, std::size_t used,
             std::uint64_t bit_len)
{
    if (used > 14) {
        std::fill(blk.begin() + used, blk.end(), 0u);
        s = compressCounted(s, blk);
        used = 0;
    }
    std::fill(blk.begin() + used, blk.begin() + 14, 0u);
    blk[14] = (std::uint32_t)(bit_len >> 32);
    blk[15] = (std::uint32_t)bit_len;
    return stateToDigest(compressCounted(s, blk));
}

} // namespace detail

/** Full (padded) SHA-256 of a byte string, compression-counted. */
inline Digest
hashBytes(const std::uint8_t* data, std::size_t n)
{
    detail::ShaState s = r1cs::Sha256::kIv;
    detail::ShaBlock blk{};
    std::size_t off = 0;
    for (; n - off >= 64; off += 64) {
        detail::loadWords(data + off, blk.data(), 16);
        s = detail::compressCounted(s, blk);
    }
    const std::size_t rem = n - off;
    std::uint8_t tail[64] = {};
    if (rem > 0)
        std::memcpy(tail, data + off, rem);
    tail[rem] = 0x80;
    detail::loadWords(tail, blk.data(), 16);
    return detail::finishPadded(s, blk, rem / 4 + 1, (std::uint64_t)n * 8);
}

/**
 * Hash one row of field elements (little-endian 8-byte words).
 * Per-element absorb bookkeeping is counted apart from the
 * compressions, mirroring the sponge instrumentation convention.
 */
inline Digest
hashRow(const Gl* row, std::size_t width)
{
    sim::count(sim::PrimOp::HashAbsorb, 1, width);
    sim::traceLoad(row, 8 * width);
    detail::ShaState s = r1cs::Sha256::kIv;
    detail::ShaBlock blk{};
    std::size_t k = 0;
    for (std::size_t i = 0; i < width; ++i) {
        const u64 v = row[i].value();
        blk[k++] = __builtin_bswap32((std::uint32_t)v);
        blk[k++] = __builtin_bswap32((std::uint32_t)(v >> 32));
        if (k == 16) {
            s = detail::compressCounted(s, blk);
            k = 0;
        }
    }
    blk[k] = 0x80000000u;
    return detail::finishPadded(s, blk, k + 1, (std::uint64_t)width * 64);
}

/** One-compression interior-node hash of two child digests. */
inline Digest
hashPair(const Digest& left, const Digest& right)
{
    sim::traceLoad(&left, sizeof(left));
    sim::traceLoad(&right, sizeof(right));
    detail::ShaBlock blk{};
    detail::loadWords(left.data(), blk.data(), 8);
    detail::loadWords(right.data(), blk.data() + 8, 8);
    return detail::stateToDigest(
        detail::compressCounted(r1cs::Sha256::kIv, blk));
}

/** Lowercase hex rendering (test diagnostics, golden vectors). */
inline std::string
digestHex(const Digest& d)
{
    static const char* k = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint8_t b : d) {
        out.push_back(k[b >> 4]);
        out.push_back(k[b & 0xf]);
    }
    return out;
}

} // namespace zkp::stark

#endif // ZKP_STARK_HASH_H
