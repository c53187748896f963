/**
 * @file
 * AVX-512 IFMA radix-52 Montgomery multiplication, eight products per
 * call, for 4-limb (<= 256-bit) and 6-limb (<= 384-bit) moduli.
 *
 * vpmadd52luq/vpmadd52huq multiply the low 52 bits of two 64-bit lanes
 * and accumulate the low/high 52 bits of the 104-bit product into a
 * 64-bit accumulator. Operands are therefore gathered into limb-major
 * vectors (one lane per product), converted from the NWx64 storage
 * radix to NLx52 (4 words -> 5 limbs, 6 words -> 8 limbs), multiplied
 * with an NL-round CIOS whose redundant accumulators stay below 2^57
 * (no carry propagation inside the loop), then carried, conditionally
 * reduced, converted back and scattered. One template serves both
 * widths.
 *
 * Radix bridge: NL 52-bit reduction rounds divide by R' = 2^(52*NL),
 * but the rest of the system stores elements in Montgomery form with
 * R = 2^(64*NW). The a-operand is pre-scaled by 2^S, S = 52*NL - 64*NW
 * (2^4 for 4 words, 2^32 for 6), during radix conversion (a fused
 * shift, not a field multiply), so the kernel returns
 * a*2^S*b/R' = a*b/R -- bit-identical to the scalar CIOS path. The
 * scaled operand a*2^S < 2^(64*NW+S) = R' (2^260, 2^416) still fits NL
 * 52-bit limbs, which keeps the result below 2p for one conditional
 * subtract.
 *
 * Accumulator bound: in each round a limb adds at most four 52-bit
 * partial products (lo and hi of a_i*b and of m*p), and a value that
 * ends in limb k was at the top limb (two hi products only) in round
 * k, so no accumulator ever holds more than 4*NL - 2 products plus
 * the small carries folded in at the shifts: 30*2^52 + 2^8 < 2^57 at
 * eight rounds.
 *
 * This header only defines ZKP_FF_HAVE_IFMA (and the kernel) when the
 * compiler can target AVX-512 IFMA; callers must additionally check
 * CPUID at runtime via ff::mulImpl() before calling in here.
 */

#ifndef ZKP_FF_FP_IFMA_H
#define ZKP_FF_FP_IFMA_H

#include "common/uint.h"

#if defined(__x86_64__) && defined(__GNUC__) && \
    (defined(__clang__) ? (__clang_major__ >= 8) : (__GNUC__ >= 8))
#define ZKP_FF_HAVE_IFMA 1

// GCC implements _mm512_set1_epi64 through _mm512_undefined_epi32 and
// then (correctly) warns that the undefined vector is used; the value
// is fully overwritten by the broadcast, so the warning is noise. The
// diagnostic is attributed to the intrinsic header itself, so the
// suppression has to cover the include too.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

namespace zkp::ff::ifma {

inline constexpr u64 kMask52 = ((u64)1 << 52) - 1;

/** Radix-52 limbs that hold an NW-word value: 4 -> 5, 6 -> 8. */
template <int NW>
inline constexpr int kLimbs52 = (64 * NW + 51) / 52;

#define ZKP_FF_IFMA_TARGET \
    __attribute__((target("avx512f,avx512dq,avx512vl,avx512ifma")))

namespace detail {

/**
 * The 52-bit window of an NW-word value (eight lanes, word-major)
 * starting at bit @p off; a negative @p off shifts the value up by
 * -off bits first (the radix bridge's pre-scale). Inlined with a
 * constant @p off, so every shift is an immediate.
 */
template <int NW>
ZKP_FF_IFMA_TARGET __attribute__((always_inline)) inline __m512i
window52(const __m512i* v, int off, __m512i mask)
{
    if (off < 0)
        return _mm512_and_si512(_mm512_slli_epi64(v[0], -off), mask);
    const int w = off / 64, s = off % 64;
    __m512i x = _mm512_srli_epi64(v[w], s);
    if (s > 12 && w + 1 < NW)
        x = _mm512_or_si512(x, _mm512_slli_epi64(v[w + 1], 64 - s));
    return _mm512_and_si512(x, mask);
}

} // namespace detail

/**
 * Eight independent Montgomery products
 * out[i] = a[i]*b[i]*2^(-64*NW) mod p.
 *
 * @tparam NW  storage words per element: 4 or 6
 * @param out  8 contiguous NW-word little-endian elements (may alias
 *             a/b)
 * @param a    8 contiguous NW-word multiplicands, each < p
 * @param b    8 contiguous NW-word multiplicands, each < p
 * @param mod  the NW-word odd modulus p
 * @param n0   -p^-1 mod 2^64 (only the low 52 bits are used)
 */
template <int NW>
ZKP_FF_IFMA_TARGET inline void
montMul8(u64* out, const u64* a, const u64* b, const u64* mod, u64 n0)
{
    constexpr int NL = kLimbs52<NW>;
    constexpr int S = 52 * NL - 64 * NW; // the a-operand's pre-scale
    static_assert(NL <= 8, "the 2^57 accumulator bound assumes <= 8 rounds");
    static_assert(S >= 0 && S < 52);

    // Transpose element-major storage to limb-major vectors: lane i of
    // word vector j gathers word j of element i. (Scalar stores to a
    // stack array reloaded as vectors stall on store forwarding and
    // cost about as much as the multiply itself.)
    const __m512i vidx = _mm512_set_epi64(7 * NW, 6 * NW, 5 * NW, 4 * NW,
                                          3 * NW, 2 * NW, NW, 0);
    __m512i A64[NW], B64[NW];
#pragma GCC unroll 8
    for (int j = 0; j < NW; ++j) {
        A64[j] = _mm512_i64gather_epi64(vidx, a + j, 8);
        B64[j] = _mm512_i64gather_epi64(vidx, b + j, 8);
    }

    const __m512i mask = _mm512_set1_epi64((long long)kMask52);
    const __m512i zero = _mm512_setzero_si512();

    // Radix NWx64 -> NLx52; the a side is fused with the *2^S
    // pre-scale (limb j is bit window j*52-S .. j*52+51-S of a).
    __m512i M64[NW];
#pragma GCC unroll 8
    for (int j = 0; j < NW; ++j)
        M64[j] = _mm512_set1_epi64((long long)mod[j]);
    __m512i A[NL], B[NL], P[NL];
#pragma GCC unroll 8
    for (int j = 0; j < NL; ++j) {
        A[j] = detail::window52<NW>(A64, 52 * j - S, mask);
        B[j] = detail::window52<NW>(B64, 52 * j, mask);
        P[j] = detail::window52<NW>(M64, 52 * j, mask);
    }
    const __m512i vn0 = _mm512_set1_epi64((long long)(n0 & kMask52));

    // NL CIOS rounds. Accumulators are redundant (< 2^57): each round
    // adds at most four 52-bit partial products per limb, so carries
    // are only resolved once, after the loop.
    __m512i T[NL + 1];
#pragma GCC unroll 9
    for (int j = 0; j <= NL; ++j)
        T[j] = zero;
#pragma GCC unroll 8
    for (int i = 0; i < NL; ++i) {
        const __m512i ai = A[i];
#pragma GCC unroll 8
        for (int j = 0; j < NL; ++j)
            T[j] = _mm512_madd52lo_epu64(T[j], ai, B[j]);
#pragma GCC unroll 8
        for (int j = 0; j < NL; ++j)
            T[j + 1] = _mm512_madd52hi_epu64(T[j + 1], ai, B[j]);

        // m = lo52(t0) * n0 mod 2^52; t + m*p then has 52 zero low bits.
        const __m512i m = _mm512_madd52lo_epu64(zero, T[0], vn0);
#pragma GCC unroll 8
        for (int j = 0; j < NL; ++j)
            T[j] = _mm512_madd52lo_epu64(T[j], m, P[j]);
#pragma GCC unroll 8
        for (int j = 0; j < NL; ++j)
            T[j + 1] = _mm512_madd52hi_epu64(T[j + 1], m, P[j]);

        // Divide by 2^52: drop limb 0, folding its (redundant) high
        // bits into the next limb.
        const __m512i carry = _mm512_srli_epi64(T[0], 52);
        T[0] = _mm512_add_epi64(T[1], carry);
#pragma GCC unroll 8
        for (int j = 1; j < NL; ++j)
            T[j] = T[j + 1];
        T[NL] = zero;
    }

    // Resolve redundancy to strict radix 52.
#pragma GCC unroll 8
    for (int j = 0; j + 1 < NL; ++j) {
        T[j + 1] =
            _mm512_add_epi64(T[j + 1], _mm512_srli_epi64(T[j], 52));
        T[j] = _mm512_and_si512(T[j], mask);
    }

    // Result < 2p: subtract p once where res >= p (no final borrow).
    __m512i D[NL];
    const __m512i one = _mm512_set1_epi64(1);
    __mmask8 borrow = 0;
#pragma GCC unroll 8
    for (int j = 0; j < NL; ++j) {
        __m512i d = _mm512_sub_epi64(T[j], P[j]);
        d = _mm512_mask_sub_epi64(d, borrow, d, one);
        borrow = _mm512_cmplt_epi64_mask(d, zero);
        D[j] = _mm512_and_si512(d, mask);
    }
#pragma GCC unroll 8
    for (int j = 0; j < NL; ++j)
        T[j] = _mm512_mask_blend_epi64(borrow, D[j], T[j]);

    // Radix NLx52 -> NWx64 (word w collects every limb that overlaps
    // bits 64w .. 64w+63), scattered back to element-major storage.
    // Every input was gathered above, so out may alias a or b.
#pragma GCC unroll 8
    for (int w = 0; w < NW; ++w) {
        __m512i r = zero;
#pragma GCC unroll 8
        for (int j = 0; j < NL; ++j) {
            const int lo = 52 * j - 64 * w;
            if (lo >= 64 || lo + 52 <= 0)
                continue;
            r = _mm512_or_si512(r, lo >= 0 ? _mm512_slli_epi64(T[j], lo)
                                           : _mm512_srli_epi64(T[j], -lo));
        }
        _mm512_i64scatter_epi64(out + w, vidx, r, 8);
    }
}

#undef ZKP_FF_IFMA_TARGET

} // namespace zkp::ff::ifma

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif // compiler support

#endif // ZKP_FF_FP_IFMA_H
