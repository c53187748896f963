/**
 * @file
 * Prime-field arithmetic in Montgomery form.
 *
 * Fp<Params> is a fixed-width prime field. All Montgomery constants
 * (R, R^2, -p^-1 mod 2^64) are derived from the modulus at compile
 * time, so a field is fully specified by its Params struct (see
 * ff/params.h). Elements are stored in Montgomery form.
 *
 * Every addition-class and multiplication-class operation reports
 * itself to the sim counters; this is the "bigint" kernel whose
 * instruction mix dominates the paper's code analysis (Table IV/V).
 */

#ifndef ZKP_FF_FP_H
#define ZKP_FF_FP_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/uint.h"
#include "ff/dispatch.h"
#include "sim/counters.h"

namespace zkp::ff {

/** Compute -p^-1 mod 2^64 for odd p (Newton iteration). */
constexpr u64
montgomeryN0(u64 p0)
{
    u64 inv = 1;
    for (int i = 0; i < 6; ++i)
        inv *= 2 - p0 * inv;
    return ~inv + 1; // negate: -p^-1
}

/** Compute 2^bits mod p by repeated doubling. */
template <std::size_t N>
constexpr BigInt<N>
powerOfTwoMod(const BigInt<N>& p, std::size_t bits)
{
    BigInt<N> x(1);
    for (std::size_t i = 0; i < bits; ++i) {
        u64 carry = x.shl1InPlace();
        if (carry || x >= p)
            x.subInPlace(p);
    }
    return x;
}

/**
 * Prime field with CIOS Montgomery multiplication.
 *
 * @tparam Params provides kLimbs, kModulus and kName.
 */
template <typename Params>
class Fp
{
  public:
    static constexpr std::size_t N = Params::kLimbs;
    using Repr = BigInt<N>;

    static constexpr Repr kModulus = Params::kModulus;
    static constexpr u64 kN0 = montgomeryN0(kModulus.limbs[0]);
    /// R = 2^(64N) mod p: the Montgomery form of one.
    static constexpr Repr kR = powerOfTwoMod(kModulus, 64 * N);
    /// R^2 mod p: converts into Montgomery form via montMul(x, R^2).
    static constexpr Repr kR2 = powerOfTwoMod(kModulus, 128 * N);

    constexpr Fp() = default;

    /** The additive identity. */
    static constexpr Fp zero() { return Fp(); }

    /** The multiplicative identity. */
    static constexpr Fp
    one()
    {
        Fp r;
        r.v_ = kR;
        return r;
    }

    /** Lift a small integer into the field. */
    static Fp
    fromU64(u64 x)
    {
        return fromBigInt(Repr(x));
    }

    /** Lift a canonical (< p) integer into Montgomery form. */
    static Fp
    fromBigInt(const Repr& x)
    {
        assert(x < kModulus && "value not reduced");
        Fp r;
        r.v_ = montMul(x, kR2);
        return r;
    }

    /** Parse a hex string (must already be reduced). */
    static Fp
    fromHex(std::string_view s)
    {
        return fromBigInt(Repr::fromHex(s));
    }

    /** Parse a decimal string (must already be reduced). */
    static Fp fromDec(std::string_view s);

    /** Uniform random element by rejection sampling. */
    static Fp
    random(Rng& rng)
    {
        const std::size_t top_bits = kModulus.bitLength() % 64;
        const u64 mask =
            top_bits ? ((u64)1 << top_bits) - 1 : ~(u64)0;
        for (;;) {
            Repr r = rng.nextBigInt<N>();
            r.limbs[N - 1] &= mask;
            if (r < kModulus)
                return fromBigInt(r);
        }
    }

    /** Convert back to canonical integer representation. */
    Repr
    toBigInt() const
    {
        return montMul(v_, Repr(1));
    }

    std::string toHex() const { return toBigInt().toHex(); }

    /** Raw Montgomery-form limbs (for hashing/serialization). */
    const Repr& raw() const { return v_; }

    /** Rebuild from raw Montgomery limbs (inverse of raw()). */
    static Fp
    fromRaw(const Repr& r)
    {
        Fp f;
        f.v_ = r;
        return f;
    }

    bool isZero() const { return v_.isZero(); }
    bool operator==(const Fp& o) const { return v_ == o.v_; }
    bool operator!=(const Fp& o) const { return v_ != o.v_; }

    Fp
    operator+(const Fp& o) const
    {
        sim::count(sim::PrimOp::FieldAdd, N);
        Fp r = *this;
        u64 carry = r.v_.addInPlace(o.v_);
        if (carry || r.v_ >= kModulus)
            r.v_.subInPlace(kModulus);
        return r;
    }

    Fp
    operator-(const Fp& o) const
    {
        sim::count(sim::PrimOp::FieldAdd, N);
        Fp r = *this;
        u64 borrow = r.v_.subInPlace(o.v_);
        if (borrow)
            r.v_.addInPlace(kModulus);
        return r;
    }

    Fp
    operator-() const
    {
        if (isZero())
            return *this;
        sim::count(sim::PrimOp::FieldAdd, N);
        Fp r;
        r.v_ = kModulus;
        r.v_.subInPlace(v_);
        return r;
    }

    Fp
    operator*(const Fp& o) const
    {
        sim::count(sim::PrimOp::FieldMul, N);
        Fp r;
        r.v_ = montMul(v_, o.v_);
        return r;
    }

    Fp& operator+=(const Fp& o) { return *this = *this + o; }
    Fp& operator-=(const Fp& o) { return *this = *this - o; }
    Fp& operator*=(const Fp& o) { return *this = *this * o; }

    /** Squaring (currently multiplication; kept for call-site clarity). */
    Fp squared() const { return *this * *this; }

    /** Doubling. */
    Fp doubled() const { return *this + *this; }

    /**
     * Exponentiation by an arbitrary-width exponent (square & multiply,
     * MSB first).
     */
    template <std::size_t M>
    Fp
    pow(const BigInt<M>& e) const
    {
        Fp result = one();
        const std::size_t bits = e.bitLength();
        for (std::size_t i = bits; i-- > 0;) {
            result = result.squared();
            if (e.bit(i))
                result *= *this;
        }
        return result;
    }

    /** Exponentiation by a 64-bit exponent. */
    Fp pow(u64 e) const { return pow(BigInt<1>(e)); }

    /**
     * Multiplicative inverse via the binary extended Euclidean
     * algorithm on the canonical representation (~2*kBits shift/add
     * iterations — far cheaper than the Fermat exponentiation, which
     * is kept as inverseFermat() for cross-checking).
     *
     * @pre !isZero()
     */
    Fp
    inverse() const
    {
        assert(!isZero() && "inverse of zero");
        // Roughly 1.4 iterations per bit, each a limb-wide add/shift.
        sim::count(sim::PrimOp::FieldAdd, N, (64 * N * 3) / 2);

        Repr u = toBigInt();
        Repr v = kModulus;
        Repr x1(1);
        Repr x2;
        const Repr one(1);
        while (u != one && v != one) {
            while (!u.isOdd()) {
                u.shr1InPlace();
                if (x1.isOdd()) {
                    u64 carry = x1.addInPlace(kModulus);
                    x1.shr1InPlace();
                    if (carry)
                        x1.limbs[N - 1] |= (u64)1 << 63;
                } else {
                    x1.shr1InPlace();
                }
            }
            while (!v.isOdd()) {
                v.shr1InPlace();
                if (x2.isOdd()) {
                    u64 carry = x2.addInPlace(kModulus);
                    x2.shr1InPlace();
                    if (carry)
                        x2.limbs[N - 1] |= (u64)1 << 63;
                } else {
                    x2.shr1InPlace();
                }
            }
            if (u >= v) {
                u.subInPlace(v);
                if (x1 >= x2)
                    x1.subInPlace(x2);
                else {
                    x1.addInPlace(kModulus);
                    x1.subInPlace(x2);
                }
            } else {
                v.subInPlace(u);
                if (x2 >= x1)
                    x2.subInPlace(x1);
                else {
                    x2.addInPlace(kModulus);
                    x2.subInPlace(x1);
                }
            }
        }
        Repr res = (u == one) ? x1 : x2;
        if (res >= kModulus)
            res.subInPlace(kModulus);
        return fromBigInt(res);
    }

    /** Multiplicative inverse via Fermat: x^(p-2) (reference). */
    Fp
    inverseFermat() const
    {
        assert(!isZero() && "inverse of zero");
        Repr e = kModulus;
        e.subInPlace(Repr(2));
        return pow(e);
    }

    /** Euler criterion: +1 for QR, -1 for non-residue, 0 for zero. */
    int
    legendre() const
    {
        if (isZero())
            return 0;
        Repr e = kModulus;
        e.subInPlace(Repr(1));
        e.shr1InPlace();
        Fp r = pow(e);
        if (r == one())
            return 1;
        return -1;
    }

    /**
     * Square root via Tonelli-Shanks.
     *
     * @param out the root (one of the two) when it exists
     * @return false if *this is a non-residue
     */
    bool
    sqrt(Fp& out) const
    {
        if (isZero()) {
            out = zero();
            return true;
        }
        if (legendre() != 1)
            return false;

        // p - 1 = q * 2^s with q odd.
        Repr q = kModulus;
        q.subInPlace(Repr(1));
        std::size_t s = 0;
        while (!q.isOdd()) {
            q.shr1InPlace();
            ++s;
        }

        // Find a non-residue z (deterministic scan keeps this pure).
        Fp z = fromU64(2);
        while (z.legendre() != -1)
            z += one();

        Fp c = z.pow(q);
        Repr q1 = q;
        q1.shr1InPlace(); // (q-1)/2, q odd so this floors correctly
        Fp r = pow(q1) * *this; // x^((q+1)/2)
        Fp t = pow(q);
        std::size_t m = s;

        while (t != one()) {
            // Find least i with t^(2^i) == 1.
            std::size_t i = 0;
            Fp probe = t;
            while (probe != one()) {
                probe = probe.squared();
                ++i;
            }
            Fp b = c;
            for (std::size_t j = 0; j + i + 1 < m; ++j)
                b = b.squared();
            r *= b;
            c = b.squared();
            t *= c;
            m = i;
        }
        out = r;
        return true;
    }

    /** Name of the field (for diagnostics). */
    static const char* name() { return Params::kName; }

    /**
     * Batched multiply: out[i] = a[i] * b[i] for i < n.
     *
     * Dispatches once per process (ff/dispatch.h): for 4- and 6-limb
     * fields on CPUs with AVX-512 IFMA, the radix-52 kernel
     * (ff/fp_ifma.h) in blocks of eight; the scalar CIOS for every
     * other width, for the tail, and for the whole batch under
     * ZKP_FF_FORCE_SCALAR=1. Both paths
     * return identical limbs. In-place use (out == a and/or
     * out == b) is allowed: each block is fully read before any of
     * its outputs are written.
     *
     * @param impl override the process-wide dispatch (the tests
     *             compare the tiers this way; kIfma requires
     *             ff::ifmaSupported())
     */
    static void
    mulBatch(Fp* out, const Fp* a, const Fp* b, std::size_t n,
             [[maybe_unused]] MulImpl impl = mulImpl())
    {
        sim::count(sim::PrimOp::FieldMul, N, n);
        std::size_t i = 0;
#if ZKP_FF_HAVE_IFMA
        if constexpr (N == 4 || N == 6) {
            if (impl == MulImpl::kIfma)
                for (; i + 8 <= n; i += 8)
                    ifma::montMul8<N>(out[i].v_.limbs.data(),
                                      a[i].v_.limbs.data(),
                                      b[i].v_.limbs.data(),
                                      kModulus.limbs.data(), kN0);
        }
#endif
        for (; i < n; ++i)
            out[i].v_ = montMul(a[i].v_, b[i].v_);
    }

  private:
    /** CIOS Montgomery multiplication: returns a*b*R^-1 mod p. */
    static Repr
    montMul(const Repr& a, const Repr& b)
    {
        u64 t[N + 2] = {};
        for (std::size_t i = 0; i < N; ++i) {
            // t += a[i] * b
            u64 carry = 0;
            for (std::size_t j = 0; j < N; ++j)
                t[j] = mulAdd2(a.limbs[i], b.limbs[j], t[j], carry, carry);
            u64 c2 = 0;
            t[N] = addCarry(t[N], carry, c2);
            t[N + 1] += c2;

            // Reduce one limb: t = (t + m*p) / 2^64.
            const u64 m = t[0] * kN0;
            carry = 0;
            (void)mulAdd2(m, kModulus.limbs[0], t[0], carry, carry);
            for (std::size_t j = 1; j < N; ++j)
                t[j - 1] = mulAdd2(m, kModulus.limbs[j], t[j], carry, carry);
            c2 = 0;
            t[N - 1] = addCarry(t[N], carry, c2);
            t[N] = t[N + 1] + c2;
            t[N + 1] = 0;
        }

        Repr r;
        for (std::size_t i = 0; i < N; ++i)
            r.limbs[i] = t[i];
        if (t[N] || r >= kModulus)
            r.subInPlace(kModulus);
        return r;
    }

    Repr v_{}; // Montgomery form
};

/**
 * Batched multiply for any field type: out[i] = a[i] * b[i]. Routes
 * through F::mulBatch when F provides one (prime fields, and Fp2 over
 * the base field's kernel), falling back to operator* (Fp6, Fp12).
 */
template <typename F>
void
mulBatch(F* out, const F* a, const F* b, std::size_t n)
{
    if constexpr (requires { F::mulBatch(out, a, b, n); }) {
        F::mulBatch(out, a, b, n);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] * b[i];
    }
}

/**
 * Batched squaring for any field type: out[i] = a[i]^2. Uses F's own
 * squareBatch when it has one (Fp2: two base-field products per
 * element, not three), else mulBatch(out, a, a, n). out may alias a.
 */
template <typename F>
void
squareBatch(F* out, const F* a, std::size_t n)
{
    if constexpr (requires { F::squareBatch(out, a, n); })
        F::squareBatch(out, a, n);
    else
        mulBatch(out, a, a, n);
}

/**
 * Batched multiply by a broadcast constant: out[i] = a[i] * c. The
 * constant is replicated into a small stack buffer so the products
 * still flow through the dispatched batch kernels.
 */
template <typename F>
void
mulBatchConst(F* out, const F* a, const F& c, std::size_t n)
{
    if constexpr (requires { F::mulBatch(out, a, a, n); }) {
        constexpr std::size_t B = 64;
        F cs[B];
        std::fill(cs, cs + B, c);
        std::size_t i = 0;
        for (; i + B <= n; i += B)
            F::mulBatch(out + i, a + i, cs, B);
        if (i < n)
            F::mulBatch(out + i, a + i, cs, n - i);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] * c;
    }
}

namespace detail {

/**
 * Single-chain Montgomery batch inversion (reference form); @p prefix
 * is scratch for n elements.
 */
template <typename F>
void
batchInverseSerial(F* elems, std::size_t n, F* prefix)
{
    if (n == 0)
        return;
    F acc = F::one();
    for (std::size_t i = 0; i < n; ++i) {
        prefix[i] = acc;
        acc *= elems[i];
    }
    F inv = acc.inverse();
    for (std::size_t i = n; i-- > 0;) {
        F tmp = inv * prefix[i];
        inv *= elems[i];
        elems[i] = tmp;
    }
}

} // namespace detail

/**
 * Batch inversion (Montgomery's trick): inverts n elements with one
 * field inversion and 3(n-1) multiplications.
 *
 * The prefix/suffix product passes are serial chains, so for large
 * batches the array is split into eight contiguous blocks whose chains
 * advance in lock-step through mulBatch — turning nearly all of the
 * 3n multiplies into dispatched (IFMA where available) batch work. The
 * block partition puts all full-length chains first, so the set of
 * still-active chains at any step is a prefix and the accumulators
 * stay contiguous for mulBatch.
 *
 * @param prefix scratch for @p n elements; a caller that inverts
 *               batches repeatedly passes the same buffer so the
 *               inversion allocates nothing
 * @pre no element is zero
 */
template <typename F>
void
batchInverse(F* elems, std::size_t n, F* prefix)
{
    constexpr std::size_t K = 8;
    if (n < 4 * K) {
        detail::batchInverseSerial(elems, n, prefix);
        return;
    }

    const std::size_t m = (n + K - 1) / K; // block length (last short)
    std::size_t base[K], len[K];
    std::size_t chains = 0;
    for (std::size_t l = 0; l < K; ++l) {
        base[l] = l * m;
        len[l] = base[l] < n ? std::min(m, n - base[l]) : 0;
        if (len[l])
            ++chains;
    }

    F acc[K], gath[K], res[K];
    for (std::size_t l = 0; l < K; ++l)
        acc[l] = F::one();

    for (std::size_t i = 0; i < m; ++i) {
        std::size_t kc = 0;
        for (std::size_t l = 0; l < K; ++l) {
            if (i < len[l]) {
                prefix[base[l] + i] = acc[l];
                gath[kc++] = elems[base[l] + i];
            }
        }
        mulBatch(acc, acc, gath, kc);
    }

    F chain_prefix[K];
    detail::batchInverseSerial(acc, chains, chain_prefix);

    for (std::size_t i = m; i-- > 0;) {
        std::size_t kc = 0;
        for (std::size_t l = 0; l < K; ++l)
            if (i < len[l])
                gath[kc++] = elems[base[l] + i];
        // res = chain_inv * prefix (the answers); acc = chain_inv * elem
        // (peeling this element off the chain inverse).
        std::size_t k2 = 0;
        for (std::size_t l = 0; l < K; ++l)
            if (i < len[l])
                res[k2] = prefix[base[l] + i], ++k2;
        mulBatch(res, acc, res, kc);
        mulBatch(acc, acc, gath, kc);
        k2 = 0;
        for (std::size_t l = 0; l < K; ++l)
            if (i < len[l])
                elems[base[l] + i] = res[k2++];
    }
}

/** batchInverse with its own prefix scratch (one allocation). */
template <typename F>
void
batchInverse(F* elems, std::size_t n)
{
    std::vector<F> prefix(n);
    batchInverse(elems, n, prefix.data());
}

} // namespace zkp::ff

#endif // ZKP_FF_FP_H
