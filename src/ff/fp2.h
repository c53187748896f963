/**
 * @file
 * Quadratic extension field Fp2 = Fp[u] / (u^2 + 1).
 *
 * Both BN254 and BLS12-381 have p = 3 mod 4, so -1 is a quadratic
 * non-residue in Fp and the same tower shape serves both curves.
 */

#ifndef ZKP_FF_FP2_H
#define ZKP_FF_FP2_H

#include <algorithm>
#include <cstddef>
#include <string>

#include "common/rng.h"
#include "ff/dispatch.h"

namespace zkp::ff {

/**
 * Element c0 + c1*u with u^2 = -1.
 *
 * @tparam Fq the base prime field
 */
template <typename Fq>
struct Fp2
{
    Fq c0, c1;

    constexpr Fp2() = default;
    Fp2(const Fq& a, const Fq& b) : c0(a), c1(b) {}

    static Fp2 zero() { return {}; }
    static Fp2 one() { return {Fq::one(), Fq::zero()}; }

    /** Embed a base-field element. */
    static Fp2 fromFq(const Fq& a) { return {a, Fq::zero()}; }

    static Fp2
    random(Rng& rng)
    {
        return {Fq::random(rng), Fq::random(rng)};
    }

    bool isZero() const { return c0.isZero() && c1.isZero(); }
    bool operator==(const Fp2& o) const { return c0 == o.c0 && c1 == o.c1; }
    bool operator!=(const Fp2& o) const { return !(*this == o); }

    Fp2 operator+(const Fp2& o) const { return {c0 + o.c0, c1 + o.c1}; }
    Fp2 operator-(const Fp2& o) const { return {c0 - o.c0, c1 - o.c1}; }
    Fp2 operator-() const { return {-c0, -c1}; }

    /** Karatsuba multiplication (3 base-field muls). */
    Fp2
    operator*(const Fp2& o) const
    {
        Fq t0 = c0 * o.c0;
        Fq t1 = c1 * o.c1;
        Fq mixed = (c0 + c1) * (o.c0 + o.c1);
        return {t0 - t1, mixed - t0 - t1};
    }

    Fp2& operator+=(const Fp2& o) { return *this = *this + o; }
    Fp2& operator-=(const Fp2& o) { return *this = *this - o; }
    Fp2& operator*=(const Fp2& o) { return *this = *this * o; }

    /** Scale by a base-field element. */
    Fp2 mulByFq(const Fq& s) const { return {c0 * s, c1 * s}; }

    /** Squaring via (c0+c1)(c0-c1) and cross term. */
    Fp2
    squared() const
    {
        Fq a = (c0 + c1) * (c0 - c1);
        Fq b = c0 * c1;
        return {a, b + b};
    }

    Fp2 doubled() const { return *this + *this; }

    /**
     * Batched multiply: out[i] = a[i] * b[i] for i < n. Runs
     * operator*'s Karatsuba as three Fq::mulBatch passes over the
     * gathered c0*c0', c1*c1' and (c0+c1)(c0'+c1'), so Fq2 products
     * reach the dispatched base-field kernel (IFMA where available).
     * The adds are operator*'s, so results and sim counts equal n
     * calls of it. In-place use (out == a and/or out == b) is allowed.
     *
     * @param impl the base-field tier (see Fp::mulBatch)
     */
    static void
    mulBatch(Fp2* out, const Fp2* a, const Fp2* b, std::size_t n,
             MulImpl impl = mulImpl())
    {
        Fq x0[kBlock], x1[kBlock], y0[kBlock], y1[kBlock], xs[kBlock],
            ys[kBlock];
        for (std::size_t i = 0; i < n; i += kBlock) {
            const std::size_t k = std::min(kBlock, n - i);
            for (std::size_t j = 0; j < k; ++j) {
                x0[j] = a[i + j].c0;
                x1[j] = a[i + j].c1;
                y0[j] = b[i + j].c0;
                y1[j] = b[i + j].c1;
                xs[j] = x0[j] + x1[j];
                ys[j] = y0[j] + y1[j];
            }
            Fq::mulBatch(x0, x0, y0, k, impl); // t0
            Fq::mulBatch(x1, x1, y1, k, impl); // t1
            Fq::mulBatch(xs, xs, ys, k, impl); // mixed
            for (std::size_t j = 0; j < k; ++j)
                out[i + j] = {x0[j] - x1[j], xs[j] - x0[j] - x1[j]};
        }
    }

    /**
     * Batched squaring: out[i] = a[i].squared() for i < n, as two
     * Fq::mulBatch passes over (c0+c1)(c0-c1) and c0*c1: two base-field
     * products per element where mulBatch(out, a, a, n) takes three.
     * Results and sim counts equal n calls of squared(); out may
     * alias a.
     */
    static void
    squareBatch(Fp2* out, const Fp2* a, std::size_t n,
                MulImpl impl = mulImpl())
    {
        Fq x0[kBlock], x1[kBlock], s[kBlock], d[kBlock];
        for (std::size_t i = 0; i < n; i += kBlock) {
            const std::size_t k = std::min(kBlock, n - i);
            for (std::size_t j = 0; j < k; ++j) {
                x0[j] = a[i + j].c0;
                x1[j] = a[i + j].c1;
                s[j] = x0[j] + x1[j];
                d[j] = x0[j] - x1[j];
            }
            Fq::mulBatch(s, s, d, k, impl);    // c0^2 - c1^2
            Fq::mulBatch(x0, x0, x1, k, impl); // c0*c1
            for (std::size_t j = 0; j < k; ++j)
                out[i + j] = {s[j], x0[j] + x0[j]};
        }
    }

    /** Conjugate c0 - c1*u; equals the p-power Frobenius here. */
    Fp2 conjugate() const { return {c0, -c1}; }

    /** Field norm c0^2 + c1^2 (an Fq element). */
    Fq norm() const { return c0 * c0 + c1 * c1; }

    /**
     * Multiplicative inverse: conj / norm.
     *
     * @pre !isZero()
     */
    Fp2
    inverse() const
    {
        Fq inv = norm().inverse();
        return {c0 * inv, -(c1 * inv)};
    }

    std::string
    toHex() const
    {
        return c0.toHex() + " + " + c1.toHex() + "*u";
    }

    /**
     * Square root via the complex method (valid since u^2 = -1 and
     * p = 3 mod 4): for a = x + y u with y != 0, alpha = sqrt(norm),
     * then a = (c + y/(2c) u)^2 with c = sqrt((x +- alpha)/2).
     *
     * @param out one of the two roots when it exists
     * @return false if *this is a non-residue in Fp2
     */
    bool
    sqrt(Fp2& out) const
    {
        if (isZero()) {
            out = zero();
            return true;
        }
        if (c1.isZero()) {
            Fq r;
            if (c0.sqrt(r)) {
                out = {r, Fq::zero()};
                return true;
            }
            // x is a non-residue: sqrt(x) = sqrt(-x) * u.
            if ((-c0).sqrt(r)) {
                out = {Fq::zero(), r};
                return true;
            }
            return false;
        }
        Fq alpha;
        if (!norm().sqrt(alpha))
            return false;
        const Fq half = Fq::fromU64(2).inverse();
        for (int sign = 0; sign < 2; ++sign) {
            Fq delta = (sign ? c0 - alpha : c0 + alpha) * half;
            Fq c;
            if (!delta.sqrt(c) || c.isZero())
                continue;
            Fp2 candidate{c, c1 * (c + c).inverse()};
            if (candidate.squared() == *this) {
                out = candidate;
                return true;
            }
        }
        return false;
    }

  private:
    /// Elements per gather block of mulBatch/squareBatch (a multiple
    /// of the IFMA kernel's eight lanes).
    static constexpr std::size_t kBlock = 64;
};

} // namespace zkp::ff

#endif // ZKP_FF_FP2_H
