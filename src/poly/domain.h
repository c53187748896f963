/**
 * @file
 * Radix-2 evaluation domains and (inverse/coset) NTTs over a scalar
 * field.
 *
 * Both scalar fields have two-adicity >= 28, so every circuit size in
 * the paper's sweep (2^10 .. 2^18 constraints) has a power-of-two
 * multiplicative subgroup to interpolate over. The 2^s-th root of
 * unity is derived at startup by finding a quadratic non-residue c
 * (Euler's criterion) and taking c^t for r - 1 = 2^s * t.
 *
 * The butterfly loops are instrumented: each butterfly reports its
 * loop-overhead signature and its element accesses, which makes the
 * proving stage's strided access pattern visible to the cache and
 * bandwidth models.
 */

#ifndef ZKP_POLY_DOMAIN_H
#define ZKP_POLY_DOMAIN_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/parallel.h"
#include "ff/fp.h"
#include "obs/trace.h"
#include "sim/counters.h"
#include "sim/memtrace.h"

namespace zkp::poly {

/**
 * Minimum transform size that dispatches butterfly stages to the
 * thread pool. Below this the fork-join cost of log2(n) parallel
 * regions exceeds the stage work itself — measured at n = 16384 the
 * 8-thread forward NTT ran SLOWER than single-threaded — so smaller
 * transforms stay serial.
 */
inline constexpr std::size_t kNttParallelMin = std::size_t(1) << 15;

/** Two-adicity data shared by all domains of one field. */
template <typename Fr>
struct TwoAdicity
{
    /// r - 1 = 2^s * t with t odd.
    std::size_t s = 0;
    /// Generator of the order-2^s subgroup.
    Fr rootOfUnity;
    /// A quadratic non-residue, used as the coset shift.
    Fr cosetShift;

    static const TwoAdicity&
    get()
    {
        static const TwoAdicity instance = compute();
        return instance;
    }

  private:
    static TwoAdicity
    compute()
    {
        TwoAdicity out;
        auto t = Fr::kModulus;
        t.subInPlace(typename Fr::Repr(1));
        while (!t.isOdd()) {
            t.shr1InPlace();
            ++out.s;
        }
        // Smallest quadratic non-residue; c^t then has order 2^s.
        Fr c = Fr::fromU64(2);
        while (c.legendre() != -1)
            c += Fr::one();
        out.cosetShift = c;
        out.rootOfUnity = c.pow(t);
        return out;
    }
};

/**
 * A multiplicative subgroup of size 2^k with forward/inverse/coset
 * NTT transforms.
 */
template <typename Fr>
class Domain
{
  public:
    /** Build the domain of size @p n (must be a power of two). */
    explicit Domain(std::size_t n) : size_(n)
    {
        assert(n > 0 && (n & (n - 1)) == 0 && "domain size not 2^k");
        const auto& ta = TwoAdicity<Fr>::get();
        std::size_t log2n = 0;
        while ((std::size_t(1) << log2n) < n)
            ++log2n;
        assert(log2n <= ta.s && "domain exceeds field two-adicity");

        omega_ = ta.rootOfUnity;
        for (std::size_t i = log2n; i < ta.s; ++i)
            omega_ = omega_.squared();
        omegaInv_ = omega_.inverse();
        sizeInv_ = Fr::fromU64(n).inverse();
        shift_ = ta.cosetShift;
        shiftInv_ = shift_.inverse();
        log2n_ = log2n;
    }

    std::size_t size() const { return size_; }
    std::size_t log2Size() const { return log2n_; }

    /** The domain generator omega (primitive n-th root of unity). */
    const Fr& omega() const { return omega_; }

    /** The coset shift g (a non-residue, so the coset is disjoint). */
    const Fr& cosetShift() const { return shift_; }

    /** 1 / n, for Lagrange evaluations. */
    const Fr& sizeInv() const { return sizeInv_; }

    /** Element omega^i. */
    Fr
    element(std::size_t i) const
    {
        return omega_.pow((u64)i);
    }

    /** Evaluate the vanishing polynomial Z(x) = x^n - 1. */
    Fr
    vanishingAt(const Fr& x) const
    {
        return x.pow((u64)size_) - Fr::one();
    }

    /** Z evaluated anywhere on the coset (constant: g^n - 1). */
    Fr
    vanishingOnCoset() const
    {
        return shift_.pow((u64)size_) - Fr::one();
    }

    /** In-place forward NTT: coefficients -> evaluations. */
    void
    ntt(std::vector<Fr>& a, std::size_t threads = 1) const
    {
        transform(a, kForward, threads);
    }

    /** In-place inverse NTT: evaluations -> coefficients. */
    void
    intt(std::vector<Fr>& a, std::size_t threads = 1) const
    {
        ZKP_TRACE_SCOPE("intt", "n", (obs::u64)size_);
        transform(a, kInverse, threads);
        parallelFor(a.size(), nttThreads(a.size(), threads),
                    [&](std::size_t, std::size_t b, std::size_t e) {
                        ff::mulBatchConst(a.data() + b, a.data() + b,
                                          sizeInv_, e - b);
                    });
    }

    /** Coefficients -> evaluations on the coset g * H. */
    void
    cosetNtt(std::vector<Fr>& a, std::size_t threads = 1) const
    {
        ZKP_TRACE_SCOPE("coset_ntt", "n", (obs::u64)size_);
        scaleByPowers(a, shift_, threads);
        transform(a, kForward, threads);
    }

    /** Evaluations on the coset -> coefficients. */
    void
    cosetIntt(std::vector<Fr>& a, std::size_t threads = 1) const
    {
        ZKP_TRACE_SCOPE("coset_intt", "n", (obs::u64)size_);
        intt(a, threads);
        scaleByPowers(a, shiftInv_, threads);
    }

    /**
     * All Lagrange basis polynomials evaluated at @p tau:
     * L_j(tau) = (tau^n - 1) * omega^j / (n * (tau - omega^j)).
     * One batch inversion; used by the trusted setup.
     */
    std::vector<Fr>
    lagrangeCoeffsAt(const Fr& tau) const
    {
        std::vector<Fr> denom(size_);
        Fr w = Fr::one();
        for (std::size_t j = 0; j < size_; ++j) {
            denom[j] = tau - w;
            // tau inside the domain would need the trivial answer; the
            // setup draws tau uniformly so this has probability n/r.
            assert(!denom[j].isZero() && "tau collides with the domain");
            w *= omega_;
        }
        ff::batchInverse(denom.data(), denom.size());

        const Fr ztau_over_n = vanishingAt(tau) * sizeInv_;
        std::vector<Fr> out(size_);
        w = Fr::one();
        for (std::size_t j = 0; j < size_; ++j) {
            out[j] = ztau_over_n * w * denom[j];
            w *= omega_;
        }
        return out;
    }

  private:
    enum Direction
    {
        kForward,
        kInverse
    };

    /**
     * Per-domain twiddle cache: omega^k (and omega^-k) for k < n/2,
     * built once on first transform and reused by every subsequent
     * transform on this domain — a prove runs 7 transforms, and the
     * old per-level rebuild put ~n serial multiplies per transform
     * inside the timed region. Level len reads its twiddles at stride
     * n/len: tw[k * n/len] == (omega^(n/len))^k.
     *
     * Heap-allocated and shared so Domain stays copyable (copies
     * legitimately share: same omega, same tables).
     */
    struct TwiddleCache
    {
        std::once_flag once;
        std::vector<Fr> fwd;
        std::vector<Fr> inv;
        /// Stage-major copies: stagedFwd[h + k] = fwd[k * (n/2) / h]
        /// for stage half-length h and k < h, so every butterfly
        /// stage reads its twiddles CONTIGUOUSLY — the layout that
        /// lets the stage multiply go through ff::mulBatch.
        std::vector<Fr> stagedFwd;
        std::vector<Fr> stagedInv;
        /// Footprint account ("ntt.twiddles"); withdrawn when the
        /// last Domain sharing this cache dies.
        obs::memprof::TrackedBytes tracked;
    };

    const TwiddleCache&
    twiddles(std::size_t threads) const
    {
        std::call_once(cache_->once, [&] {
            const std::size_t half = size_ / 2;
            cache_->fwd.resize(half);
            cache_->inv.resize(half);
            cache_->stagedFwd.resize(size_);
            cache_->stagedInv.resize(size_);
            sim::countAlloc(6 * half * sizeof(Fr));
            cache_->tracked.set("ntt.twiddles",
                                6 * half * sizeof(Fr));
            auto fill = [&](std::vector<Fr>& out, const Fr& base) {
                parallelFor(out.size(), threads,
                            [&](std::size_t, std::size_t b,
                                std::size_t e) {
                                Fr w = base.pow((u64)b);
                                for (std::size_t i = b; i < e; ++i) {
                                    out[i] = w;
                                    w *= base;
                                }
                            });
            };
            fill(cache_->fwd, omega_);
            fill(cache_->inv, omegaInv_);
            auto stage = [&](std::vector<Fr>& out,
                             const std::vector<Fr>& flat) {
                for (std::size_t h = 1; h <= half; h <<= 1)
                    for (std::size_t k = 0; k < h; ++k)
                        out[h + k] = flat[k * (half / h)];
            };
            stage(cache_->stagedFwd, cache_->fwd);
            stage(cache_->stagedInv, cache_->inv);
        });
        return *cache_;
    }

    /** Serialize transforms too small to amortize pool dispatch, and
     *  never run more butterfly workers than physical cores. */
    static std::size_t
    nttThreads(std::size_t n, std::size_t threads)
    {
        if (threads > 1 && n < kNttParallelMin)
            return 1;
        return std::min(threads,
                        std::max<std::size_t>(
                            1, std::thread::hardware_concurrency()));
    }

    /** Reverse the low @p bits of @p x. */
    static std::size_t
    reverseBits(std::size_t x, std::size_t bits)
    {
        std::size_t r = 0;
        for (std::size_t i = 0; i < bits; ++i) {
            r = (r << 1) | (x & 1);
            x >>= 1;
        }
        return r;
    }

    /** Iterative radix-2 Cooley-Tukey with bit-reversal permutation. */
    void
    transform(std::vector<Fr>& a, Direction dir,
              std::size_t threads) const
    {
        assert(a.size() == size_);
        const std::size_t n = size_;
        if (n == 1)
            return;

        ZKP_TRACE_SCOPE("ntt", "n", (obs::u64)n);
        sim::count(sim::PrimOp::NttTransform);

        const std::size_t workers = nttThreads(n, threads);
        const TwiddleCache& tc = twiddles(workers);
        const std::vector<Fr>& tw =
            dir == kForward ? tc.fwd : tc.inv;
        const std::vector<Fr>& staged =
            dir == kForward ? tc.stagedFwd : tc.stagedInv;

        // Bit-reversal permutation: each index pairs with its
        // reversal exactly once (i < j), so pairs are disjoint and the
        // permutation parallelizes without synchronization.
        const std::size_t log2n = log2n_;
        parallelFor(n, workers,
                    [&](std::size_t, std::size_t b, std::size_t e) {
                        for (std::size_t i = b; i < e; ++i) {
                            const std::size_t j = reverseBits(i, log2n);
                            if (i < j)
                                std::swap(a[i], a[j]);
                        }
                    });

        // Above this stage half-length the twiddle multiplies of a
        // block go through ff::mulBatch (contiguous hi-range times
        // the stage-major twiddle slice) instead of one scalar
        // Montgomery multiply per butterfly.
        constexpr std::size_t kBatchHalfMin = 8;
        std::vector<std::vector<Fr>> scratch(workers);

        for (std::size_t len = 2; len <= n; len <<= 1) {
            const std::size_t half = len >> 1;
            const std::size_t stride = n / len;
            const std::size_t blocks = n / len;
            parallelFor(blocks, workers,
                        [&](std::size_t slot, std::size_t bb,
                            std::size_t be) {
                if (half >= kBatchHalfMin) {
                    std::vector<Fr>& v = scratch[slot];
                    if (v.size() < half)
                        v.resize(half);
                    for (std::size_t b = bb; b < be; ++b) {
                        const std::size_t base = b * len;
                        sim::count(sim::PrimOp::NttButterfly, Fr::N,
                                   half);
                        ff::mulBatch(v.data(), a.data() + base + half,
                                     staged.data() + half, half);
                        for (std::size_t k = 0; k < half; ++k) {
                            Fr& lo = a[base + k];
                            Fr& hi = a[base + k + half];
                            sim::traceLoad(&lo, sizeof(Fr));
                            sim::traceLoad(&hi, sizeof(Fr));
                            const Fr u = lo;
                            lo = u + v[k];
                            hi = u - v[k];
                            sim::traceStore(&lo, sizeof(Fr));
                            sim::traceStore(&hi, sizeof(Fr));
                        }
                    }
                    return;
                }
                for (std::size_t b = bb; b < be; ++b) {
                    const std::size_t base = b * len;
                    for (std::size_t k = 0; k < half; ++k) {
                        sim::count(sim::PrimOp::NttButterfly, Fr::N);
                        Fr& lo = a[base + k];
                        Fr& hi = a[base + k + half];
                        sim::traceLoad(&lo, sizeof(Fr));
                        sim::traceLoad(&hi, sizeof(Fr));
                        Fr u = lo;
                        // The k = 0 twiddle is one: skip the multiply.
                        Fr v = k == 0 ? hi : hi * tw[k * stride];
                        lo = u + v;
                        hi = u - v;
                        sim::traceStore(&lo, sizeof(Fr));
                        sim::traceStore(&hi, sizeof(Fr));
                    }
                }
            });
        }
    }

    /** a[i] *= s^i. The power table is built by prefix doubling —
     *  pw[m..2m) = pw[0..m) * s^m — so both the table build and the
     *  elementwise scale run as dispatched batch multiplies instead
     *  of a serial running-product chain. */
    void
    scaleByPowers(std::vector<Fr>& a, const Fr& s,
                  std::size_t threads) const
    {
        const std::size_t n = a.size();
        if (n < 64) {
            Fr cur = Fr::one();
            for (std::size_t i = 0; i < n; ++i) {
                a[i] *= cur;
                cur *= s;
            }
            return;
        }
        std::vector<Fr> pw(n);
        sim::countAlloc(n * sizeof(Fr));
        pw[0] = Fr::one();
        for (std::size_t m = 1; m < n; m <<= 1) {
            const Fr sm = pw[m - 1] * s; // s^m
            ff::mulBatchConst(pw.data() + m, pw.data(), sm,
                              std::min(m, n - m));
        }
        parallelFor(n, nttThreads(n, threads),
                    [&](std::size_t, std::size_t b, std::size_t e) {
                        ff::mulBatch(a.data() + b, a.data() + b,
                                     pw.data() + b, e - b);
                    });
    }

    std::size_t size_;
    std::size_t log2n_ = 0;
    Fr omega_, omegaInv_, sizeInv_, shift_, shiftInv_;
    mutable std::shared_ptr<TwiddleCache> cache_ =
        std::make_shared<TwiddleCache>();
};

} // namespace zkp::poly

#endif // ZKP_POLY_DOMAIN_H
