/**
 * @file
 * Multi-scalar multiplication (Pippenger's bucket method with signed
 * windows, batch-affine buckets, and GLV halving).
 *
 * MSM is the dominant kernel of the setup and proving stages; the
 * paper's related work (PipeZK, DistMSM, ZKProphet, SZKP) accelerates
 * exactly this computation, and identifies digit extraction and bucket
 * accumulation as the levers that matter. Those levers are applied
 * here:
 *
 *  - window digits are read straight out of the scalar's 64-bit limbs
 *    (one shift/mask touching at most two limbs) instead of being
 *    assembled bit by bit;
 *  - windows are SIGNED: digits lie in [-2^(c-1), 2^(c-1)), so a
 *    window of width c needs 2^(c-1) buckets instead of 2^c - 1 —
 *    negative digits subtract the point, and point negation is one
 *    field negation. Digits come from the BIAS trick: adding
 *    2^(c-1) at every window position once per scalar makes each
 *    digit an independent O(1) limb read minus 2^(c-1), with no
 *    carry chain to walk (s = sum_w (y_w - 2^(c-1)) * 2^(wc) where
 *    y_w are the plain unsigned windows of s + bias);
 *  - bucket accumulation is BATCH-AFFINE (BatchAffineAdder): buckets
 *    stay affine and adds resolve through a shared Montgomery batch
 *    inversion, cutting the per-add cost from ~16 Jacobian muls to
 *    ~6 and routing the multiplies through the dispatched SIMD
 *    ff::mulBatch kernels. Each flush batch is sized to the window's
 *    bucket count, and the window model charges its inversion.
 *    Adds that collide on a bucket pair up within the batch, so the
 *    cost does not depend on how the digits are distributed;
 *  - scalars are HALVED by the GLV endomorphism where the curve
 *    admits one (msmCurve / msmGlv): k = k1 + lambda*k2 with
 *    |k1|,|k2| ~ sqrt(r) turns n full-width scalars into 2n
 *    half-width ones, halving the window count. The max_bits
 *    parameter threads the reduced scalar width through the window
 *    machinery.
 *
 * Two parallel decompositions are provided: input chunking (each
 * worker runs a full signed Pippenger over a slice of the points) and
 * per-window parallelization (each worker owns whole windows across
 * all points; the per-window sums combine with c doublings per window
 * at the end). msm() picks between them by size.
 *
 * The implementation is instrumented: scalar and base reads and bucket
 * updates report their addresses to the memory-trace sinks, window
 * extraction reports its instruction signature, and the
 * bucket-occupancy branch feeds the branch-predictor model.
 *
 * A naive double-and-add variant is kept alongside as the reference
 * that the MSM tests compare against.
 */

#ifndef ZKP_EC_MSM_H
#define ZKP_EC_MSM_H

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "ec/batch_add.h"
#include "ec/curve.h"
#include "ec/glv.h"
#include "obs/trace.h"
#include "sim/counters.h"
#include "sim/memtrace.h"

namespace zkp::ec {

/** Branch-site ids used by the EC layer for predictor modelling. */
enum MsmBranchSite : sim::u32
{
    kBranchMsmBucketNonZero = 1,
    kBranchMsmBucketOccupied = 2,
};

/**
 * Fixed cost of one batch-affine flush, in the window model's units (a
 * model mul is a sixth of a batch-affine add: ~30 ns for BN254 G1 on
 * an AVX-512 IFMA Xeon). It is the one field inversion per flush
 * (binary extended Euclid, 10-14 us there) plus batchInverse's chain
 * setup and merge: 330-470 model muls, rounded to 400.
 */
constexpr double kMsmFlushMuls = 400.0;

/**
 * Pippenger window size for @p n points of @p max_bits-bit scalars,
 * chosen by cost model rather than the classic log2(n) - 3 rule of
 * thumb. With batch-affine buckets an accumulation add costs ~6 field
 * muls, the running-sum fold pays ~27 muls (one Jacobian mixed add
 * plus one full add) per bucket, and every flush pays one inversion
 * (kMsmFlushMuls). A window of 2^(c-1) buckets flushes every
 * batchAffineCap(2^(c-1)) adds, however few buckets its digits reach
 * (colliding adds pair up within a batch; see BatchAffineAdder). For
 * window width c:
 *
 *   cost(c) = windows(c) * (n * 6 + 2^(c-1) * 27
 *                           + n / batchAffineCap(2^(c-1)) * INV),
 *   windows(c) = max_bits / c + 1.
 *
 * Minimizing this directly adapts the window to the scalar width —
 * essential once GLV halves max_bits — and grows c monotonically
 * with n. The flush term keeps small MSMs off narrow windows, whose
 * small batches would spend more on inversions than on adds.
 */
inline unsigned
msmWindowBits(std::size_t n, std::size_t max_bits = 256)
{
    unsigned best_c = 1;
    double best_cost = 0;
    for (unsigned c = 1; c <= 16; ++c) {
        const std::size_t buckets = std::size_t(1) << (c - 1);
        const std::size_t windows = max_bits / c + 1;
        const double flushes_per_window =
            (double)n / (double)batchAffineCap(buckets);
        const double cost =
            (double)windows * ((double)n * 6.0 + (double)buckets * 27.0 +
                               flushes_per_window * kMsmFlushMuls);
        if (c == 1 || cost < best_cost) {
            best_cost = cost;
            best_c = c;
        }
    }
    return best_c;
}

/** Signed-window count for width @p c over @p max_bits-bit scalars:
 *  the windows of the biased scalar need one window of headroom past
 *  max_bits, so arbitrary (even non-reduced) max_bits-wide scalars
 *  are handled exactly. */
template <typename ScalarRepr>
constexpr unsigned
msmSignedWindows(unsigned c, std::size_t max_bits = ScalarRepr::kBits)
{
    return (unsigned)(max_bits / c + 1);
}

/** One-limb-wider integer holding a bias-shifted scalar. */
template <typename ScalarRepr>
using MsmBiased = BigInt<ScalarRepr::kLimbs + 1>;

/** The bias 2^(c-1) * (1 + 2^c + 2^2c + ...): adds 2^(c-1) to every
 *  window so signed digits become independent unsigned limb reads. */
template <typename ScalarRepr>
MsmBiased<ScalarRepr>
msmBias(unsigned c, unsigned windows)
{
    MsmBiased<ScalarRepr> bias;
    for (unsigned w = 0; w < windows; ++w) {
        const std::size_t pos = (std::size_t)w * c + c - 1;
        bias.limbs[pos / 64] |= u64(1) << (pos % 64);
    }
    return bias;
}

template <typename ScalarRepr>
MsmBiased<ScalarRepr>
msmBias(unsigned c)
{
    return msmBias<ScalarRepr>(c, msmSignedWindows<ScalarRepr>(c));
}

/** Stage @p scalars[0..n) into their bias-shifted form. */
template <typename ScalarRepr>
std::vector<MsmBiased<ScalarRepr>>
msmBiasScalars(const ScalarRepr* scalars, std::size_t n, unsigned c,
               unsigned windows = 0)
{
    if (windows == 0)
        windows = msmSignedWindows<ScalarRepr>(c);
    const auto bias = msmBias<ScalarRepr>(c, windows);
    std::vector<MsmBiased<ScalarRepr>> biased(n);
    for (std::size_t i = 0; i < n; ++i) {
        biased[i] = zeroExtend<ScalarRepr::kLimbs + 1>(scalars[i]);
        biased[i].addInPlace(bias);
    }
    return biased;
}

/**
 * Accumulate the signed-window contribution of window @p w over
 * points[0..n) into the batch-affine accumulator @p acc (bucket j
 * holds digit magnitude j + 1), then fold the buckets into the window
 * sum via the running-sum trick. The accumulator is reset here to
 * 2^(c-1) buckets, so one instance can be reused across windows.
 *
 * @p scalars is the original scalar array — it anchors the traced
 * access stream (element size and stride match the seed kernel);
 * @p biased is the staged bias-shifted copy the digits are read from.
 */
template <typename Point, typename Affine, typename ScalarRepr>
Point
msmWindowSum(const Affine* points, const ScalarRepr* scalars,
             const MsmBiased<ScalarRepr>* biased, std::size_t n,
             unsigned w, unsigned c,
             BatchAffineAdder<typename Affine::FieldT>& acc)
{
    const long half = (long)(1L << (c - 1));
    acc.reset(std::size_t(1) << (c - 1));

    // Bucket-line prefetch distance: the digit read for i + k is a
    // couple of limb ops, cheap enough to do twice, and k = 8 digits
    // of batch-affine scheduling (~6 field muls each) comfortably
    // covers an LLC-miss latency without thrashing L1. Measured
    // neutral-to-slightly-positive on the 2^13 single-thread MSM
    // (perfbench's ec.msm_g1_us_per_point.2e13.1t; docs/PERFORMANCE.md,
    // "MSM bucket prefetch").
    constexpr std::size_t kPrefetchAhead = 8;

    for (std::size_t i = 0; i < n; ++i) {
        sim::count(sim::PrimOp::MsmWindow);
        sim::traceLoad(&scalars[i], sizeof(ScalarRepr));

        if (i + kPrefetchAhead < n) {
            const long dp =
                (long)biased[i + kPrefetchAhead].bits(
                    (std::size_t)w * c, c) -
                half;
            if (dp != 0)
                acc.prefetch((std::size_t)(dp > 0 ? dp : -dp) - 1);
        }

        // Limb-level digit read: one shift/mask touching at most two
        // limbs, then recentering by the window bias.
        const long d =
            (long)biased[i].bits((std::size_t)w * c, c) - half;
        sim::branchEvent(kBranchMsmBucketNonZero, d != 0);
        if (d == 0)
            continue;

        sim::traceLoad(&points[i], sizeof(Affine));
        const std::size_t idx = (std::size_t)(d > 0 ? d : -d) - 1;
        sim::branchEvent(kBranchMsmBucketOccupied, acc.occupied(idx));
        acc.add(idx, d > 0 ? points[i] : points[i].negated());
        sim::traceStore(&acc.buckets()[idx], sizeof(Affine));
    }
    acc.flush();

    // Running-sum over the buckets: sum_j (j + 1) * bucket_j.
    const std::vector<Affine>& buckets = acc.buckets();
    Point running = Point::infinity();
    Point window_sum = Point::infinity();
    for (std::size_t j = buckets.size(); j-- > 0;) {
        sim::traceLoad(&buckets[j], sizeof(Affine));
        running = running.addMixed(buckets[j]);
        window_sum += running;
    }
    return window_sum;
}

/**
 * Serial signed-window Pippenger MSM over one chunk:
 * result = sum_i scalars[i] * points[i]. Scalars must be below
 * 2^max_bits (the GLV path passes a reduced width).
 *
 * @tparam Point Jacobian point type
 * @tparam ScalarRepr BigInt<M> canonical scalar representation
 */
template <typename Point, typename Affine, typename ScalarRepr>
Point
msmSerial(const Affine* points, const ScalarRepr* scalars, std::size_t n,
          std::size_t max_bits = ScalarRepr::kBits)
{
    if (n == 0)
        return Point::infinity();

    const unsigned c = msmWindowBits(n, max_bits);
    ZKP_TRACE_SCOPE("msm_chunk", "c", (obs::u64)c);
    const unsigned windows = msmSignedWindows<ScalarRepr>(c, max_bits);
    const auto biased = msmBiasScalars(scalars, n, c, windows);
    BatchAffineAdder<typename Affine::FieldT> acc(std::size_t(1)
                                                 << (c - 1));

    Point result = Point::infinity();
    for (unsigned w = windows; w-- > 0;) {
        // Shift the accumulated result left by one window.
        if (w + 1 != windows) {
            for (unsigned i = 0; i < c; ++i)
                result = result.doubled();
        }
        result += msmWindowSum<Point>(points, scalars, biased.data(), n,
                                      w, c, acc);
    }
    return result;
}

/**
 * Window-parallel MSM: worker slots own whole windows across ALL
 * points (no partial-sum merge per slot, no bucket contention), and
 * the per-window sums combine serially with c doublings per window.
 * Preferable for large n, where each window is a substantial, equal
 * unit of work.
 */
template <typename Point, typename Affine, typename ScalarRepr>
Point
msmWindowParallel(const Affine* points, const ScalarRepr* scalars,
                  std::size_t n, std::size_t threads,
                  std::size_t max_bits = ScalarRepr::kBits)
{
    if (n == 0)
        return Point::infinity();

    const unsigned c = msmWindowBits(n, max_bits);
    ZKP_TRACE_SCOPE("msm_windows", "c", (obs::u64)c);
    const unsigned windows = msmSignedWindows<ScalarRepr>(c, max_bits);
    std::vector<Point> window_sums(windows, Point::infinity());

    // Stage the biased scalars once; every window worker reads them.
    std::vector<MsmBiased<ScalarRepr>> biased(n);
    {
        const auto bias = msmBias<ScalarRepr>(c, windows);
        parallelFor(n, threads,
                    [&](std::size_t, std::size_t b, std::size_t e) {
                        for (std::size_t i = b; i < e; ++i) {
                            biased[i] =
                                zeroExtend<ScalarRepr::kLimbs + 1>(
                                    scalars[i]);
                            biased[i].addInPlace(bias);
                        }
                    });
    }

    parallelFor(windows, threads,
                [&](std::size_t, std::size_t wb, std::size_t we) {
                    BatchAffineAdder<typename Affine::FieldT> acc(
                        std::size_t(1) << (c - 1));
                    for (std::size_t w = wb; w < we; ++w)
                        window_sums[w] = msmWindowSum<Point>(
                            points, scalars, biased.data(), n,
                            (unsigned)w, c, acc);
                });

    Point result = Point::infinity();
    for (unsigned w = windows; w-- > 0;) {
        if (w + 1 != windows) {
            for (unsigned i = 0; i < c; ++i)
                result = result.doubled();
        }
        result += window_sums[w];
    }
    return result;
}

/** Below this point count, chunking the input beats window
 *  parallelism (the per-chunk Pippenger overhead is negligible and
 *  chunk slices stay cache-resident). */
constexpr std::size_t kMsmWindowParallelMin = 4096;

/** Minimum points per chunk worker. A chunk below this runs its own
 *  full Pippenger (bias staging, bucket array, fold) over too little
 *  input to amortize it, which is what made mid-size MSMs flat from
 *  1 to 8 threads: eight ~1k chunks cost about as much as one 8k
 *  pass. Capping workers at n / kMsmChunkMin keeps every chunk
 *  efficient and lets the remaining parallelism come from the
 *  window-parallel path. */
constexpr std::size_t kMsmChunkMin = 2048;

/**
 * Multi-threaded MSM. For large inputs the windows are distributed
 * across @p threads workers; otherwise the input is chunked (with at
 * least kMsmChunkMin points per worker) and the per-chunk partial
 * sums added.
 */
template <typename Point, typename Affine, typename ScalarRepr>
Point
msm(const Affine* points, const ScalarRepr* scalars, std::size_t n,
    std::size_t threads = 1, std::size_t max_bits = ScalarRepr::kBits)
{
    if (n == 0)
        return Point::infinity();
    ZKP_TRACE_SCOPE("msm", "n", (obs::u64)n);
    sim::count(sim::PrimOp::MsmCall);
    sim::count(sim::PrimOp::MsmPoint, 4, n);
    // Workers are capped by BOTH the chunk floor and the physical
    // core count: each window worker owns a bucket array plus batch
    // staging (~hundreds of KB), so oversubscribing cores makes the
    // interleaved working sets thrash the per-core cache — measured
    // as 8 threads running ~25% SLOWER than 1 on a single-core host.
    std::size_t workers = 1;
    if (threads > 1) {
        const std::size_t hw = std::max<std::size_t>(
            1, std::thread::hardware_concurrency());
        workers = std::min(
            {threads, hw,
             std::max<std::size_t>(1, n / kMsmChunkMin)});
    }

    if (workers > 1 && n >= kMsmWindowParallelMin)
        return msmWindowParallel<Point>(points, scalars, n, workers,
                                        max_bits);

    // Input chunking: one tile per worker slot; a slot may claim
    // several tiles (pool load balancing), so partials accumulate.
    // The single-worker path still routes through parallelFor so the
    // work/span instrumentation sees MSM as parallelizable work.
    const std::size_t tiles = workers;
    const std::size_t per = (n + tiles - 1) / tiles;
    std::vector<Point> partial(workers, Point::infinity());
    parallelFor(tiles, workers,
                [&](std::size_t slot, std::size_t tb, std::size_t te) {
                    for (std::size_t t = tb; t < te; ++t) {
                        const std::size_t b = t * per;
                        const std::size_t e = b + per < n ? b + per : n;
                        if (b < e)
                            partial[slot] += msmSerial<Point>(
                                points + b, scalars + b, e - b,
                                max_bits);
                    }
                });
    Point result = Point::infinity();
    for (const auto& p : partial)
        result += p;
    return result;
}

/** Below this size the GLV split's staging (decompose + endomorphism
 *  copy of the base array) costs more than the halved windows save. */
constexpr std::size_t kMsmGlvMin = 128;

/**
 * GLV-accelerated MSM: decompose every scalar as k = k1 + lambda*k2
 * and run one half-width MSM over the doubled point set
 * {P, phi(P)}, folding the k1/k2 signs into point negation. The
 * halved scalar width flows into the window machinery via max_bits,
 * cutting the window count (and with it the bucket-accumulation work)
 * roughly in half.
 *
 * @pre Glv<Group>::instance().usable()
 */
template <typename Group>
typename Group::Jacobian
msmGlv(const typename Group::Affine* points,
       const typename Group::Scalar::Repr* scalars, std::size_t n,
       std::size_t threads = 1)
{
    using Jac = typename Group::Jacobian;
    using Affine = typename Group::Affine;
    using G = Glv<Group>;
    const G& glv = G::instance();

    std::vector<Affine> pts(2 * n);
    std::vector<typename G::Half> sc(2 * n);
    {
        ZKP_TRACE_SCOPE("msm_glv_split", "n", (obs::u64)n);
        parallelFor(n, threads,
                    [&](std::size_t, std::size_t b, std::size_t e) {
                        typename G::HalfScalar k1, k2;
                        for (std::size_t i = b; i < e; ++i) {
                            glv.decompose(scalars[i], k1, k2);
                            const Affine& p = points[i];
                            sc[2 * i] = k1.mag;
                            pts[2 * i] = k1.neg ? p.negated() : p;
                            const Affine q = glv.endo(p);
                            sc[2 * i + 1] = k2.mag;
                            pts[2 * i + 1] = k2.neg ? q.negated() : q;
                        }
                    });
    }
    return msm<Jac>(pts.data(), sc.data(), 2 * n, threads,
                    glv.halfBits());
}

/**
 * Curve-aware MSM front end: routes through the GLV endomorphism
 * when the group supports it (G1 over a prime field, derivation
 * self-test passed) and the input is large enough to amortize the
 * split, and falls back to the generic signed-window MSM otherwise
 * (G2, tiny inputs, or a curve where the derivation failed).
 *
 * Terms that contribute nothing (point at infinity or zero scalar)
 * are dropped first when they are at least half the input. Groth16's
 * B queries are almost all infinity for many circuits. Left in, every
 * window still scans them, and the window model sizes the bucket
 * array for all n of them; the bucket fold costs the same however
 * few buckets are filled.
 */
template <typename Group>
typename Group::Jacobian
msmCurve(const typename Group::Affine* points,
         const typename Group::Scalar::Repr* scalars, std::size_t n,
         std::size_t threads = 1)
{
    const auto live = [&](std::size_t i) {
        return !points[i].infinity && !scalars[i].isZero();
    };
    std::size_t n_live = 0;
    for (std::size_t i = 0; i < n; ++i)
        n_live += live(i);
    if (n_live < n && 2 * n_live <= n) {
        std::vector<typename Group::Affine> pts;
        std::vector<typename Group::Scalar::Repr> sc;
        pts.reserve(n_live);
        sc.reserve(n_live);
        for (std::size_t i = 0; i < n; ++i) {
            if (live(i)) {
                pts.push_back(points[i]);
                sc.push_back(scalars[i]);
            }
        }
        return msmCurve<Group>(pts.data(), sc.data(), n_live, threads);
    }

    if constexpr (GlvCapable<Group>) {
        if (n >= kMsmGlvMin && Glv<Group>::instance().usable())
            return msmGlv<Group>(points, scalars, n, threads);
    }
    return msm<typename Group::Jacobian>(points, scalars, n, threads);
}

/** Naive double-and-add MSM; the reference for the MSM tests. */
template <typename Point, typename Affine, typename ScalarRepr>
Point
msmNaive(const Affine* points, const ScalarRepr* scalars, std::size_t n)
{
    Point acc = Point::infinity();
    for (std::size_t i = 0; i < n; ++i)
        acc += Point(points[i]).mulScalar(scalars[i]);
    return acc;
}

/** Convenience overload converting field scalars to canonical form. */
template <typename Group>
typename Group::Jacobian
msmField(const std::vector<typename Group::Affine>& points,
         const std::vector<typename Group::Scalar>& scalars,
         std::size_t threads = 1)
{
    using Repr = typename Group::Scalar::Repr;
    assert(points.size() == scalars.size());
    std::vector<Repr> repr(scalars.size());
    for (std::size_t i = 0; i < scalars.size(); ++i)
        repr[i] = scalars[i].toBigInt();
    return msmCurve<Group>(points.data(), repr.data(), points.size(),
                           threads);
}

} // namespace zkp::ec

#endif // ZKP_EC_MSM_H
