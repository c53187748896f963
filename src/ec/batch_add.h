/**
 * @file
 * Batch-affine bucket accumulation for Pippenger MSM.
 *
 * The hot operation of the bucket method is "bucket += point". Done in
 * Jacobian coordinates (addMixed) that is ~11 field muls plus ~5
 * squarings per add. Keeping the buckets AFFINE makes each add the
 * textbook chord/tangent formula — lambda = (y2-y1)/(x2-x1),
 * x3 = lambda^2 - x1 - x2, y3 = lambda*(x1-x3) - y1 — whose one
 * inversion amortizes away under Montgomery's batch-inversion trick:
 * ~3 muls for the shared inversion plus 3 muls of formula per add,
 * all of them in contiguous arrays that route through the dispatched
 * ff::mulBatch kernels (interleaved / AVX-512 IFMA). This is the
 * "batch-affine" structure ZKProphet and SZKP identify as the bucket
 * accumulator of choice.
 *
 * Batching changes the schedule, not the math: adds against one bucket
 * must still apply one at a time. The accumulator therefore admits at
 * most one pending add per bucket per flush (a busy flag); conflicting
 * adds wait in a carry queue and re-schedule after the flush.
 *
 * Random digit streams do not collide rarely: how often they collide
 * depends on how full the batch is relative to the bucket array. A
 * batch as large as the bucket array can never fill, and one half its
 * size fills only after ~0.4 collisions per slot; MSM windows of
 * c <= 12 bits have at most 2048 buckets. If the carried adds could
 * pile up, every flush would rescan all of them: O(n^2) per window.
 * Two rules keep the work linear:
 *   - the batch is sized to a quarter of the bucket count
 *     (batchAffineCap), so a uniformly random stream fills it with
 *     ~cap/8 collisions;
 *   - add() flushes when the batch OR the carry queue reaches the cap,
 *     so the carry queue never holds more than one batch and each
 *     flush's rescan is O(cap).
 * Streams that reach few buckets (an MSM's top window; adversarially,
 * every point into one bucket) degrade to as few adds per flush as
 * they reach buckets, at O(cap) rescan each, but remain correct — the
 * property tests pin the one-bucket case.
 *
 * Special cases are resolved at classification time, before the shared
 * inversion, so the denominator array is always invertible:
 *   - empty bucket: direct store, no field ops at all;
 *   - equal x, equal y (doubling): lambda = 3x^2 / 2y;
 *   - equal x, opposite y (or y = 0): bucket becomes infinity.
 */

#ifndef ZKP_EC_BATCH_ADD_H
#define ZKP_EC_BATCH_ADD_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/uint.h"
#include "ec/curve.h"
#include "ff/fp.h"
#include "obs/memprof.h"
#include "obs/metrics.h"

namespace zkp::ec {

/** Default upper bound on a flush batch. */
constexpr std::size_t kBatchAffineMaxCap = 1024;

/**
 * Flush-batch size for an array of @p buckets buckets: a quarter of
 * the bucket count, so a random digit stream fills a batch with few
 * collisions, clamped to [16, @p max_cap]. A @p max_cap below 16 wins,
 * floored at 4. Each flush pays one field inversion, which the window
 * cost model (msmWindowBits) charges per batchAffineCap adds.
 */
constexpr std::size_t
batchAffineCap(std::size_t buckets,
               std::size_t max_cap = kBatchAffineMaxCap)
{
    const std::size_t quarter = buckets / 4 < 16 ? 16 : buckets / 4;
    const std::size_t cap = quarter < max_cap ? quarter : max_cap;
    return cap < 4 ? 4 : cap;
}

template <typename Field>
class BatchAffineAdder
{
  public:
    using Affine = AffinePoint<Field>;

    /** Flush and reschedule totals since construction. */
    struct Stats
    {
        std::uint64_t flushes = 0;
        std::uint64_t carry_rescheduled = 0;
    };

    /** @p max_cap bounds the per-window batch size batchAffineCap
     *  picks in reset(). */
    explicit BatchAffineAdder(std::size_t buckets,
                              std::size_t max_cap = kBatchAffineMaxCap)
        : max_cap_(max_cap)
    {
        reset(buckets);
        batch_.reserve(cap_ + 16);
        den_.reserve(cap_ + 16);
        num_.reserve(cap_ + 16);
        app_idx_.reserve(cap_ + 16);
    }

    /** Clear all buckets to infinity (reusable across windows) and
     *  size the flush batch to the bucket count. */
    void
    reset(std::size_t buckets)
    {
        cap_ = batchAffineCap(buckets, max_cap_);
        buckets_.assign(buckets, Affine());
        busy_.assign(buckets, 0);
        batch_.clear();
        carry_.clear();
        tracked_.set("msm.batch_affine",
                     buckets * (sizeof(Affine) + 1) +
                         cap_ * (sizeof(Pending) + 2 * sizeof(Field)));
    }

    /**
     * True when the bucket already holds a point or has one pending —
     * the occupancy signal fed to the branch-predictor model.
     */
    bool
    occupied(std::size_t bucket) const
    {
        return busy_[bucket] != 0 || !buckets_[bucket].infinity;
    }

    /** Schedule buckets[bucket] += p (p == infinity is a no-op). */
    void
    add(std::size_t bucket, const Affine& p)
    {
        if (p.infinity)
            return;
        schedule((std::uint32_t)bucket, p);
        while (batch_.size() >= cap_ || carry_.size() >= cap_)
            flushOnce();
    }

    /** Apply every scheduled add; buckets() is coherent afterwards. */
    void
    flush()
    {
        while (!batch_.empty() || !carry_.empty())
            flushOnce();
    }

    /** The bucket array (valid after flush()). */
    const std::vector<Affine>& buckets() const { return buckets_; }

    /** Flush batch size chosen by the last reset(). */
    std::size_t batchCap() const { return cap_; }

    /** Adds waiting for a busy bucket; below batchCap() after add(). */
    std::size_t carrySize() const { return carry_.size(); }

    const Stats& stats() const { return stats_; }

    /**
     * Hint that @p bucket is about to be read-modified by add(). The
     * digit stream visits buckets in data-dependent (effectively
     * random) order, so the hardware stride prefetcher never covers
     * the bucket array; the scheduling loop issues this a few digits
     * ahead instead (see msmWindowSum and docs/PERFORMANCE.md,
     * "MSM bucket prefetch"). Low temporal locality (hint 1): a
     * bucket is typically touched once per flush window.
     */
    void
    prefetch(std::size_t bucket) const
    {
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(&buckets_[bucket], 1, 1);
        __builtin_prefetch(&busy_[bucket], 1, 1);
#endif
    }

  private:
    struct Pending
    {
        std::uint32_t bucket;
        Affine pt;
    };

    void
    schedule(std::uint32_t bucket, const Affine& p)
    {
        if (busy_[bucket]) {
            carry_.push_back({bucket, p});
            return;
        }
        Affine& b = buckets_[bucket];
        if (b.infinity) {
            // No pending add can exist for a non-busy bucket, so the
            // store is unordered with everything in flight.
            b = p;
            return;
        }
        busy_[bucket] = 1;
        batch_.push_back({bucket, p});
    }

    /** Apply the batch, then move carried adds back into the (now
     *  conflict-free) batch. */
    void
    flushOnce()
    {
        static obs::Counter& flushes = obs::counter("msm.batch_flushes");
        static obs::Counter& rescheduled =
            obs::counter("msm.carry_rescheduled");
        applyBatch();
        carried_.clear();
        carried_.swap(carry_);
        for (const Pending& e : carried_)
            schedule(e.bucket, e.pt);
        ++stats_.flushes;
        stats_.carry_rescheduled += carried_.size();
        flushes.add();
        rescheduled.add(carried_.size());
    }

    void
    applyBatch()
    {
        if (batch_.empty())
            return;

        den_.clear();
        num_.clear();
        app_idx_.clear();
        for (std::uint32_t i = 0; i < (std::uint32_t)batch_.size();
             ++i) {
            const Pending& e = batch_[i];
            busy_[e.bucket] = 0;
            Affine& b = buckets_[e.bucket]; // never infinity here
            if (b.x != e.pt.x) {
                den_.push_back(e.pt.x - b.x);
                num_.push_back(e.pt.y - b.y);
                app_idx_.push_back(i);
            } else if (b.y == e.pt.y && !b.y.isZero()) {
                // Tangent: lambda = 3x^2 / 2y.
                const Field xx = b.x.squared();
                den_.push_back(b.y.doubled());
                num_.push_back(xx.doubled() + xx);
                app_idx_.push_back(i);
            } else {
                b = Affine(); // P + (-P), or doubling a y = 0 point
            }
        }

        const std::size_t m = app_idx_.size();
        if (m == 0) {
            batch_.clear();
            return;
        }
        ff::batchInverse(den_.data(), m);

        // lambda = num / den; reuse den for lambda, then num for
        // lambda^2 (chord and tangent share the rest of the formula).
        ff::mulBatch(den_.data(), num_.data(), den_.data(), m);
        ff::mulBatch(num_.data(), den_.data(), den_.data(), m);
        t_.resize(m);
        for (std::size_t i = 0; i < m; ++i) {
            const Pending& e = batch_[app_idx_[i]];
            Affine& b = buckets_[e.bucket];
            const Field x3 = num_[i] - b.x - e.pt.x;
            t_[i] = b.x - x3;
            b.x = x3;
        }
        ff::mulBatch(t_.data(), den_.data(), t_.data(), m);
        for (std::size_t i = 0; i < m; ++i) {
            Affine& b = buckets_[batch_[app_idx_[i]].bucket];
            b.y = t_[i] - b.y;
        }
        batch_.clear();
    }

    std::size_t max_cap_;
    std::size_t cap_ = 0;
    Stats stats_;
    std::vector<Affine> buckets_;
    std::vector<std::uint8_t> busy_;
    std::vector<Pending> batch_, carry_, carried_;
    std::vector<std::uint32_t> app_idx_;
    std::vector<Field> den_, num_, t_;
    /// Scratch footprint account ("msm.batch_affine").
    obs::memprof::TrackedBytes tracked_;
};

} // namespace zkp::ec

#endif // ZKP_EC_BATCH_ADD_H
