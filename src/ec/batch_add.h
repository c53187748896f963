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
 * ff::mulBatch kernel (AVX-512 IFMA where available). This is the
 * "batch-affine" structure ZKProphet and SZKP identify as the bucket
 * accumulator of choice.
 *
 * Batching changes the schedule, not the math: adds against one bucket
 * must still apply one at a time. The accumulator therefore admits at
 * most one pending bucket add per bucket per flush; the bucket is then
 * busy. A colliding add is resolved by pairwise tree reduction:
 *   - the first add that finds its bucket busy parks in the bucket's
 *     waiting slot (one u32 index per bucket into a waiting list);
 *   - the next one pairs with the parked point: the two become an
 *     independent point + point add in the same flush batch, sharing
 *     its batch inversion and mulBatch passes;
 *   - after the flush, each pair's sum (unless it is infinity) and
 *     each still-parked point are scheduled again.
 * k adds to one bucket thus finish in about k/cap + log2(cap) flushes,
 * not k: every batch slot does useful work whatever the digit stream.
 * The waiting list holds at most one point per busy bucket, so it can
 * never outgrow a batch, and a flush reschedules at most one batch of
 * points. Only the order of the additions changes, and affine
 * coordinates are canonical, so every bucket ends bit-identical to a
 * one-at-a-time accumulation.
 *
 * The batch is sized to a quarter of the bucket count
 * (batchAffineCap): a uniformly random digit stream then fills it
 * with ~cap/8 collisions, so few points wait or pair. A batch as large
 * as the bucket array could never fill with bucket adds alone.
 *
 * Special cases are resolved at classification time, before the shared
 * inversion, so the denominator array is always invertible. Bucket
 * adds and pair adds share the rules:
 *   - empty bucket: direct store, no field ops at all;
 *   - equal x, equal y (doubling): lambda = 3x^2 / 2y;
 *   - equal x, opposite y (or y = 0): the sum is infinity (a bucket
 *     empties, a pair sum is dropped).
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
#include "sim/counters.h"

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
        /// Points scheduled again after a flush: pair sums and parked
        /// points (at most two per add).
        std::uint64_t rescheduled = 0;
    };

    /** @p max_cap bounds the per-window batch size batchAffineCap
     *  picks in reset(). */
    explicit BatchAffineAdder(std::size_t buckets,
                              std::size_t max_cap = kBatchAffineMaxCap)
        : max_cap_(max_cap)
    {
        reset(buckets);
    }

    /** Clear all buckets to infinity (reusable across windows) and
     *  size the flush batch to the bucket count. */
    void
    reset(std::size_t buckets)
    {
        cap_ = batchAffineCap(buckets, max_cap_);
        buckets_.assign(buckets, Affine());
        slot_.assign(buckets, kIdle);
        adds_.clear();
        pairs_.clear();
        waiting_.clear();
        tracked_.set("msm.batch_affine",
                     buckets * (sizeof(Affine) + sizeof(std::uint32_t)) +
                         cap_ * (2 * sizeof(Pending) + sizeof(Pair) +
                                 4 * sizeof(Field)));
    }

    /**
     * True when the bucket already holds a point or has one pending —
     * the occupancy signal fed to the branch-predictor model.
     */
    bool
    occupied(std::size_t bucket) const
    {
        return slot_[bucket] != kIdle || !buckets_[bucket].infinity;
    }

    /** Schedule buckets[bucket] += p (p == infinity is a no-op). */
    void
    add(std::size_t bucket, const Affine& p)
    {
        if (p.infinity)
            return;
        schedule((std::uint32_t)bucket, p);
        while (batchSize() >= cap_)
            flushOnce();
    }

    /** Apply every scheduled add; buckets() is coherent afterwards. */
    void
    flush()
    {
        // A parked point implies a busy bucket, hence a batch entry.
        while (batchSize() != 0)
            flushOnce();
    }

    /** The bucket array (valid after flush()). */
    const std::vector<Affine>& buckets() const { return buckets_; }

    /** Flush batch size chosen by the last reset(). */
    std::size_t batchCap() const { return cap_; }

    /** Points parked for a busy bucket; at most batchCap(). */
    std::size_t waitingSize() const { return waiting_.size(); }

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
        __builtin_prefetch(&slot_[bucket], 1, 1);
#endif
    }

  private:
    /// slot_ values other than an index into waiting_.
    static constexpr std::uint32_t kIdle = 0xffffffffu; ///< no add pending
    static constexpr std::uint32_t kBusy = 0xfffffffeu; ///< none parked

    struct Pending
    {
        std::uint32_t bucket;
        Affine pt;
    };

    /** Two points bound for one bucket; the sum lands in a. */
    struct Pair
    {
        std::uint32_t bucket;
        Affine a, b;
    };

    /** One add of the flush: lhs += rhs. */
    struct Apply
    {
        Affine* lhs;
        const Affine* rhs;
    };

    std::size_t batchSize() const { return adds_.size() + pairs_.size(); }

    void
    schedule(std::uint32_t bucket, const Affine& p)
    {
        std::uint32_t& slot = slot_[bucket];
        if (slot == kIdle) {
            Affine& b = buckets_[bucket];
            if (b.infinity) {
                // No pending add can exist for an idle bucket, so the
                // store is unordered with everything in flight.
                b = p;
                return;
            }
            slot = kBusy;
            adds_.push_back({bucket, p});
        } else if (slot == kBusy) {
            slot = (std::uint32_t)waiting_.size();
            waiting_.push_back({bucket, p});
        } else {
            // Pair with the parked point and free its waiting entry;
            // the list's last entry moves into the hole.
            pairs_.push_back({bucket, waiting_[slot].pt, p});
            if (slot + 1 != waiting_.size()) {
                waiting_[slot] = waiting_.back();
                slot_[waiting_[slot].bucket] = slot;
            }
            waiting_.pop_back();
            slot = kBusy;
        }
    }

    /** Apply the batch, then schedule the pair sums and the parked
     *  points again (parked first, so each takes its now idle bucket
     *  and never waits twice). */
    void
    flushOnce()
    {
        applyBatch();
        adds_.clear();
        again_.swap(waiting_);
        for (const Pair& q : pairs_)
            if (!q.a.infinity)
                again_.push_back({q.bucket, q.a});
        pairs_.clear();
        for (const Pending& e : again_)
            schedule(e.bucket, e.pt);
        ++stats_.flushes;
        stats_.rescheduled += again_.size();
        sim::count(sim::PrimOp::BatchFlush);
        sim::count(sim::PrimOp::BatchRescheduled, 4, again_.size());
        again_.clear();
    }

    /** Stage lhs += rhs for the shared inversion, or resolve it now
     *  when the denominator would vanish. */
    void
    classify(Affine& lhs, const Affine& rhs)
    {
        if (lhs.x != rhs.x) {
            den_.push_back(rhs.x - lhs.x);
            num_.push_back(rhs.y - lhs.y);
            app_.push_back({&lhs, &rhs});
        } else if (lhs.y == rhs.y && !lhs.y.isZero()) {
            // Tangent: lambda = 3x^2 / 2y.
            const Field xx = lhs.x.squared();
            den_.push_back(lhs.y.doubled());
            num_.push_back(xx.doubled() + xx);
            app_.push_back({&lhs, &rhs});
        } else {
            lhs = Affine(); // P + (-P), or doubling a y = 0 point
        }
    }

    /** Apply every bucket add and pair add and mark the buckets idle;
     *  pair sums are left in Pair::a. */
    void
    applyBatch()
    {
        den_.clear();
        num_.clear();
        app_.clear();
        for (const Pending& e : adds_) {
            slot_[e.bucket] = kIdle;
            classify(buckets_[e.bucket], e.pt); // bucket never infinity
        }
        for (Pair& q : pairs_)
            classify(q.a, q.b);

        const std::size_t m = app_.size();
        if (m == 0)
            return;
        prefix_.resize(m);
        ff::batchInverse(den_.data(), m, prefix_.data());

        // lambda = num / den; reuse den for lambda, then num for
        // lambda^2 (chord and tangent share the rest of the formula).
        ff::mulBatch(den_.data(), num_.data(), den_.data(), m);
        ff::squareBatch(num_.data(), den_.data(), m);
        t_.resize(m);
        for (std::size_t i = 0; i < m; ++i) {
            Affine& l = *app_[i].lhs;
            const Field x3 = num_[i] - l.x - app_[i].rhs->x;
            t_[i] = l.x - x3;
            l.x = x3;
        }
        ff::mulBatch(t_.data(), den_.data(), t_.data(), m);
        for (std::size_t i = 0; i < m; ++i) {
            Affine& l = *app_[i].lhs;
            l.y = t_[i] - l.y;
        }
    }

    std::size_t max_cap_;
    std::size_t cap_ = 0;
    Stats stats_;
    std::vector<Affine> buckets_;
    /// Per bucket: kIdle, kBusy, or the index of its parked point.
    std::vector<std::uint32_t> slot_;
    std::vector<Pending> adds_, waiting_, again_;
    std::vector<Pair> pairs_;
    std::vector<Apply> app_;
    /// Flush scratch: denominators, numerators, the y products and
    /// the batch inversion's prefix products. A warm adder's flush
    /// reuses their capacity and allocates nothing.
    std::vector<Field> den_, num_, t_, prefix_;
    /// Scratch footprint account ("msm.batch_affine").
    obs::memprof::TrackedBytes tracked_;
};

} // namespace zkp::ec

#endif // ZKP_EC_BATCH_ADD_H
