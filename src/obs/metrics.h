/**
 * @file
 * Lock-free streaming instruments: a monotonic counter and a
 * log-scale histogram.
 *
 * Both are plain members of whatever owns them (serve::MetricsHub
 * holds one set per request lane); there is no registry and no lookup
 * by name. Every update is a relaxed atomic add, so any thread may
 * record into a shared instrument and readers never block writers.
 * Kernel event counts (MSM calls, NTTs, pairings, ...) are not kept
 * here: they are sim::PrimOp counts (sim/counters.h), which diff per
 * stage into each run-report record.
 */

#ifndef ZKP_OBS_METRICS_H
#define ZKP_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>

namespace zkp::obs {

using u64 = std::uint64_t;

/** Monotonic counter. */
class Counter
{
  public:
    void
    add(u64 delta = 1)
    {
        v_.fetch_add(delta, std::memory_order_relaxed);
    }

    u64 value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<u64> v_{0};
};

/**
 * Log-scale (powers of two) histogram for long-tailed size
 * distributions: latencies, batch sizes, allocation bytes. Bucket i
 * holds values v with 2^(i-1) < v <= ... — concretely, bucket 0 holds
 * v == 0 and v == 1, bucket i >= 1 holds 2^i <= v < 2^(i+1).
 */
class Histogram
{
  public:
    static constexpr unsigned kBuckets = 64;

    /** Bucket index for @p v. */
    static unsigned
    bucketOf(u64 v)
    {
        unsigned b = 0;
        while (v > 1) {
            v >>= 1;
            ++b;
        }
        return b;
    }

    /** Inclusive lower bound of bucket @p i. */
    static u64
    bucketLow(unsigned i)
    {
        return i == 0 ? 0 : u64(1) << i;
    }

    void
    record(u64 v)
    {
        buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        atomicMin(min_, v);
        atomicMax(max_, v);
    }

    u64 count() const { return count_.load(std::memory_order_relaxed); }
    u64 sum() const { return sum_.load(std::memory_order_relaxed); }

    u64
    min() const
    {
        return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
    }

    u64
    max() const
    {
        return count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
    }

    u64
    bucketCount(unsigned i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    /** Coherent multi-field reading of one histogram. */
    struct Snapshot
    {
        u64 count = 0;
        u64 sum = 0;
        u64 min = 0;
        u64 max = 0;
        std::array<u64, kBuckets> buckets{};

        /**
         * Interpolated quantile estimate (q in [0, 1]) from the log2
         * buckets: find the bucket holding rank q*(count-1), assume
         * samples spread uniformly across the bucket's value range,
         * and clamp into [min, max] — so a single-valued distribution
         * reports that value exactly at every q, and the estimate is
         * never outside the observed range. Worst-case error is the
         * bucket width (a factor of 2), which is the resolution the
         * histogram was built with. Returns 0 on an empty histogram.
         */
        double
        quantile(double q) const
        {
            if (count == 0)
                return 0;
            if (q <= 0)
                return (double)min;
            if (q >= 1)
                return (double)max;
            const double rank = q * (double)(count - 1);
            u64 seen = 0;
            for (unsigned i = 0; i < kBuckets; ++i) {
                const u64 n = buckets[i];
                if (n == 0)
                    continue;
                if (rank < (double)(seen + n)) {
                    const double lo = (double)bucketLow(i);
                    const double hi =
                        i + 1 < kBuckets ? (double)bucketLow(i + 1)
                                         : lo * 2;
                    const double frac =
                        ((rank - (double)seen) + 0.5) / (double)n;
                    double v = lo + (hi - lo) * frac;
                    if (v < (double)min)
                        v = (double)min;
                    if (v > (double)max)
                        v = (double)max;
                    return v;
                }
                seen += n;
            }
            return (double)max;
        }

        double
        mean() const
        {
            return count == 0 ? 0 : (double)sum / (double)count;
        }
    };

    /** Interpolated quantile of the live histogram (one snapshot). */
    double
    quantile(double q) const
    {
        return snapshot().quantile(q);
    }

    /**
     * Read every field into one struct. Each individual load is
     * atomic, but record() updates several fields per sample, so a
     * single pass racing concurrent writers could see count out of
     * step with the buckets; re-read until count is stable across a
     * pass (bounded retries — under a writer storm the last pass
     * wins, still tear-free per field, at worst one sample skewed).
     */
    Snapshot
    snapshot() const
    {
        Snapshot s;
        for (int attempt = 0; attempt < 8; ++attempt) {
            const u64 before =
                count_.load(std::memory_order_acquire);
            s.count = before;
            s.sum = sum_.load(std::memory_order_relaxed);
            for (unsigned i = 0; i < kBuckets; ++i)
                s.buckets[i] =
                    buckets_[i].load(std::memory_order_relaxed);
            s.min = before == 0
                        ? 0
                        : min_.load(std::memory_order_relaxed);
            s.max = before == 0
                        ? 0
                        : max_.load(std::memory_order_relaxed);
            if (count_.load(std::memory_order_acquire) == before)
                break;
        }
        return s;
    }

  private:
    static void
    atomicMin(std::atomic<u64>& slot, u64 v)
    {
        u64 cur = slot.load(std::memory_order_relaxed);
        while (v < cur &&
               !slot.compare_exchange_weak(cur, v,
                                           std::memory_order_relaxed)) {
        }
    }

    static void
    atomicMax(std::atomic<u64>& slot, u64 v)
    {
        u64 cur = slot.load(std::memory_order_relaxed);
        while (v > cur &&
               !slot.compare_exchange_weak(cur, v,
                                           std::memory_order_relaxed)) {
        }
    }

    std::array<std::atomic<u64>, kBuckets> buckets_{};
    std::atomic<u64> count_{0};
    std::atomic<u64> sum_{0};
    std::atomic<u64> min_{~u64(0)};
    std::atomic<u64> max_{0};
};

} // namespace zkp::obs

#endif // ZKP_OBS_METRICS_H
