/**
 * @file
 * Windowed fixed-base scalar multiplication.
 *
 * The trusted setup evaluates the CRS by multiplying the *fixed*
 * group generators by millions of scalars; a precomputed window table
 * turns each multiplication into ~kBits/kWindowBits additions with no
 * doublings (libsnark's windowed_exp).
 *
 * mulAll, the encoder every CRS and SRS goes through, keeps one affine
 * accumulator per scalar in a BatchAffineAdder (ec/batch_add.h) and
 * walks the windows in lock-step: in each window every scalar adds its
 * table entry to its own accumulator, so no two adds of a window meet
 * and the adds share one batch inversion per flush, with the slope
 * products on ff::mulBatch. mul(k) is the one-scalar Jacobian form
 * (one mixed add per window). Both produce the same affine points.
 *
 * The table build and the per-scalar table loads are instrumented —
 * the streaming table reads are a large share of the setup stage's
 * load traffic (Fig. 5).
 */

#ifndef ZKP_EC_FIXED_BASE_H
#define ZKP_EC_FIXED_BASE_H

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "ec/batch_add.h"
#include "ec/curve.h"
#include "obs/trace.h"
#include "sim/counters.h"
#include "sim/memtrace.h"

namespace zkp::ec {

/**
 * Window table for one fixed base point.
 *
 * @tparam Point Jacobian point type
 * @tparam ScalarRepr canonical scalar BigInt type
 */
template <typename Point, typename ScalarRepr>
class FixedBaseTable
{
  public:
    using Affine = decltype(std::declval<Point>().toAffine());

    static constexpr unsigned kWindowBits = 8;
    static constexpr unsigned kScalarBits = ScalarRepr::kBits;
    static constexpr unsigned kWindows =
        (kScalarBits + kWindowBits - 1) / kWindowBits;
    static constexpr std::size_t kEntriesPerWindow =
        (std::size_t(1) << kWindowBits) - 1;
    /// Scalars per batch-affine chunk in mulAll: a chunk's
    /// accumulators and the adder's scratch stay in L2
    /// (docs/PERFORMANCE.md, "Batch-affine fixed-base encoding").
    static constexpr std::size_t kEncodeChunk = 4096;

    /** Precompute the table for @p base. */
    explicit FixedBaseTable(const Point& base)
    {
        ZKP_TRACE_SCOPE("fixed_base_table_build", "entries",
                        (obs::u64)(kWindows * kEntriesPerWindow));
        std::vector<Point> jac;
        jac.reserve(kWindows * kEntriesPerWindow);
        Point window_base = base;
        for (unsigned w = 0; w < kWindows; ++w) {
            // Entries j*2^(w*kWindowBits)*base for j = 1..2^c - 1.
            Point acc = Point::infinity();
            for (std::size_t j = 1; j <= kEntriesPerWindow; ++j) {
                acc += window_base;
                jac.push_back(acc);
            }
            for (unsigned b = 0; b < kWindowBits; ++b)
                window_base = window_base.doubled();
        }
        table_ = batchToAffine(jac);
        sim::countAlloc(table_.size() * sizeof(Affine));
        tracked_.set("ec.fixed_base_table", footprintBytes());
    }

    /** base * k via table lookups (one mixed add per window). */
    Point
    mul(const ScalarRepr& k) const
    {
        sim::count(sim::PrimOp::FixedBaseMul);
        Point acc = Point::infinity();
        for (unsigned w = 0; w < kWindows; ++w) {
            sim::count(sim::PrimOp::MsmWindow);
            if (const Affine* entry = lookup(k, w))
                acc = acc.addMixed(*entry);
        }
        return acc;
    }

    /**
     * base * k[i] for i < @p n, in affine form (equal to
     * mul(k[i]).toAffine()). Each work item is a chunk of at most
     * kEncodeChunk scalars; a thread runs its chunks on one
     * BatchAffineAdder (encodeChunk).
     */
    std::vector<Affine>
    mulAll(const ScalarRepr* k, std::size_t n, std::size_t threads) const
    {
        ZKP_TRACE_SCOPE("fixed_base_encode", "n", (obs::u64)n);
        sim::count(sim::PrimOp::FixedBaseMul, 4, n);
        std::vector<Affine> out(n);
        sim::countAlloc(n * sizeof(Affine));
        if (n == 0)
            return out;
        // Smaller chunks when there are fewer than kEncodeChunk
        // scalars per thread, so every thread gets one.
        const std::size_t t = threads ? threads : 1;
        const std::size_t chunk =
            std::min(kEncodeChunk, (n + t - 1) / t);
        parallelFor((n + chunk - 1) / chunk, threads,
                    [&](std::size_t, std::size_t cb, std::size_t ce) {
                        BatchAdder acc(chunk);
                        for (std::size_t c = cb; c < ce; ++c) {
                            const std::size_t first = c * chunk;
                            encodeChunk(k + first,
                                        std::min(chunk, n - first), acc,
                                        out.data() + first);
                        }
                    });
        return out;
    }

    /** Table footprint in bytes (reported by the memory analysis). */
    std::size_t
    footprintBytes() const
    {
        return table_.size() * sizeof(Affine);
    }

  private:
    using BatchAdder = BatchAffineAdder<typename Affine::FieldT>;

    /** out[i] = base * ks[i] for i < @p m, window by window, on @p acc's
     *  first m buckets. */
    void
    encodeChunk(const ScalarRepr* ks, std::size_t m, BatchAdder& acc,
                Affine* out) const
    {
        acc.reset(m);
        for (std::size_t i = 0; i < m; ++i)
            sim::traceLoad(&ks[i], sizeof(ScalarRepr));
        for (unsigned w = 0; w < kWindows; ++w) {
            for (std::size_t i = 0; i < m; ++i) {
                sim::count(sim::PrimOp::MsmWindow);
                if (const Affine* entry = lookup(ks[i], w))
                    acc.add(i, *entry);
            }
            acc.flush(); // no two adds of a window share a bucket
        }
        const std::vector<Affine>& res = acc.buckets();
        for (std::size_t i = 0; i < m; ++i) {
            out[i] = res[i];
            sim::traceStore(&out[i], sizeof(Affine));
        }
    }

    /** The table entry window @p w of @p k selects (traced), or
     *  nullptr for a zero digit. */
    const Affine*
    lookup(const ScalarRepr& k, unsigned w) const
    {
        std::size_t slice = 0;
        for (unsigned b = 0;
             b < kWindowBits && w * kWindowBits + b < kScalarBits; ++b)
            slice |= (std::size_t)k.bit(w * kWindowBits + b) << b;
        if (slice == 0)
            return nullptr;
        const Affine& entry = table_[w * kEntriesPerWindow + slice - 1];
        sim::traceLoad(&entry, sizeof(Affine));
        return &entry;
    }

    std::vector<Affine> table_;
    /// Footprint account ("ec.fixed_base_table").
    obs::memprof::TrackedBytes tracked_;
};

/** The process-wide fixed-base table for @p Group's generator. */
template <typename Group>
const FixedBaseTable<typename Group::Jacobian,
                     typename Group::Scalar::Repr>&
generatorTable()
{
    static const FixedBaseTable<typename Group::Jacobian,
                                typename Group::Scalar::Repr>
        table{typename Group::Jacobian{Group::generator()}};
    return table;
}

} // namespace zkp::ec

#endif // ZKP_EC_FIXED_BASE_H
