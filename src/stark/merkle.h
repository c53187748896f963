/**
 * @file
 * Binary Merkle tree over row digests: the commitment scheme of the
 * STARK backend.
 *
 * The prover commits to an evaluation table (trace LDE columns, FRI
 * layers) by hashing each row to a leaf and folding pairwise up to a
 * single root; a query opening reveals one row plus its
 * authentication path (sibling digests, leaf to root). Verification
 * recomputes the root from the row — binding is collision resistance
 * of SHA-256, nothing else, which is what makes the scheme
 * transparent: no trusted setup artifact exists, and the serving
 * layer's key cache has nothing to hold (docs/SERVING.md).
 *
 * Leaf hashing parallelizes over rows via the shared pool; the
 * interior fold is level-by-level with the same dispatch threshold
 * idiom the NTT uses (small levels stay serial). Hashing itself never
 * allocates (stark/hash.h), so a build makes one allocation per
 * level, not per row.
 */

#ifndef ZKP_STARK_MERKLE_H
#define ZKP_STARK_MERKLE_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <vector>

#include "common/parallel.h"
#include "obs/trace.h"
#include "sim/counters.h"
#include "stark/hash.h"

namespace zkp::stark {

/** One query opening: the authentication path for a leaf index. */
struct MerklePath
{
    /// Sibling digests, leaf level first.
    std::vector<Digest> siblings;
};

class MerkleTree
{
  public:
    /**
     * Build over @p leaves (size must be a power of two >= 1).
     * Levels are stored flat: levels_[0] is the leaf row, the last
     * level is the root.
     */
    explicit MerkleTree(std::vector<Digest> leaves,
                        std::size_t threads = 1)
    {
        const std::size_t n = leaves.size();
        assert(n > 0 && (n & (n - 1)) == 0 &&
               "merkle leaf count not 2^k");
        ZKP_TRACE_SCOPE("merkle_build", "n", (obs::u64)n);
        sim::countAlloc(2 * n * sizeof(Digest));
        levels_.reserve((std::size_t)std::countr_zero(n) + 1);
        levels_.push_back(std::move(leaves));
        while (levels_.back().size() > 1) {
            const auto& prev = levels_.back();
            std::vector<Digest> next(prev.size() / 2);
            parallelFor(next.size(),
                        next.size() >= 1024 ? threads : 1,
                        [&](std::size_t, std::size_t b,
                            std::size_t e) {
                            for (std::size_t i = b; i < e; ++i)
                                next[i] = hashPair(prev[2 * i],
                                                   prev[2 * i + 1]);
                        });
            levels_.push_back(std::move(next));
        }
    }

    /** Hash @p rows of a row-major table into leaves, then build. */
    static MerkleTree
    fromRows(const Gl* table, std::size_t rows, std::size_t width,
             std::size_t threads = 1)
    {
        ZKP_TRACE_SCOPE("merkle_leaves", "n", (obs::u64)rows);
        std::vector<Digest> leaves(rows);
        parallelFor(rows, rows >= 1024 ? threads : 1,
                    [&](std::size_t, std::size_t b, std::size_t e) {
                        for (std::size_t i = b; i < e; ++i)
                            leaves[i] =
                                hashRow(table + i * width, width);
                    });
        return MerkleTree(std::move(leaves), threads);
    }

    const Digest& root() const { return levels_.back()[0]; }
    std::size_t leafCount() const { return levels_[0].size(); }

    /** Authentication path for leaf @p index. */
    MerklePath
    open(std::size_t index) const
    {
        assert(index < leafCount());
        MerklePath path;
        for (std::size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
            path.siblings.push_back(levels_[lvl][index ^ 1]);
            index >>= 1;
        }
        return path;
    }

    /**
     * Recompute the root from a leaf digest and its path; true when
     * it matches @p root. Static: verification holds no tree.
     */
    static bool
    verify(const Digest& leaf, std::size_t index,
           const MerklePath& path, const Digest& root)
    {
        Digest h = leaf;
        for (const Digest& sib : path.siblings) {
            h = (index & 1) ? hashPair(sib, h) : hashPair(h, sib);
            index >>= 1;
        }
        return index == 0 && h == root;
    }

  private:
    std::vector<std::vector<Digest>> levels_;
};

} // namespace zkp::stark

#endif // ZKP_STARK_MERKLE_H
