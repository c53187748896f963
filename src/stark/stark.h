/**
 * @file
 * Transparent STARK prover and verifier: trace LDE + constraint
 * composition + Merkle commitments + FRI low-degree test.
 *
 * Protocol (the classic pre-DEEP construction; docs/STARK.md walks
 * through it):
 *
 *  1. trace_gen — build the execution trace (steps x columns).
 *  2. lde — interpolate each column over the size-n subgroup H and
 *     evaluate on the disjoint coset s*K of the size-N = blowup*n
 *     subgroup (poly::Domain NTTs over Goldilocks).
 *  3. commit — Merkle-commit the N trace rows; absorb the root.
 *  4. fri — evaluate the composition polynomial
 *         C(x) = sum_j (a_j x^{e_j} + b_j) * T_j(x) / Z_j(x)
 *     (transition quotients over Z_T = (x^n-1)/(x - g^{n-1}),
 *     boundary quotients over (x - g^row), each degree-adjusted to
 *     the uniform bound D = 2n), then fold it log2(D/16) times:
 *         f_{k+1}(x^2) = (f_k(x)+f_k(-x))/2
 *                      + beta_k * (f_k(x)-f_k(-x))/(2x),
 *     committing every intermediate layer and sending the final
 *     16 remainder coefficients in the clear.
 *  5. query — grind a proof-of-work nonce, then open `queries`
 *     random positions: 4 trace rows each (both halves of the FRI
 *     pair, each with its g-shifted partner row) plus the pair
 *     openings of every committed layer.
 *
 * The verifier replays the Fiat-Shamir channel, recomputes C at the
 * queried points from the opened trace rows (layer 0 is never
 * committed — its values are *derived*, which ties the FRI chain to
 * the trace commitment), checks every Merkle path, every fold, and
 * finally the remainder evaluation. No trusted setup exists anywhere:
 * soundness rests on SHA-256 and the FRI soundness bounds
 * (docs/STARK.md discusses the knobs).
 */

#ifndef ZKP_STARK_STARK_H
#define ZKP_STARK_STARK_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <vector>

#include "common/parallel.h"
#include "core/stage.h"
#include "ff/fp.h" // ff::mulBatch / ff::batchInverse generics
#include "poly/domain.h"
#include "stark/air.h"
#include "stark/channel.h"
#include "stark/merkle.h"

namespace zkp::stark {

/**
 * Proof-shape knobs. Defaults give rate 1/4 (D = 2n over N = 8n),
 * ~2 bits of FRI soundness per query plus the grind bits on top:
 * 30 queries + 12 grind bits ~ 72 conjectured bits — benchmark-
 * faithful for a 64-bit base field (docs/STARK.md).
 */
struct StarkParams
{
    /// LDE blowup (N = blowup * steps); power of two >= 4.
    std::size_t blowup = 8;
    /// Number of FRI query rounds.
    std::size_t queries = 30;
    /// Leading zero bits the proof-of-work nonce must clear.
    unsigned grindBits = 12;

    /// Channel domain-separation label.
    static constexpr u64 kLabel = 0x31765F6B72617453ULL; // "Stark_v1"
    /// Remainder polynomial coefficient count (folding stops here).
    static constexpr std::size_t kRemainderCoeffs = 16;
    /// Highest supported transition-constraint degree at D = 2n.
    static constexpr std::size_t kMaxConstraintDegree = 3;
};

/** One opened trace row with its authentication path. */
struct TraceOpening
{
    std::vector<Gl> row;
    MerklePath path;
};

/** Pair opening of one committed FRI layer. */
struct LayerOpening
{
    Gl v0, v1; ///< values at (pos, pos + half)
    MerklePath p0, p1;
};

/** One query round: 4 trace rows + one pair per committed layer. */
struct StarkQuery
{
    /// Positions p, p+blowup, p+N/2, p+N/2+blowup (all mod N); the
    /// indices are recomputed from the channel, never transmitted.
    std::vector<TraceOpening> trace;
    std::vector<LayerOpening> layers;
};

struct StarkProof
{
    /// Shape echo, validated against the AIR before any use.
    u64 steps = 0;
    u64 columns = 0;
    Digest traceRoot{};
    /// Roots of committed FRI layers 1..L-1 (layer 0 is derived,
    /// layer L is the remainder).
    std::vector<Digest> friRoots;
    std::vector<Gl> remainder;
    u64 powNonce = 0;
    std::vector<StarkQuery> queries;
};

namespace detail {

/** Per-constraint composition challenges (transitions ++ boundaries). */
struct Challenges
{
    std::vector<Gl> alpha, beta;
    std::vector<Gl> friBetas;
};

/** Degree-adjustment exponent for a transition of degree @p d. */
inline std::size_t
transitionAdjust(std::size_t n, std::size_t d)
{
    const std::size_t target = 2 * n - 1; // deg C <= D - 1
    const std::size_t quot = (d - 1) * (n - 1);
    assert(quot <= target && "constraint degree exceeds D = 2n");
    return target - quot;
}

/** Degree-adjustment exponent for a boundary quotient. */
inline std::size_t
boundaryAdjust(std::size_t n)
{
    return (2 * n - 1) - (n - 2);
}

/** Number of FRI folds: halve D = 2n down to the remainder size. */
inline std::size_t
friFolds(std::size_t n)
{
    std::size_t folds = 0;
    std::size_t bound = 2 * n;
    while (bound > StarkParams::kRemainderCoeffs) {
        bound /= 2;
        ++folds;
    }
    return folds;
}

/** Coefficients of a periodic column (intt over its own subgroup). */
inline std::vector<Gl>
periodicCoeffs(const std::vector<Gl>& column)
{
    std::vector<Gl> c = column;
    poly::Domain<Gl>(c.size()).intt(c);
    return c;
}

/** Horner evaluation. */
inline Gl
evalPoly(const std::vector<Gl>& coeffs, const Gl& x)
{
    Gl acc = Gl::zero();
    for (std::size_t i = coeffs.size(); i-- > 0;)
        acc = acc * x + coeffs[i];
    return acc;
}

/** Draw the composition + FRI challenges in transcript order. */
inline Challenges
drawChallenges(Channel& ch, std::size_t count, std::size_t folds,
               const std::vector<Digest>& fri_roots)
{
    Challenges out;
    for (std::size_t j = 0; j < count; ++j) {
        out.alpha.push_back(ch.challenge());
        out.beta.push_back(ch.challenge());
    }
    for (std::size_t k = 0; k < folds; ++k) {
        if (k > 0)
            ch.absorbDigest(fri_roots[k - 1]);
        out.friBetas.push_back(ch.challenge());
    }
    return out;
}

/** Seed the channel with the statement (params, AIR, publics). */
inline Channel
openChannel(const Air& air, const StarkParams& p)
{
    Channel ch(StarkParams::kLabel);
    const std::string name = air.name();
    ch.absorbDigest(hashBytes(
        reinterpret_cast<const std::uint8_t*>(name.data()),
        name.size()));
    ch.absorbU64(air.steps());
    ch.absorbU64(air.columns());
    ch.absorbU64(p.blowup);
    ch.absorbU64(p.queries);
    ch.absorbU64(p.grindBits);
    for (const Gl& v : air.publicInputs())
        ch.absorbField(v);
    return ch;
}

/**
 * Geometric column base * ratio^i for i in [0, n), chunked across
 * the pool: each chunk pays one log-size pow, then runs products.
 */
inline std::vector<Gl>
geometricColumn(const Gl& base, const Gl& ratio, std::size_t n,
                std::size_t threads)
{
    std::vector<Gl> out(n);
    sim::countAlloc(n * sizeof(Gl));
    parallelFor(n, threads,
                [&](std::size_t, std::size_t b, std::size_t e) {
                    Gl cur = base * ratio.pow((u64)b);
                    for (std::size_t i = b; i < e; ++i) {
                        out[i] = cur;
                        cur *= ratio;
                    }
                });
    return out;
}

/** Elementwise inverse across the pool (chunked batch inversion). */
inline void
invertColumn(std::vector<Gl>& v, std::size_t threads)
{
    parallelFor(v.size(), threads,
                [&](std::size_t, std::size_t b, std::size_t e) {
                    ff::batchInverse(v.data() + b, e - b);
                });
}

} // namespace detail

/**
 * Prove one AIR instance.
 *
 * @param air     statement + trace builder
 * @param params  proof-shape knobs
 * @param threads worker threads for the data-parallel stages
 * @param sinks   optional trace sinks for the memory-system models
 * @param sample_mask memory-trace sampling mask
 */
inline StarkProof
prove(const Air& air, const StarkParams& params,
      std::size_t threads = 1,
      const std::vector<sim::TraceSink*>& sinks = {},
      sim::u32 sample_mask = 0)
{
    const std::size_t n = air.steps();
    const std::size_t w = air.columns();
    const std::size_t blowup = params.blowup;
    const std::size_t N = n * blowup;
    assert(n >= 16 && (n & (n - 1)) == 0 && "steps must be 2^k >= 16");
    assert(blowup >= 4 && (blowup & (blowup - 1)) == 0);
    const std::string tag = "gl64/" + air.name();
    const std::size_t work = n * w;

    StarkProof proof;
    proof.steps = n;
    proof.columns = w;

    // --- trace_gen -------------------------------------------------
    std::vector<Gl> trace;
    core::measureStage("stark_trace_gen", tag, work, threads, sinks,
                       sample_mask, [&] { trace = air.buildTrace(); });
    assert(trace.size() == n * w);

    // --- lde -------------------------------------------------------
    poly::Domain<Gl> traceDom(n);
    poly::Domain<Gl> ldeDom(N);
    std::vector<Gl> ldeRows(N * w);
    // Periodic-column evaluation tables over the LDE positions; each
    // repeats with period blowup * period(column).
    std::vector<std::vector<Gl>> periodicLde;
    const auto periodicCols = air.periodicColumns();
    core::measureStage("stark_lde", tag, work, threads, sinks,
                       sample_mask, [&] {
        sim::countAlloc(N * w * sizeof(Gl));
        for (std::size_t c = 0; c < w; ++c) {
            std::vector<Gl> col(n);
            for (std::size_t i = 0; i < n; ++i)
                col[i] = trace[i * w + c];
            traceDom.intt(col, threads);
            col.resize(N);
            ldeDom.cosetNtt(col, threads);
            for (std::size_t i = 0; i < N; ++i)
                ldeRows[i * w + c] = col[i];
        }
        for (const auto& pc : periodicCols) {
            const std::size_t p = pc.size();
            assert(p > 0 && (p & (p - 1)) == 0 && n % p == 0);
            const auto coeffs = detail::periodicCoeffs(pc);
            // Values depend on x^(n/p), which cycles with period
            // blowup * p over LDE positions.
            const Gl ratio = ldeDom.omega().pow((u64)(n / p));
            const Gl shiftPow =
                ldeDom.cosetShift().pow((u64)(n / p));
            std::vector<Gl> table(blowup * p);
            Gl y = shiftPow;
            for (std::size_t i = 0; i < table.size(); ++i) {
                table[i] = detail::evalPoly(coeffs, y);
                y *= ratio;
            }
            periodicLde.push_back(std::move(table));
        }
    });

    // --- commit ----------------------------------------------------
    std::vector<MerkleTree> trees; // [0] = trace, then FRI layers
    core::measureStage("stark_commit", tag, work, threads, sinks,
                       sample_mask, [&] {
        trees.push_back(MerkleTree::fromRows(ldeRows.data(), N, w,
                                             threads));
    });
    proof.traceRoot = trees[0].root();

    Channel ch = detail::openChannel(air, params);
    ch.absorbDigest(proof.traceRoot);

    const std::size_t T = air.transitionCount();
    const auto boundaries = air.boundaries();
    const std::size_t B = boundaries.size();
    const std::size_t folds = detail::friFolds(n);

    // Challenges for the composition come first; FRI betas interleave
    // with the layer commitments inside the fri stage below, so the
    // transcript is: root, (a,b)*, beta_0, root_1, beta_1, ...
    detail::Challenges chal;
    for (std::size_t j = 0; j < T + B; ++j) {
        chal.alpha.push_back(ch.challenge());
        chal.beta.push_back(ch.challenge());
    }

    // --- fri -------------------------------------------------------
    std::vector<std::vector<Gl>> layers; // FRI evaluation layers
    core::measureStage("stark_fri", tag, work, threads, sinks,
                       sample_mask, [&] {
        const Gl shift = ldeDom.cosetShift();
        const Gl omega = ldeDom.omega();
        const Gl gLast = traceDom.element(n - 1);

        // x^n - 1 cycles with period `blowup` over the coset.
        std::vector<Gl> zn(blowup);
        {
            const Gl sn = shift.pow((u64)n);
            const Gl wn = omega.pow((u64)n);
            Gl cur = sn;
            for (std::size_t i = 0; i < blowup; ++i) {
                zn[i] = cur - Gl::one();
                cur *= wn;
            }
            ff::batchInverse(zn.data(), zn.size());
        }

        const std::vector<Gl> xs =
            detail::geometricColumn(shift, omega, N, threads);

        // Inverse boundary denominators 1/(x - g^row), one column
        // per distinct pinned row.
        std::map<std::size_t, std::vector<Gl>> rowDenomInv;
        for (const auto& b : boundaries) {
            if (rowDenomInv.count(b.row))
                continue;
            const Gl g = traceDom.element(b.row);
            std::vector<Gl> d(N);
            sim::countAlloc(N * sizeof(Gl));
            parallelFor(N, threads,
                        [&](std::size_t, std::size_t lo,
                            std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i)
                                d[i] = xs[i] - g;
                        });
            detail::invertColumn(d, threads);
            rowDenomInv.emplace(b.row, std::move(d));
        }

        // Degree-adjustment power columns x^e, one per distinct e,
        // fully built BEFORE the parallel composition loop (the map
        // is read-only inside it).
        std::map<std::size_t, std::vector<Gl>> powCols;
        auto buildPowCol = [&](std::size_t e) {
            if (!powCols.count(e))
                powCols.emplace(
                    e, detail::geometricColumn(shift.pow((u64)e),
                                               omega.pow((u64)e), N,
                                               threads));
        };
        std::vector<const std::vector<Gl>*> tPow(T);
        for (std::size_t j = 0; j < T; ++j)
            buildPowCol(detail::transitionAdjust(
                n, air.transitionDegree(j)));
        for (std::size_t j = 0; j < T; ++j)
            tPow[j] = &powCols.at(detail::transitionAdjust(
                n, air.transitionDegree(j)));
        const std::vector<Gl>* bPow = nullptr;
        if (B) {
            buildPowCol(detail::boundaryAdjust(n));
            bPow = &powCols.at(detail::boundaryAdjust(n));
        }

        // Composition evaluations on the coset.
        std::vector<Gl> comp(N);
        sim::countAlloc(N * sizeof(Gl));
        parallelFor(N, threads, [&](std::size_t, std::size_t lo,
                                    std::size_t hi) {
            std::vector<Gl> tvals(T), pvals(periodicLde.size());
            for (std::size_t i = lo; i < hi; ++i) {
                const Gl* cur = &ldeRows[i * w];
                const Gl* nxt = &ldeRows[((i + blowup) % N) * w];
                for (std::size_t j = 0; j < periodicLde.size(); ++j)
                    pvals[j] =
                        periodicLde[j][i % periodicLde[j].size()];
                air.evalTransition(cur, nxt, pvals.data(),
                                   tvals.data());
                // 1/Z_T = (x - g^{n-1}) / (x^n - 1).
                const Gl ztInv =
                    zn[i % blowup] * (xs[i] - gLast);
                Gl acc = Gl::zero();
                for (std::size_t j = 0; j < T; ++j) {
                    acc += (chal.alpha[j] * (*tPow[j])[i] +
                            chal.beta[j]) *
                           (tvals[j] * ztInv);
                }
                for (std::size_t b = 0; b < B; ++b) {
                    const auto& bd = boundaries[b];
                    const Gl q = (cur[bd.column] - bd.value) *
                                 rowDenomInv.at(bd.row)[i];
                    acc += (chal.alpha[T + b] * (*bPow)[i] +
                            chal.beta[T + b]) *
                           q;
                }
                comp[i] = acc;
            }
        });

        // Fold. Layer k lives on the coset shift^(2^k) * K_k with
        // K_k the subgroup of size N_k = N / 2^k.
        layers.push_back(std::move(comp));
        Gl layerShift = shift;
        Gl layerGen = omega;
        const Gl inv2 = Gl::fromU64(2).inverse();
        for (std::size_t k = 0; k < folds; ++k) {
            chal.friBetas.push_back(ch.challenge());
            const Gl beta = chal.friBetas.back();
            const std::vector<Gl>& curL = layers.back();
            const std::size_t half = curL.size() / 2;
            std::vector<Gl> xinv = detail::geometricColumn(
                layerShift.inverse(), layerGen.inverse(), half,
                threads);
            std::vector<Gl> next(half);
            sim::countAlloc(half * sizeof(Gl));
            parallelFor(half, threads,
                        [&](std::size_t, std::size_t lo,
                            std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i) {
                                const Gl a = curL[i];
                                const Gl b = curL[i + half];
                                next[i] =
                                    ((a + b) +
                                     beta * (a - b) * xinv[i]) *
                                    inv2;
                            }
                        });
            layerShift = layerShift.squared();
            layerGen = layerGen.squared();
            if (k + 1 < folds) {
                trees.push_back(MerkleTree::fromRows(
                    next.data(), next.size(), 1, threads));
                proof.friRoots.push_back(trees.back().root());
                ch.absorbDigest(trees.back().root());
            }
            layers.push_back(std::move(next));
        }

        // Remainder: interpolate the last layer (on its coset) and
        // send the 16 coefficients; the higher ones vanish for an
        // honest prover.
        std::vector<Gl> rem = layers.back();
        poly::Domain<Gl>(rem.size()).intt(rem);
        const Gl sInv = layerShift.inverse();
        Gl sp = Gl::one();
        for (auto& c : rem) {
            c *= sp;
            sp *= sInv;
        }
        for (std::size_t i = StarkParams::kRemainderCoeffs;
             i < rem.size(); ++i)
            assert(rem[i].isZero() &&
                   "composition exceeds the degree bound");
        rem.resize(
            std::min(rem.size(), StarkParams::kRemainderCoeffs));
        proof.remainder = rem;
        for (const Gl& c : proof.remainder)
            ch.absorbField(c);
    });

    // --- query -----------------------------------------------------
    core::measureStage("stark_query", tag, work, threads, sinks,
                       sample_mask, [&] {
        proof.powNonce = ch.grind(params.grindBits);
        for (std::size_t q = 0; q < params.queries; ++q) {
            const std::size_t p = ch.queryIndex(N / 2);
            StarkQuery query;
            const std::size_t pos[4] = {p, (p + blowup) % N,
                                        p + N / 2,
                                        (p + N / 2 + blowup) % N};
            for (std::size_t t = 0; t < 4; ++t) {
                TraceOpening o;
                o.row.assign(&ldeRows[pos[t] * w],
                             &ldeRows[pos[t] * w] + w);
                o.path = trees[0].open(pos[t]);
                query.trace.push_back(std::move(o));
            }
            std::size_t idx = p;
            std::size_t layerSize = N / 2;
            for (std::size_t k = 1; k < folds; ++k) {
                const std::size_t half = layerSize / 2;
                const std::size_t lp = idx % half;
                LayerOpening o;
                o.v0 = layers[k][lp];
                o.v1 = layers[k][lp + half];
                o.p0 = trees[k].open(lp);
                o.p1 = trees[k].open(lp + half);
                query.layers.push_back(std::move(o));
                idx = lp;
                layerSize = half;
            }
            proof.queries.push_back(std::move(query));
        }
    });

    return proof;
}

/**
 * Verify @p proof against the AIR instance (statement = AIR shape +
 * public inputs). Structure is validated before use; any mismatch
 * returns false rather than reading out of bounds.
 */
inline bool
verify(const Air& air, const StarkParams& params,
       const StarkProof& proof)
{
    const std::size_t n = air.steps();
    const std::size_t w = air.columns();
    const std::size_t blowup = params.blowup;
    const std::size_t N = n * blowup;
    const std::size_t folds = detail::friFolds(n);
    const std::size_t T = air.transitionCount();
    const auto boundaries = air.boundaries();
    const std::size_t B = boundaries.size();

    bool ok = true;
    core::measureStage(
        "stark_verify", "gl64/" + air.name(), n * w, 1, {}, 0, [&] {
        ok = false;
        // Shape checks before anything dereferences the proof.
        if (n < 16 || (n & (n - 1)) != 0 || folds == 0)
            return;
        if (proof.steps != n || proof.columns != w)
            return;
        if (proof.friRoots.size() != folds - 1)
            return;
        if (proof.remainder.size() !=
            std::min((std::size_t)StarkParams::kRemainderCoeffs,
                     2 * n))
            return;
        if (proof.queries.size() != params.queries)
            return;
        for (const auto& q : proof.queries) {
            if (q.trace.size() != 4 ||
                q.layers.size() != folds - 1)
                return;
            for (const auto& t : q.trace)
                if (t.row.size() != w)
                    return;
        }

        Channel ch = detail::openChannel(air, params);
        ch.absorbDigest(proof.traceRoot);
        detail::Challenges chal = detail::drawChallenges(
            ch, T + B, folds, proof.friRoots);
        for (const Gl& c : proof.remainder)
            ch.absorbField(c);
        if (!ch.checkGrind(proof.powNonce, params.grindBits))
            return;

        poly::Domain<Gl> traceDom(n);
        poly::Domain<Gl> ldeDom(N);
        const Gl shift = ldeDom.cosetShift();
        const Gl omega = ldeDom.omega();
        const Gl gLast = traceDom.element(n - 1);
        const Gl inv2 = Gl::fromU64(2).inverse();

        // Periodic columns as coefficient vectors in y = x^(n/p).
        const auto periodicCols = air.periodicColumns();
        std::vector<std::vector<Gl>> periodicCf;
        std::vector<std::size_t> periodicPeriod;
        for (const auto& pc : periodicCols) {
            periodicCf.push_back(detail::periodicCoeffs(pc));
            periodicPeriod.push_back(pc.size());
        }

        std::vector<std::size_t> tAdjust(T);
        for (std::size_t j = 0; j < T; ++j)
            tAdjust[j] = detail::transitionAdjust(
                n, air.transitionDegree(j));
        const std::size_t bAdjust = detail::boundaryAdjust(n);

        // Composition value at LDE position `pos` from an opened
        // row pair.
        auto compositionAt = [&](std::size_t pos,
                                 const std::vector<Gl>& cur,
                                 const std::vector<Gl>& nxt) {
            const Gl x = shift * omega.pow((u64)pos);
            std::vector<Gl> pvals(periodicCf.size());
            for (std::size_t j = 0; j < periodicCf.size(); ++j) {
                const Gl y =
                    x.pow((u64)(n / periodicPeriod[j]));
                pvals[j] = detail::evalPoly(periodicCf[j], y);
            }
            std::vector<Gl> tvals(T);
            air.evalTransition(cur.data(), nxt.data(),
                               pvals.data(), tvals.data());
            const Gl ztInv = (x - gLast) *
                             (x.pow((u64)n) - Gl::one()).inverse();
            Gl acc = Gl::zero();
            for (std::size_t j = 0; j < T; ++j) {
                const Gl adj =
                    chal.alpha[j] * x.pow((u64)tAdjust[j]) +
                    chal.beta[j];
                acc += adj * tvals[j] * ztInv;
            }
            for (std::size_t b = 0; b < B; ++b) {
                const auto& bd = boundaries[b];
                const Gl q =
                    (cur[bd.column] - bd.value) *
                    (x - traceDom.element(bd.row)).inverse();
                const Gl adj =
                    chal.alpha[T + b] * x.pow((u64)bAdjust) +
                    chal.beta[T + b];
                acc += adj * q;
            }
            return acc;
        };

        for (const auto& query : proof.queries) {
            const std::size_t p = ch.queryIndex(N / 2);
            const std::size_t pos[4] = {p, (p + blowup) % N,
                                        p + N / 2,
                                        (p + N / 2 + blowup) % N};
            for (std::size_t t = 0; t < 4; ++t) {
                const Digest leaf = hashRow(
                    query.trace[t].row.data(), w);
                if (!MerkleTree::verify(leaf, pos[t],
                                        query.trace[t].path,
                                        proof.traceRoot))
                    return;
            }
            const Gl ca = compositionAt(pos[0], query.trace[0].row,
                                        query.trace[1].row);
            const Gl cb = compositionAt(pos[2], query.trace[2].row,
                                        query.trace[3].row);

            // Layer-0 fold from the derived values.
            const Gl x0 = shift * omega.pow((u64)p);
            Gl v = ((ca + cb) + chal.friBetas[0] * (ca - cb) *
                                    x0.inverse()) *
                   inv2;
            Gl layerShift = shift.squared();
            Gl layerGen = omega.squared();
            std::size_t idx = p;
            std::size_t layerSize = N / 2;
            for (std::size_t k = 1; k < folds; ++k) {
                const std::size_t half = layerSize / 2;
                const std::size_t lp = idx % half;
                const auto& o = query.layers[k - 1];
                const Digest l0 = hashRow(&o.v0, 1);
                const Digest l1 = hashRow(&o.v1, 1);
                const Digest& root = proof.friRoots[k - 1];
                if (!MerkleTree::verify(l0, lp, o.p0, root) ||
                    !MerkleTree::verify(l1, lp + half, o.p1, root))
                    return;
                // The folded value must reappear in this layer.
                if ((idx < half ? o.v0 : o.v1) != v)
                    return;
                const Gl xk =
                    layerShift * layerGen.pow((u64)lp);
                v = ((o.v0 + o.v1) + chal.friBetas[k] *
                                         (o.v0 - o.v1) *
                                         xk.inverse()) *
                    inv2;
                layerShift = layerShift.squared();
                layerGen = layerGen.squared();
                idx = lp;
                layerSize = half;
            }
            // Remainder check on the final layer's coset.
            const Gl y = layerShift * layerGen.pow((u64)idx);
            if (detail::evalPoly(proof.remainder, y) != v)
                return;
        }
        ok = true;
    });
    return ok;
}

} // namespace zkp::stark

#endif // ZKP_STARK_STARK_H
