/**
 * @file
 * Thread-local performance-event counting.
 *
 * This is the library's stand-in for the dynamic instrumentation the
 * paper collects with DynamoRIO and VTune. Every hot primitive in the
 * ff/ec/poly/r1cs layers reports itself through count(); the signature
 * table (sim/signatures.h) expands each primitive into the number of
 * compute, control-flow and data-flow x86-class instructions its inner
 * loop executes, plus its loads, stores and conditional branches. Higher
 * level operations (extension fields, curve ops, pairings, FFTs) are
 * built from counted primitives and therefore need no signatures of
 * their own beyond their loop overhead.
 *
 * Counting is off unless some code that reads the counters holds a
 * CountingScope: StageRunner::run, core::measureStage when the run
 * report is written at exit, bench_paper stark's direct read, and a
 * ScopedTrace with sinks (the cache model stamps accesses with the
 * instruction count). Off, count() costs one relaxed load and one
 * predictable branch, so the provers, the verifiers and the daemon
 * pay nothing for the simulator. The optional memory-address tracing
 * path (see sim/memtrace.h) keeps its own per-thread gate.
 *
 * The same path carries the kernels' event counts (MSM calls and
 * points, batch-affine flushes, NTTs, Miller loops, final
 * exponentiations, fixed-base multiplications): signature-less
 * PrimOps that merge through the pool and diff per stage like every
 * other count, so each stage record reports its own events.
 */

#ifndef ZKP_SIM_COUNTERS_H
#define ZKP_SIM_COUNTERS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <cstddef>

namespace zkp::sim {

using u64 = std::uint64_t;
using u32 = std::uint32_t;

/** Primitive operations instrumented in the kernels. */
enum class PrimOp : unsigned
{
    FieldAdd,      ///< modular addition / subtraction / negation
    FieldMul,      ///< Montgomery CIOS multiplication
    FieldCopy,     ///< field element register/memory move
    GateDispatch,  ///< witness interpreter per-gate decode + dispatch
    SparseEntry,   ///< R1CS sparse row entry visit (index + coeff)
    MemcpyWord,    ///< bulk data movement, per 8 bytes
    Alloc,         ///< dynamic memory allocation
    NttButterfly,  ///< butterfly loop overhead (field ops counted apart)
    MsmWindow,     ///< Pippenger scalar-window extraction + bucket index
    HashAbsorb,    ///< sponge/Merkle bookkeeping per absorbed element
    HashCompress,  ///< one SHA-256 compression (64 rounds + schedule)
    // Kernel events: no signature (signatureFor returns zeros), so
    // they add to prim[] only and never move the instruction mix.
    MsmCall,          ///< one msm() call
    MsmPoint,         ///< input points of msm() calls (n per call)
    BatchFlush,       ///< one batch-affine flush (one shared inversion)
    BatchRescheduled, ///< points a batch-affine flush scheduled again
    NttTransform,     ///< one forward or inverse NTT
    MillerLoop,       ///< one Miller loop
    FinalExp,         ///< one final exponentiation
    FixedBaseMul,     ///< one fixed-base scalar multiplication
    NumOps
};

constexpr std::size_t kNumPrimOps = (std::size_t)PrimOp::NumOps;

/**
 * Static instruction mix of one primitive's inner loop.
 *
 * compute/control/data partition the instruction count (the DynamoRIO
 * opcode classes of the paper's Table V); loads/stores are the memory
 * reference subset of data; branches the conditional subset of control.
 */
struct OpSignature
{
    u32 compute;
    u32 control;
    u32 data;
    u32 loads;
    u32 stores;
    u32 branches;
};

/**
 * Return the signature for @p op at the given limb width.
 *
 * @param op primitive kind
 * @param limbs 64-bit limb count of the field element involved
 *              (4 for BN254, 6 for BLS12-381); ignored by width
 *              independent primitives
 */
constexpr OpSignature
signatureFor(PrimOp op, unsigned limbs)
{
    const u32 n = limbs;
    switch (op) {
      case PrimOp::FieldAdd:
        // n limb adds + compare + conditional subtract, unrolled.
        return {3 * n, 2, 2 * n + 2, n + 2, n, 2};
      case PrimOp::FieldMul:
        // CIOS: n rounds of mulx/adcx/adox plus the reduction round;
        // operand limbs re-read per round, result stored once.
        return {2 * n * n + n, n / 2 + 1, n * n / 2 + 4 * n,
                n * n / 2 + n, n, n / 2};
      case PrimOp::FieldCopy:
        return {0, 0, 2 * n, n, n, 0};
      case PrimOp::GateDispatch:
        // Interpreter gate step: record load, bounds checks, type
        // decode, indirect dispatch, wire-index loads. Sized for a
        // WASM-style interpreter host (the role snarkjs' witness
        // calculator plays); this is what makes the witness stage
        // control-flow intensive (Table V).
        return {30, 70, 60, 30, 10, 50};
      case PrimOp::SparseEntry:
        return {2, 2, 5, 3, 0, 2};
      case PrimOp::MemcpyWord:
        // Vectorized copy: ~1 branch per 4 words, folded out.
        return {1, 0, 3, 1, 1, 0};
      case PrimOp::Alloc:
        // Allocator fast path: freelist checks, size-class branches.
        return {12, 10, 26, 10, 6, 8};
      case PrimOp::NttButterfly:
        // Index arithmetic + twiddle load around the counted field ops.
        return {6, 2, 6, 3, 2, 2};
      case PrimOp::MsmWindow:
        // Scalar slice extraction, bucket index compare + branch.
        return {7, 4, 6, 3, 1, 4};
      case PrimOp::HashAbsorb:
        return {4, 3, 8, 4, 2, 3};
      case PrimOp::HashCompress:
        // SHA-256 compression: 48 schedule words (~11 ALU ops each)
        // plus 64 rounds (~26 ALU ops each) of rotate/xor/add on a
        // register-resident state — pure-compute, zero wide
        // multiplies, which is exactly the opcode-mix contrast the
        // STARK prover exhibits against Montgomery-mul SNARK stages.
        return {2192, 66, 560, 336, 80, 64};
      default:
        return {0, 0, 0, 0, 0, 0};
    }
}

/**
 * Thread-local accumulation of instrumented events.
 *
 * Mirrors what perf/DynamoRIO would report for the calling thread:
 * instruction counts by class, memory references, branches, and the
 * raw primitive counts used by the function-level attribution of the
 * code analysis.
 */
struct Counters
{
    u64 compute = 0;
    u64 control = 0;
    u64 data = 0;
    u64 loads = 0;
    u64 stores = 0;
    u64 branches = 0;
    /// Raw count per primitive, indexed by PrimOp.
    std::array<u64, kNumPrimOps> prim{};
    /// Wide-multiply (imul-class) instructions, a subset of compute;
    /// drives the multiplier-port pressure term of the top-down model.
    u64 imuls = 0;
    /// Bytes requested through instrumented allocations.
    u64 allocBytes = 0;
    /// Bytes moved through instrumented bulk copies.
    u64 memcpyBytes = 0;

    /** Total instruction count across classes. */
    u64 instructions() const { return compute + control + data; }

    /** Zero all counters. */
    void
    reset()
    {
        *this = Counters();
    }

    /** Accumulate another counter set (used to merge worker threads). */
    void
    merge(const Counters& o)
    {
        compute += o.compute;
        control += o.control;
        data += o.data;
        loads += o.loads;
        stores += o.stores;
        branches += o.branches;
        for (std::size_t i = 0; i < kNumPrimOps; ++i)
            prim[i] += o.prim[i];
        imuls += o.imuls;
        allocBytes += o.allocBytes;
        memcpyBytes += o.memcpyBytes;
    }

    /** Difference of two snapshots (this - before): one stage's counts. */
    Counters
    operator-(const Counters& before) const
    {
        Counters d;
        d.compute = compute - before.compute;
        d.control = control - before.control;
        d.data = data - before.data;
        d.loads = loads - before.loads;
        d.stores = stores - before.stores;
        d.branches = branches - before.branches;
        for (std::size_t i = 0; i < kNumPrimOps; ++i)
            d.prim[i] = prim[i] - before.prim[i];
        d.imuls = imuls - before.imuls;
        d.allocBytes = allocBytes - before.allocBytes;
        d.memcpyBytes = memcpyBytes - before.memcpyBytes;
        return d;
    }
};

/**
 * The calling thread's counters. A parallelFor region adds its pool
 * workers' counts here before it returns (common/thread_pool.h), so a
 * caller's counters cover the regions it opened at any thread count.
 */
Counters& counters();

namespace detail {

/// Number of live CountingScopes, process-wide.
inline std::atomic<int> gCountingScopes{0};

} // namespace detail

/** True while at least one CountingScope is alive in the process. */
inline bool
countingEnabled()
{
    return detail::gCountingScopes.load(std::memory_order_relaxed) != 0;
}

/**
 * RAII switch that turns counting on for the whole process (every
 * thread, pool workers included) while it lives. Scopes nest and may
 * overlap across threads: counting stays on until the last one ends.
 * Hold one around any region whose counters something reads; the
 * workers of a region opened under it count for the region's caller.
 */
class CountingScope
{
  public:
    CountingScope() { detail::gCountingScopes.fetch_add(1); }
    ~CountingScope() { detail::gCountingScopes.fetch_sub(1); }

    CountingScope(const CountingScope&) = delete;
    CountingScope& operator=(const CountingScope&) = delete;
};

/**
 * Record @p repeat executions of primitive @p op at limb width
 * @p limbs on the calling thread. A no-op unless counting is enabled.
 */
inline void
count(PrimOp op, unsigned limbs = 4, u64 repeat = 1)
{
    if (!countingEnabled()) [[likely]]
        return;
    const OpSignature sig = signatureFor(op, limbs);
    Counters& c = counters();
    c.compute += sig.compute * repeat;
    c.control += sig.control * repeat;
    c.data += sig.data * repeat;
    c.loads += sig.loads * repeat;
    c.stores += sig.stores * repeat;
    c.branches += sig.branches * repeat;
    if (op == PrimOp::FieldMul)
        c.imuls += (u64)(limbs * limbs + limbs) * repeat;
    c.prim[(std::size_t)op] += repeat;
}

/** Record an instrumented allocation of @p bytes. */
inline void
countAlloc(u64 bytes)
{
    if (!countingEnabled()) [[likely]]
        return;
    count(PrimOp::Alloc);
    counters().allocBytes += bytes;
}

/** Record an instrumented bulk copy of @p bytes. */
inline void
countMemcpy(u64 bytes)
{
    if (!countingEnabled()) [[likely]]
        return;
    count(PrimOp::MemcpyWord, 4, (bytes + 7) / 8);
    counters().memcpyBytes += bytes;
}

} // namespace zkp::sim

#endif // ZKP_SIM_COUNTERS_H
