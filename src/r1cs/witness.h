/**
 * @file
 * The witness stage: a straight-line interpreter over the witness
 * program (the role snarkjs' WASM witness calculator plays).
 *
 * Each instruction decodes a gate record, evaluates one or two sparse
 * linear combinations against the growing assignment vector, and
 * writes one wire. The per-gate dispatch and the scattered wire reads
 * are instrumented — they are what makes the witness stage
 * control-flow intensive (Table V) with the highest LLC MPKI
 * (Table II) in the paper.
 */

#ifndef ZKP_R1CS_WITNESS_H
#define ZKP_R1CS_WITNESS_H

#include <cassert>
#include <vector>

#include "common/parallel.h"
#include "obs/trace.h"
#include "r1cs/circuit.h"

namespace zkp::r1cs {

/** Branch-site ids used by the witness interpreter. */
enum WitnessBranchSite : sim::u32
{
    kBranchGateKind = 16,
    kBranchGateTermLoop = 17,
};

/** Evaluates witness programs into full variable assignments. */
template <typename Fr>
class WitnessCalculator
{
  public:
    explicit WitnessCalculator(WitnessProgram<Fr> program)
        : program_(std::move(program))
    {}

    const WitnessProgram<Fr>& program() const { return program_; }

    /**
     * Compute the full assignment (the paper's witnessFull).
     *
     * @param public_inputs values for z[1..numPublic]
     * @param private_inputs values for the private input wires
     * @param threads worker threads for the embarrassingly parallel
     *        head of the computation; gate evaluation itself is
     *        sequential (true data dependencies), which is exactly
     *        the limited parallelism the paper measures for this
     *        stage
     */
    std::vector<Fr>
    compute(const std::vector<Fr>& public_inputs,
            const std::vector<Fr>& private_inputs,
            std::size_t threads = 1) const
    {
        assert(public_inputs.size() == program_.numPublic);
        assert(private_inputs.size() == program_.numPrivate);

        ZKP_TRACE_SCOPE("witness_eval", "gates",
                        (obs::u64)program_.ops.size());
        std::vector<Fr> z(program_.numVars, Fr::zero());
        sim::countAlloc(z.size() * sizeof(Fr));
        z[0] = Fr::one();

        // Input marshalling parallelizes; per-element cost is tiny.
        const std::size_t npub = public_inputs.size();
        parallelFor(npub + private_inputs.size(), threads,
                    [&](std::size_t, std::size_t b, std::size_t e) {
                        for (std::size_t i = b; i < e; ++i) {
                            sim::count(sim::PrimOp::FieldCopy, Fr::N);
                            z[1 + i] = i < npub
                                           ? public_inputs[i]
                                           : private_inputs[i - npub];
                        }
                    });

        for (const auto& op : program_.ops) {
            sim::count(sim::PrimOp::GateDispatch);
            sim::traceLoad(&op, sizeof(op));
            sim::branchEvent(kBranchGateKind,
                             op.kind == WitnessOp<Fr>::Kind::Mul);
            Fr value;
            switch (op.kind) {
              case WitnessOp<Fr>::Kind::Mul:
                value = op.a.evaluate(z) * op.b.evaluate(z);
                break;
              case WitnessOp<Fr>::Kind::Lin:
                value = op.a.evaluate(z);
                break;
              case WitnessOp<Fr>::Kind::Inv: {
                Fr base = op.a.evaluate(z);
                assert(!base.isZero() &&
                       "witness requires inverse of zero");
                value = base.inverse();
                break;
              }
              case WitnessOp<Fr>::Kind::Bit:
                value = op.a.evaluate(z).toBigInt().bit(op.param)
                            ? Fr::one()
                            : Fr::zero();
                break;
            }
            z[op.out] = value;
            sim::traceStore(&z[op.out], sizeof(Fr));
        }
        return z;
    }

    /** Extract the verifier-visible prefix (the paper's witnessPublic). */
    std::vector<Fr>
    publicSlice(const std::vector<Fr>& full) const
    {
        assert(full.size() == program_.numVars);
        return {full.begin() + 1, full.begin() + 1 + program_.numPublic};
    }

  private:
    WitnessProgram<Fr> program_;
};

} // namespace zkp::r1cs

#endif // ZKP_R1CS_WITNESS_H
