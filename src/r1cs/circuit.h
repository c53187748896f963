/**
 * @file
 * Arithmetic-circuit builder (the paper's compile-stage front end).
 *
 * Mirrors the circom programming model: circuit code manipulates
 * linear combinations; only multiplication gates allocate fresh R1CS
 * variables and constraints (additions fold into the combinations for
 * free). Building a circuit records both the constraint list and a
 * witness program — the straight-line gate list the witness stage
 * interprets, playing the role of snarkjs' WASM witness calculator.
 *
 * compile() materializes the R1cs with the canonicalization and
 * copying work that makes the paper's compile stage allocation- and
 * data-movement heavy.
 */

#ifndef ZKP_R1CS_CIRCUIT_H
#define ZKP_R1CS_CIRCUIT_H

#include <cassert>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "obs/trace.h"
#include "r1cs/r1cs.h"

namespace zkp::r1cs {

/** One witness-program instruction: out = eval(a) op eval(b). */
template <typename Fr>
struct WitnessOp
{
    enum class Kind : std::uint8_t
    {
        Mul, ///< out = <a,z> * <b,z>
        Lin, ///< out = <a,z>         (b unused)
        Inv, ///< out = <a,z>^-1      (b unused; asserts non-zero)
        Bit, ///< out = bit 'param' of the canonical form of <a,z>
    };

    Kind kind;
    VarIndex out;
    LinearCombination<Fr> a, b;
    std::uint32_t param = 0;
};

/** The interpretable witness program for one circuit. */
template <typename Fr>
struct WitnessProgram
{
    VarIndex numVars = 1;
    VarIndex numPublic = 0;
    VarIndex numPrivate = 0;
    std::vector<WitnessOp<Fr>> ops;
};

/**
 * Records a circuit as it is being described and emits the compiled
 * constraint system plus the witness program.
 */
template <typename Fr>
class CircuitBuilder
{
  public:
    using LC = LinearCombination<Fr>;

    CircuitBuilder() = default;

    /** LC for the constant-one variable scaled by @p c. */
    LC
    constant(const Fr& c) const
    {
        return LC(0, c);
    }

    /**
     * Allocate a public input variable.
     *
     * @pre all public inputs are declared before any private input or
     *      gate (keeps z ordered as [1 | public | private | internal])
     */
    LC
    publicInput()
    {
        assert(numPrivate_ == 0 && nextVar_ == 1 + numPublic_ &&
               "public inputs must be declared first");
        ++numPublic_;
        return LC(nextVar_++, Fr::one());
    }

    /** Allocate a private input variable. */
    LC
    privateInput()
    {
        assert(nextVar_ == 1 + numPublic_ + numPrivate_ &&
               "private inputs must precede gates");
        ++numPrivate_;
        return LC(nextVar_++, Fr::one());
    }

    /** Product gate: allocates a wire w with constraint a * b = w. */
    LC
    mul(const LC& a, const LC& b)
    {
        VarIndex w = nextVar_++;
        constraints_.push_back({a, b, LC(w, Fr::one())});
        ops_.push_back({WitnessOp<Fr>::Kind::Mul, w, a, b});
        recordGate(constraints_.back());
        return LC(w, Fr::one());
    }

    /**
     * Inverse gate: allocates w with constraint a * w = 1 (which also
     * enforces a != 0).
     */
    LC
    inverse(const LC& a)
    {
        VarIndex w = nextVar_++;
        constraints_.push_back({a, LC(w, Fr::one()), constant(Fr::one())});
        ops_.push_back({WitnessOp<Fr>::Kind::Inv, w, a, LC()});
        recordGate(constraints_.back());
        return LC(w, Fr::one());
    }

    /**
     * Bit-extraction hint wire: w = bit @p i of <a,z> (canonical
     * form), constrained to be boolean. The caller is responsible for
     * binding the bits back to the value (see gadgets::bitDecompose).
     */
    LC
    bitOf(const LC& a, unsigned i)
    {
        VarIndex w = nextVar_++;
        LC wire(w, Fr::one());
        ops_.push_back({WitnessOp<Fr>::Kind::Bit, w, a, LC(), i});
        assertBoolean(wire);
        return wire;
    }

    /** Materialize an LC into its own wire (rarely needed). */
    LC
    materialize(const LC& a)
    {
        VarIndex w = nextVar_++;
        constraints_.push_back({a, constant(Fr::one()), LC(w, Fr::one())});
        ops_.push_back({WitnessOp<Fr>::Kind::Lin, w, a, LC()});
        recordGate(constraints_.back());
        return LC(w, Fr::one());
    }

    /** Constraint a * b = c without allocating a wire. */
    void
    assertMul(const LC& a, const LC& b, const LC& c)
    {
        constraints_.push_back({a, b, c});
        recordGate(constraints_.back());
    }

    /** Constraint a = b. */
    void
    assertEqual(const LC& a, const LC& b)
    {
        constraints_.push_back({a, constant(Fr::one()), b});
        recordGate(constraints_.back());
    }

    /** Boolean constraint a * (1 - a) = 0. */
    void
    assertBoolean(const LC& a)
    {
        assertMul(a, constant(Fr::one()) - a, LC());
    }

    VarIndex numVars() const { return nextVar_; }
    VarIndex numPublic() const { return numPublic_; }
    VarIndex numPrivate() const { return numPrivate_; }
    std::size_t numConstraints() const { return constraints_.size(); }

    /**
     * The compile stage: canonicalize every row and materialize the
     * R1cs. The copies and allocations are instrumented — this is
     * the data-flow-intensive stage of the paper's Table V.
     */
    R1cs<Fr>
    compile(std::size_t threads = 1) const
    {
        ZKP_TRACE_SCOPE("r1cs_compile", "constraints",
                        (obs::u64)constraints_.size());
        std::vector<Constraint<Fr>> rows(constraints_.size());
        sim::countAlloc(constraints_.size() * sizeof(Constraint<Fr>));
        parallelFor(constraints_.size(), threads,
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t j = lo; j < hi; ++j) {
                const auto& cst = constraints_[j];
                sim::traceLoad(&cst, sizeof(cst));
                Constraint<Fr> row = cst; // deep copy of the LCs
                const std::size_t bytes =
                    (row.a.terms.size() + row.b.terms.size() +
                     row.c.terms.size()) *
                    (sizeof(VarIndex) + sizeof(Fr));
                sim::countAlloc(bytes);
                sim::countMemcpy(bytes);
                for (const auto& t : cst.a.terms)
                    sim::traceLoad(&t, sizeof(t));
                for (const auto& t : cst.b.terms)
                    sim::traceLoad(&t, sizeof(t));
                for (const auto& t : cst.c.terms)
                    sim::traceLoad(&t, sizeof(t));
                row.a.normalize();
                row.b.normalize();
                row.c.normalize();
                sim::count(sim::PrimOp::SparseEntry, Fr::N,
                           row.a.terms.size() + row.b.terms.size() +
                               row.c.terms.size());
                rows[j] = std::move(row);
                sim::traceStore(&rows[j], sizeof(Constraint<Fr>));
            }
        });
        return R1cs<Fr>(nextVar_, numPublic_, std::move(rows));
    }

    /** The witness program consumed by the witness stage. */
    WitnessProgram<Fr>
    witnessProgram() const
    {
        WitnessProgram<Fr> p;
        p.numVars = nextVar_;
        p.numPublic = numPublic_;
        p.numPrivate = numPrivate_;
        p.ops = ops_;
        return p;
    }

  private:
    /**
     * Account the front-end work of recording one gate: in circom
     * this is parsing + AST + semantic analysis per statement, here
     * the recording itself — allocation of the constraint and its
     * linear combinations plus per-term processing.
     */
    void
    recordGate(const Constraint<Fr>& cst)
    {
        const std::size_t terms = cst.a.terms.size() +
                                  cst.b.terms.size() +
                                  cst.c.terms.size();
        sim::countAlloc(sizeof(Constraint<Fr>) +
                        terms * (sizeof(VarIndex) + sizeof(Fr)));
        sim::count(sim::PrimOp::SparseEntry, Fr::N, terms);
        sim::traceStore(&cst, sizeof(cst));
    }

    VarIndex nextVar_ = 1; // var 0 is the constant one
    VarIndex numPublic_ = 0;
    VarIndex numPrivate_ = 0;
    std::vector<Constraint<Fr>> constraints_;
    std::vector<WitnessOp<Fr>> ops_;
};

} // namespace zkp::r1cs

#endif // ZKP_R1CS_CIRCUIT_H
