/**
 * @file
 * StageRunner: executes each of the five pipeline stages in isolation
 * under instrumentation (paper §IV: "We run each stage of the
 * zk-SNARK protocol separately").
 *
 * The runner owns the artifacts flowing between stages (constraint
 * system, keys, witness, proof) and lazily produces prerequisites
 * without instrumentation, so that a measured run of stage k observes
 * only stage k's work. Re-running a stage overwrites its artifact,
 * which is how the harness repeats measurements.
 */

#ifndef ZKP_CORE_PIPELINE_H
#define ZKP_CORE_PIPELINE_H

#include <cassert>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/stage.h"
#include "obs/trace.h"
#include "r1cs/circuits.h"
#include "r1cs/zoo.h"
#include "sim/memtrace.h"
#include "snark/groth16.h"

namespace zkp::core {

/**
 * Runs one zoo circuit's pipeline for one curve at one scale. The
 * default constructor keeps the paper's exponentiation chain, where
 * the scale parameter IS the constraint count (the sweep variable);
 * the zoo constructor measures any catalog entry the same way.
 *
 * @tparam Curve snark::Bn254 or snark::Bls381
 */
template <typename Curve>
class StageRunner
{
  public:
    using Fr = typename Curve::Fr;
    using Scheme = snark::Groth16<Curve>;

    /**
     * @param constraints circuit size (the paper's sweep variable)
     * @param seed deterministic seed for inputs and toxic waste
     */
    explicit StageRunner(std::size_t constraints, u64 seed = 2024)
        : StageRunner(*r1cs::zoo::find<Fr>("exp"), constraints, seed)
    {
    }

    /**
     * @param entry zoo catalog entry (r1cs/zoo.h)
     * @param scale the entry's scale parameter
     * @param seed deterministic seed for inputs and toxic waste
     */
    StageRunner(const r1cs::zoo::Entry<Fr>& entry, std::size_t scale,
                u64 seed = 2024)
        : entry_(&entry), scale_(scale),
          constraints_(entry.predictedConstraints(scale)), seed_(seed)
    {
        // Every process-wide one-time derivation the stages use runs
        // here, outside the measured region, so the first run in a
        // process counts the same as any later one: the fixed-base
        // tables, the field's two-adicity data, the GLV constants and
        // (via one pairing) the Frobenius constants and final
        // exponent.
        Scheme::prewarmTables();
        (void)poly::TwoAdicity<Fr>::get();
        if constexpr (ec::GlvCapable<typename Curve::G1>)
            (void)ec::Glv<typename Curve::G1>::instance();
        (void)Curve::Engine::pairing(Curve::G1::generator(),
                                     Curve::G2::generator());
        Rng rng(seed_);
        w_ = entry_->sample(scale_, rng);
    }

    std::size_t constraints() const { return constraints_; }
    const r1cs::zoo::Entry<Fr>& entry() const { return *entry_; }
    std::size_t scale() const { return scale_; }

    /**
     * Execute stage @p s under instrumentation.
     *
     * @param s stage to measure
     * @param threads worker threads for the stage
     * @param sinks trace sinks (cache models, predictors); empty
     *        disables address/branch tracing
     * @param sample_mask memory-trace sampling (see ScopedTrace)
     */
    StageRun
    run(Stage s, std::size_t threads = 1,
        std::vector<sim::TraceSink*> sinks = {}, sim::u32 sample_mask = 0)
    {
        {
            ZKP_TRACE_SCOPE("prerequisites");
            ensurePrerequisites(s, threads);
        }
        // Simulator counting is on for the measured region only; the
        // prerequisites above run uncounted.
        const sim::CountingScope counting;
        return measureStage(stageName(s), Curve::kName, constraints_,
                            threads, std::move(sinks), sample_mask,
                            [&] { execute(s, threads); });
    }

    /** Last verification verdict (sanity check for the harness). */
    bool lastVerifyOk() const { return verifyOk_; }

    /** The compiled system (available after the compile stage). */
    const r1cs::R1cs<Fr>&
    constraintSystem() const
    {
        assert(cs_.has_value());
        return *cs_;
    }

  private:
    void
    ensurePrerequisites(Stage s, std::size_t threads)
    {
        if (s > Stage::Compile && !cs_.has_value())
            execute(Stage::Compile, threads);
        if (s > Stage::Setup && !keys_.has_value())
            execute(Stage::Setup, threads);
        if (s > Stage::Witness && !z_.has_value())
            execute(Stage::Witness, threads);
        if (s > Stage::Proving && !proof_.has_value())
            execute(Stage::Proving, threads);
    }

    void
    execute(Stage s, std::size_t threads)
    {
        switch (s) {
          case Stage::Compile: {
            // The compile stage covers what circom does: walking the
            // circuit description into gates, then materializing the
            // R1CS and the witness program.
            auto builder = entry_->build(scale_);
            cs_ = builder.compile(threads);
            calc_.emplace(builder.witnessProgram());
            break;
          }
          case Stage::Setup: {
            Rng rng(seed_ + 1);
            keys_ = Scheme::setup(*cs_, rng, threads);
            keysTracked_.set("snark.proving_key",
                             keys_->pk.footprintBytes());
            break;
          }
          case Stage::Witness:
            z_ = calc_->compute(w_.pub, w_.priv, threads);
            break;
          case Stage::Proving: {
            Rng rng(seed_ + 2);
            proof_ = Scheme::prove(keys_->pk, *cs_, *z_, rng, threads);
            break;
          }
          case Stage::Verifying:
            verifyOk_ = Scheme::verify(keys_->vk, w_.pub, *proof_);
            assert(verifyOk_ && "pipeline produced a rejected proof");
            break;
          default:
            break;
        }
    }

    const r1cs::zoo::Entry<Fr>* entry_;
    std::size_t scale_;
    std::size_t constraints_;
    u64 seed_;
    r1cs::zoo::Witness<Fr> w_;
    std::optional<r1cs::R1cs<Fr>> cs_;
    std::optional<r1cs::WitnessCalculator<Fr>> calc_;
    std::optional<typename Scheme::Keypair> keys_;
    /// CRS footprint account ("snark.proving_key"), reconciled
    /// against allocator live bytes in profile_pipeline --mem.
    obs::memprof::TrackedBytes keysTracked_;
    std::optional<std::vector<Fr>> z_;
    std::optional<typename Scheme::Proof> proof_;
    bool verifyOk_ = false;
};

} // namespace zkp::core

#endif // ZKP_CORE_PIPELINE_H
