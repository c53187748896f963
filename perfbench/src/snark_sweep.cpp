/**
 * @file
 * snark-sweep: the paper's exponentiation circuit through the five
 * pipeline stages (compile, setup, witness, proving, verifying), driven
 * through the public API the way core::StageRunner drives it, but with
 * the keys and proofs in hand so every output can be checked:
 *
 *   Groth16 / BN254     at 2^12, 2^14, 2^16 constraints
 *   Groth16 / BLS12-381 at 2^14
 *   PlonK   / BN254     at 2^12 gates
 *
 * (PlonK at 2^14 is left out: its set-up takes ~40 s and each prove
 * ~13 s on a 4-core host, more than a run's whole budget.)
 *
 * Set-up (compile + key generation, plus the one-time fixed-base
 * table prewarm) is timed apart from the measured window, repeated
 * --setup-reps times. The measured window proves the configurations in
 * turn, the 2^16 headline in every other slot, until --seconds have
 * passed; each proof is verified and one seeded byte flip of it must be
 * rejected.
 */

#include <optional>

#include "record.h"
#include "r1cs/zoo.h"
#include "snark/groth16.h"
#include "snark/plonk.h"
#include "snark/serialize.h"

namespace zkbench {
namespace {

using namespace zkp;

/** Fixed serialized proof sizes (compressed points, 32/48-byte
 *  scalars); a change here is a wire-format change. */
constexpr std::size_t kGroth16Bn254Bytes = 131;
constexpr std::size_t kGroth16Bls381Bytes = 195;
constexpr std::size_t kPlonkBn254Bytes = 679;

/** One sweep configuration: what the stages hand each other. */
class Case
{
  public:
    virtual ~Case() = default;
    Case() = default;
    Case(const Case&) = delete;
    Case& operator=(const Case&) = delete;

    std::string label;     ///< "groth16.bn254.2e16"
    std::size_t rows = 0;  ///< constraints (Groth16) or gates (PlonK)
    std::size_t fixedBytes = 0;

    /** compile + key generation; seconds. */
    virtual double setup(std::size_t threads, u64 seed) = 0;
    /** Sample a statement and compute the witness. */
    virtual void witness(std::size_t threads, u64 seed) = 0;
    /** Prove the current witness; seconds. */
    virtual double prove(std::size_t threads, u64 seed) = 0;
    virtual bool verify() const = 0;
    virtual std::vector<std::uint8_t> proofBytes() const = 0;
    /** Deserialize @p bytes; false when the parser rejects them. */
    virtual bool parses(const std::vector<std::uint8_t>& bytes) const = 0;
    /** Deserialize and verify @p bytes. */
    virtual bool verifyBytes(
        const std::vector<std::uint8_t>& bytes) const = 0;
};

template <typename Curve>
class Groth16Case final : public Case
{
    using Fr = typename Curve::Fr;
    using G = snark::Groth16<Curve>;

  public:
    double
    setup(std::size_t threads, u64 seed) override
    {
        const double t0 = now();
        {
            ZKP_TRACE_SCOPE("bench.compile", "n", (obs::u64)rows);
            auto builder = r1cs::zoo::find<Fr>("exp")->build(rows);
            cs_ = builder.compile(threads);
            calc_.emplace(builder.witnessProgram());
        }
        {
            ZKP_TRACE_SCOPE("bench.groth16.setup", "n", (obs::u64)rows);
            Rng rng(seed);
            keys_ = G::setup(*cs_, rng, threads);
        }
        return now() - t0;
    }

    void
    witness(std::size_t threads, u64 seed) override
    {
        ZKP_TRACE_SCOPE("bench.witness", "n", (obs::u64)rows);
        Rng rng(seed);
        w_ = r1cs::zoo::find<Fr>("exp")->sample(rows, rng);
        z_ = calc_->compute(w_.pub, w_.priv, threads);
    }

    double
    prove(std::size_t threads, u64 seed) override
    {
        ZKP_TRACE_SCOPE("bench.groth16.prove", "n", (obs::u64)rows);
        Rng rng(seed);
        const double t0 = now();
        proof_ = G::prove(keys_->pk, *cs_, z_, rng, threads);
        return now() - t0;
    }

    bool
    verify() const override
    {
        ZKP_TRACE_SCOPE("bench.groth16.verify", "n", (obs::u64)rows);
        return G::verify(keys_->vk, w_.pub, *proof_);
    }

    std::vector<std::uint8_t>
    proofBytes() const override
    {
        return snark::serializeProof<Curve>(*proof_);
    }

    bool
    parses(const std::vector<std::uint8_t>& bytes) const override
    {
        return snark::deserializeProof<Curve>(bytes).has_value();
    }

    bool
    verifyBytes(const std::vector<std::uint8_t>& bytes) const override
    {
        ZKP_TRACE_SCOPE("bench.groth16.reject", "n", (obs::u64)rows);
        const auto p = snark::deserializeProof<Curve>(bytes);
        return p && G::verify(keys_->vk, w_.pub, *p);
    }

  private:
    std::optional<r1cs::R1cs<Fr>> cs_;
    std::optional<r1cs::WitnessCalculator<Fr>> calc_;
    std::optional<typename G::Keypair> keys_;
    r1cs::zoo::Witness<Fr> w_;
    std::vector<Fr> z_;
    std::optional<typename G::Proof> proof_;
};

class PlonkCase final : public Case
{
    using Curve = snark::Bn254;
    using Fr = Curve::Fr;
    using P = snark::Plonk<Curve>;

  public:
    double
    setup(std::size_t threads, u64 seed) override
    {
        const double t0 = now();
        {
            ZKP_TRACE_SCOPE("bench.compile", "n", (obs::u64)rows);
            circ_.emplace(rows);
        }
        {
            ZKP_TRACE_SCOPE("bench.plonk.setup", "n", (obs::u64)rows);
            Rng rng(seed);
            keys_ = P::setup(circ_->builder, rng, threads);
        }
        return now() - t0;
    }

    void
    witness(std::size_t, u64 seed) override
    {
        ZKP_TRACE_SCOPE("bench.witness", "n", (obs::u64)rows);
        Rng rng(seed);
        const Fr x = Fr::random(rng);
        values_ = circ_->assign(x);
        pub_ = {x.pow(BigInt<1>((u64)rows))};
    }

    double
    prove(std::size_t threads, u64 seed) override
    {
        ZKP_TRACE_SCOPE("bench.plonk.prove", "n", (obs::u64)rows);
        Rng rng(seed);
        const double t0 = now();
        proof_ = P::prove(keys_->pk, values_, pub_, rng, threads);
        return now() - t0;
    }

    bool
    verify() const override
    {
        ZKP_TRACE_SCOPE("bench.plonk.verify", "n", (obs::u64)rows);
        return P::verify(keys_->vk, pub_, *proof_);
    }

    std::vector<std::uint8_t>
    proofBytes() const override
    {
        return snark::serializePlonkProof<Curve>(*proof_);
    }

    bool
    parses(const std::vector<std::uint8_t>& bytes) const override
    {
        return snark::deserializePlonkProof<Curve>(bytes).has_value();
    }

    bool
    verifyBytes(const std::vector<std::uint8_t>& bytes) const override
    {
        ZKP_TRACE_SCOPE("bench.plonk.reject", "n", (obs::u64)rows);
        const auto p = snark::deserializePlonkProof<Curve>(bytes);
        return p && P::verify(keys_->vk, pub_, *p);
    }

  private:
    std::optional<snark::PlonkExponentiation<Fr>> circ_;
    std::optional<P::Keypair> keys_;
    std::vector<Fr> values_, pub_;
    std::optional<P::Proof> proof_;
};

template <typename C>
std::unique_ptr<Case>
makeCase(const char* label, unsigned log2, std::size_t fixed_bytes)
{
    auto c = std::make_unique<C>();
    c->label = label;
    c->rows = std::size_t(1) << log2;
    c->fixedBytes = fixed_bytes;
    return c;
}

/**
 * Time deserialize + verify of seeded byte flips of @p c's proof that
 * still parse (the full verifier path); flips the parser rejects are
 * counted as rejections but not timed. Every flip must be rejected.
 */
void
timeRejects(const Case& c, std::size_t count, u64& rs, Record& rec,
            const std::string& series)
{
    const std::vector<std::uint8_t> honest = c.proofBytes();
    std::size_t timed = 0;
    for (std::size_t tries = 0; timed < count && tries < 64 * count;
         ++tries) {
        const auto bad = flipByte(honest, rs);
        const double t0 = now();
        const bool accepted = c.verifyBytes(bad);
        const double dt = now() - t0;
        rec.check(!accepted, c.label + ": mutated proof accepted");
        if (c.parses(bad)) {
            rec.sample(series, dt * 1e3);
            ++timed;
        }
    }
}

} // namespace

int
runSnarkSweep(const Options& opt, Record& rec)
{
    using snark::Bls381;
    using snark::Bn254;
    std::vector<std::unique_ptr<Case>> cases;
    cases.push_back(makeCase<Groth16Case<Bn254>>("groth16.bn254.2e12", 12,
                                                 kGroth16Bn254Bytes));
    cases.push_back(makeCase<Groth16Case<Bn254>>("groth16.bn254.2e14", 14,
                                                 kGroth16Bn254Bytes));
    cases.push_back(makeCase<Groth16Case<Bn254>>("groth16.bn254.2e16", 16,
                                                 kGroth16Bn254Bytes));
    cases.push_back(makeCase<Groth16Case<Bls381>>(
        "groth16.bls381.2e14", 14, kGroth16Bls381Bytes));
    cases.push_back(
        makeCase<PlonkCase>("plonk.bn254.2e12", 12, kPlonkBn254Bytes));
    const Case& headline = *cases[2];
    const std::size_t T = opt.threads;
    u64 rs = opt.seed;

    // --- set-up: prewarm once, then compile + keygen per repeat -----
    {
        const double t0 = now();
        {
            ZKP_TRACE_SCOPE("bench.prewarm");
            snark::Groth16<Bn254>::prewarmTables();
            snark::Groth16<Bls381>::prewarmTables();
        }
        rec.value("setup.prewarm_s", now() - t0);
    }
    const std::size_t reps = opt.setupReps;
    for (std::size_t r = 0; r < reps; ++r) {
        double total = 0;
        for (auto& c : cases) {
            const double s = c->setup(T, opt.seed + 100 * r + c->rows);
            rec.sample("setup." + c->label, s);
            total += s;
        }
        rec.sample("setup.sweep_s", total);
    }
    for (auto& c : cases) {
        const double t0 = now();
        c->witness(T, nextRand(rs));
        rec.sample("witness." + c->label, now() - t0);
    }

    // --- measured window --------------------------------------------
    // The headline runs in every other slot, so its samples spread over
    // the whole window: a slow spell of the host then hits a minority
    // of them.
    std::vector<Case*> schedule;
    for (auto& c : cases) {
        if (c.get() == &headline)
            continue;
        schedule.push_back(cases[2].get());
        schedule.push_back(c.get());
    }
    const double deadline = now() + opt.seconds;
    std::size_t slot = 0;
    for (;; ++slot) {
        // A traced run alternates untraced and traced slot pairs, so
        // its span overhead can be read off the same process.
        if (opt.trace)
            rec.setTracing(slot / 2 % 2 == 1);
        Case& c = *schedule[slot % schedule.size()];
        rec.sample("prove." + c.label, c.prove(T, nextRand(rs)));
        // The host-speed probe after every prove: run.py scales prove
        // times by its median.
        rec.sample("probe_s", hostSpeedProbe(T));
        rec.check(c.verify(), c.label + ": honest proof rejected");
        const auto bytes = c.proofBytes();
        rec.check(bytes.size() == c.fixedBytes,
                  c.label + ": proof is " + std::to_string(bytes.size()) +
                      " bytes, not " + std::to_string(c.fixedBytes));
        rec.check(!c.verifyBytes(flipByte(bytes, rs)),
                  c.label + ": byte-flipped proof accepted");
        // Headline verify and reject samples after every slot (slot 0
        // is the headline, so its proof exists).
        const double t0 = now();
        const bool ok = headline.verify();
        rec.sample("verify_ms", (now() - t0) * 1e3);
        rec.check(ok, headline.label + ": honest proof rejected");
        timeRejects(headline, 1, rs, rec, "reject_ms");
        // Every configuration is proved at least once.
        if (slot + 1 >= schedule.size() && now() >= deadline)
            break;
    }
    if (opt.trace)
        rec.setTracing(true);
    rec.value("proves", (double)(slot + 1));
    for (const auto& c : cases) {
        rec.value("rows." + c->label, (double)c->rows);
        rec.value("proof_bytes." + c->label,
                  (double)c->proofBytes().size());
    }
    rec.note("headline", headline.label);
    return 0;
}

} // namespace zkbench
