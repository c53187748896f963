/**
 * @file
 * E12 — zk-harness-style multi-circuit benchmark, driven by the
 * circuit-zoo catalog (src/r1cs/zoo.h). The paper builds on zk-Bench
 * [19] and zk-harness [60], which compare proving systems across
 * circuit families; this bench runs the full pipeline over every zoo
 * entry — exponentiation, MiMC, Poseidon, SHA-256, Merkle, range,
 * Schnorr — under both Groth16 and PlonK (through the generic
 * R1CS->PlonK lowering) on both curves.
 *
 * Modes:
 *   (default)       full sweep at each entry's default scale
 *   --list          print the catalog (name, family, scale meaning,
 *                   default scale, constraint model) and exit
 *   --smoke         name the field-multiply tier, then a tiny-scale
 *                   Groth16 prove/verify of every entry on bn254;
 *                   exits nonzero on any failure (CI gate)
 *   --full          also run PlonK for entries whose lowering exceeds
 *                   the default gate budget (SHA-256: ~114k gates and
 *                   a ~520k-point SRS — minutes of single-core work)
 *
 * Env knobs: ZKP_BENCH_THREADS sets the worker count (default 1,
 * matching the paper's single-thread runs).
 */

#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "ff/dispatch.h"
#include "r1cs/witness.h"
#include "r1cs/zoo.h"
#include "snark/groth16.h"
#include "snark/plonk.h"
#include "snark/plonk_from_r1cs.h"

namespace zkp::bench {
namespace {

/** PlonK runs above this many lowered gates only under --full. */
constexpr std::size_t kPlonkGateBudget = 1 << 16;

struct ZooTimes
{
    std::size_t constraints = 0;
    std::size_t gates = 0; // lowered PlonK gate count
    double compile = 0, g16_setup = 0, witness = 0, g16_prove = 0,
           g16_verify = 0;
    double pl_setup = 0, pl_prove = 0, pl_verify = 0;
    bool g16_ok = false;
    bool pl_ok = false;
    bool pl_ran = false;
};

template <typename Curve>
ZooTimes
runEntry(const r1cs::zoo::Entry<typename Curve::Fr>& e,
         std::size_t scale, std::size_t threads,
         std::size_t plonk_gate_budget)
{
    using Fr = typename Curve::Fr;
    ZooTimes out;
    Rng rng(0x7a6f6f42u);

    Timer t;
    auto builder = e.build(scale);
    auto cs = builder.compile(threads);
    out.compile = t.seconds();
    out.constraints = cs.numConstraints();

    r1cs::WitnessCalculator<Fr> calc(builder.witnessProgram());
    auto w = e.sample(scale, rng);

    t.reset();
    auto keys = snark::Groth16<Curve>::setup(cs, rng, threads);
    out.g16_setup = t.lap();
    auto z = calc.compute(w.pub, w.priv, threads);
    out.witness = t.lap();
    auto proof =
        snark::Groth16<Curve>::prove(keys.pk, cs, z, rng, threads);
    out.g16_prove = t.lap();
    out.g16_ok = snark::Groth16<Curve>::verify(keys.vk, w.pub, proof);
    out.g16_verify = t.seconds();

    snark::PlonkFromR1cs<Fr> lowered(cs);
    out.gates = lowered.builder.numGates();
    if (out.gates > plonk_gate_budget)
        return out;
    out.pl_ran = true;
    t.reset();
    auto pkeys = snark::Plonk<Curve>::setup(lowered.builder, rng,
                                            threads);
    out.pl_setup = t.lap();
    auto values = lowered.assign(z);
    auto pproof = snark::Plonk<Curve>::prove(pkeys.pk, values, w.pub,
                                             rng, threads);
    out.pl_prove = t.lap();
    out.pl_ok = snark::Plonk<Curve>::verify(pkeys.vk, w.pub, pproof);
    out.pl_verify = t.seconds();
    return out;
}

template <typename Curve>
void
runCurve(bool full, std::size_t threads)
{
    using Fr = typename Curve::Fr;
    TextTable table;
    table.setHeader({"circuit", "scale", "r1cs", "gates", "compile",
                     "g16 setup", "witness", "g16 prove", "g16 verify",
                     "plonk setup", "plonk prove", "plonk verify",
                     "ok"});
    const std::size_t budget =
        full ? ~std::size_t(0) : kPlonkGateBudget;
    for (const auto& e : r1cs::zoo::all<Fr>()) {
        auto r = runEntry<Curve>(e, e.defaultScale, threads, budget);
        const bool ok = r.g16_ok && (!r.pl_ran || r.pl_ok);
        table.addRow(
            {e.name, std::to_string(e.defaultScale),
             std::to_string(r.constraints), std::to_string(r.gates),
             fmtSeconds(r.compile), fmtSeconds(r.g16_setup),
             fmtSeconds(r.witness), fmtSeconds(r.g16_prove),
             fmtSeconds(r.g16_verify),
             r.pl_ran ? fmtSeconds(r.pl_setup) : "--full",
             r.pl_ran ? fmtSeconds(r.pl_prove) : "--full",
             r.pl_ran ? fmtSeconds(r.pl_verify) : "--full",
             ok ? "yes" : "NO"});
    }
    printTable(std::string("circuit zoo pipeline times, ") +
                   Curve::kName,
               table);
}

void
listCatalog()
{
    using Fr = snark::Bn254::Fr;
    TextTable table;
    table.setHeader({"name", "family", "scale meaning", "default",
                     "constraints@default", "description"});
    for (const auto& e : r1cs::zoo::all<Fr>())
        table.addRow({e.name, e.family, e.scaleMeaning,
                      std::to_string(e.defaultScale),
                      std::to_string(
                          e.predictedConstraints(e.defaultScale)),
                      e.description});
    printTable("circuit zoo catalog", table);
}

/** Tiny-scale Groth16 prove/verify of every entry; CI smoke gate. */
int
smoke()
{
    using Curve = snark::Bn254;
    using Fr = Curve::Fr;
    std::printf("bench_circuits --smoke: mul: %s\n", ff::mulImplName());
    int failures = 0;
    for (const auto& e : r1cs::zoo::all<Fr>()) {
        const std::size_t scale =
            e.name == "exp" ? 64 : (e.name == "range" ? 16 : 1);
        auto r = runEntry<Curve>(e, scale, 1, 0);
        std::printf("smoke %-10s scale=%-3zu r1cs=%-6zu %s\n",
                    e.name.c_str(), scale, r.constraints,
                    r.g16_ok ? "ok" : "FAIL");
        if (!r.g16_ok)
            ++failures;
    }
    return failures == 0 ? 0 : 1;
}

} // namespace
} // namespace zkp::bench

int
main(int argc, char** argv)
{
    using namespace zkp::bench;
    if (hasFlag(argc, argv, "--list")) {
        listCatalog();
        return 0;
    }
    if (hasFlag(argc, argv, "--smoke"))
        return smoke();
    const bool full = hasFlag(argc, argv, "--full");
    const auto threads = (std::size_t)envLong("ZKP_BENCH_THREADS", 1);
    std::printf("bench_circuits: zoo sweep under Groth16 and PlonK "
                "(--list / --smoke / --full)\n");
    runCurve<zkp::snark::Bn254>(full, threads);
    runCurve<zkp::snark::Bls381>(full, threads);
    return 0;
}
