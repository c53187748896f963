/**
 * @file
 * The paper's four analyses (top-down bounds, memory behavior, opcode
 * mix, scaling) applied to every circuit-zoo entry, with the
 * exponentiation chain as the baseline the paper characterized.
 *
 * The original study asks where the Groth16 pipeline stalls and what
 * it executes for ONE circuit family; this bench asks how much of
 * that characterization is a property of the proving system versus
 * the circuit. Each zoo entry runs through the instrumented
 * StageRunner at a modest scale (tables A/B), then through an
 * uninstrumented prove-time sweep at x1/x2/x4 scale (table C).
 *
 * Run: ./build/bench/bench_zoo_analyses [--quick]
 *   --quick   restrict to {exp, poseidon, sha256} (CI-sized)
 *
 * Env: ZKP_SAMPLE_MASK as in the other benches.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/analysis.h"
#include "r1cs/zoo.h"

namespace zkp::bench {
namespace {

/** Analysis scales: smaller than the zoo defaults so the fully
 *  instrumented runs (every access through the cache models) stay in
 *  seconds per circuit. */
struct Plan
{
    const char* name;
    std::size_t scale;
};

std::vector<Plan>
plans(bool quick)
{
    if (quick)
        return {{"exp", 2048}, {"poseidon", 8}, {"sha256", 1}};
    return {{"exp", 2048},   {"mimc", 4},   {"poseidon", 8},
            {"sha256", 1},   {"merkle", 8}, {"range", 64},
            {"schnorr", 1}};
}

/** Tables A+B: instrumented prove-stage characterization plus the
 *  per-stage wall-time split, one row per circuit. */
template <typename Curve>
void
runCharacterization(const std::vector<Plan>& selected)
{
    using Fr = typename Curve::Fr;

    TextTable prove_table;
    prove_table.setHeader({"circuit", "constraints", "prove", "bound",
                           "LLC MPKI", "DRAM MB", "mix C/B/D"});
    TextTable stage_table;
    stage_table.setHeader({"circuit", "compile", "setup", "witness",
                           "prove", "verify"});

    for (const Plan& p : selected) {
        const auto* e = r1cs::zoo::find<Fr>(p.name);
        if (!e)
            continue;
        core::SweepConfig cfg;
        cfg.sizes = {e->predictedConstraints(p.scale)};
        cfg.sampleMask = sampleMask();
        core::StageRunner<Curve> runner(*e, p.scale);

        std::vector<std::string> stage_row = {e->name};
        std::string prove_bound, prove_mpki, prove_dram, prove_mix;
        double prove_seconds = 0;
        for (core::Stage s : core::kAllStages) {
            auto obs = core::observeStage(runner, s, cfg);
            stage_row.push_back(fmtSeconds(obs.run.seconds));
            if (s != core::Stage::Proving)
                continue;
            prove_seconds = obs.run.seconds;
            const auto& i9 = obs.cpus.back();
            auto td = sim::classifyTopDown(
                core::stageEventsFor(obs, i9), *i9.cpu);
            prove_bound = td.boundCategory();
            const double instr =
                (double)obs.run.counters.instructions();
            prove_mpki = fmtF(
                instr > 0 ? i9.llcLoadMisses / (instr / 1000.0) : 0.0,
                3);
            prove_dram = fmtF(i9.dramBytes / (1024.0 * 1024.0), 1);
            auto mix = core::opcodeMixOf(obs.run.counters);
            char buf[48];
            std::snprintf(buf, sizeof(buf), "%.0f/%.0f/%.0f",
                          mix.computePct, mix.controlPct,
                          mix.dataPct);
            prove_mix = buf;
        }
        prove_table.addRow({e->name, std::to_string(cfg.sizes[0]),
                            fmtSeconds(prove_seconds), prove_bound,
                            prove_mpki, prove_dram, prove_mix});
        stage_table.addRow(stage_row);
    }
    printTable(std::string("zoo prove-stage characterization "
                           "(i9 model), ") +
                   Curve::kName,
               prove_table);
    printTable(std::string("zoo per-stage wall time, ") + Curve::kName,
               stage_table);
}

/** Table C: uninstrumented prove-time scaling at x1/x2/x4 scale,
 *  normalized per constraint (the paper's Fig. 6 axis, generalized:
 *  does a constraint cost the same across circuit families?). */
template <typename Curve>
void
runScaling(const std::vector<Plan>& selected)
{
    using Fr = typename Curve::Fr;
    TextTable table;
    table.setHeader({"circuit", "scale", "constraints", "prove",
                     "us/constraint"});
    for (const Plan& p : selected) {
        const auto* e = r1cs::zoo::find<Fr>(p.name);
        if (!e)
            continue;
        for (std::size_t mult : {1, 2, 4}) {
            const std::size_t scale = p.scale * mult;
            core::StageRunner<Curve> runner(*e, scale);
            auto run = runner.run(core::Stage::Proving);
            const double n =
                (double)e->predictedConstraints(scale);
            table.addRow({e->name, std::to_string(scale),
                          std::to_string((std::size_t)n),
                          fmtSeconds(run.seconds),
                          fmtF(run.seconds / n * 1e6, 3)});
        }
    }
    printTable(std::string("zoo prove-time scaling, ") + Curve::kName,
               table);
}

} // namespace
} // namespace zkp::bench

int
main(int argc, char** argv)
{
    using namespace zkp::bench;
    const bool quick = hasFlag(argc, argv, "--quick");
    const auto selected = plans(quick);
    std::printf("bench_zoo_analyses: the paper's four analyses over "
                "the circuit zoo (%s)\n",
                quick ? "--quick subset" : "full catalog");
    runCharacterization<zkp::snark::Bn254>(selected);
    runScaling<zkp::snark::Bn254>(selected);
    return 0;
}
