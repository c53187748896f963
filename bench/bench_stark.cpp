/**
 * @file
 * E14 — transparent STARK backend characterization.
 *
 * --mix reruns the opcode-mix and MPKI analyses on the STARK prover
 * and prints them next to the Groth16 proving stage measured the same
 * way: the STARK prover is hash-compression dominated (wide multiplies
 * near zero per kilo-instruction, PrimOp::HashCompress the top
 * primitive) where the SNARK prover is Montgomery-multiply dominated —
 * the microarchitectural contrast EXPERIMENTS.md §E14 documents.
 *
 * --smoke prints the SHA-256 kernel in use ("sha256: sha_ni" or
 * "sha256: scalar"), then proves and verifies one small instance per
 * AIR and exits nonzero on any failure (the CI stark-smoke step).
 *
 * STARK prove/verify timings and proof sizes are perfbench's
 * stark-sweep workload (perfbench/README.md).
 *
 * Run: ./build/bench/bench_stark --smoke | --mix
 * Env: ZKP_MAX_LOG_N (--mix trace length), ZKP_SAMPLE_MASK (--mix
 *      cache-trace sampling)
 */

#include <memory>

#include "bench_util.h"
#include "core/analysis.h"
#include "stark/air.h"
#include "stark/serialize.h"
#include "stark/stark.h"

namespace zkp::bench {
namespace {

using stark::Gl;

stark::StarkParams
benchParams()
{
    return {}; // production defaults: blowup 8, 30 queries, 12 grind
}

std::unique_ptr<stark::Air>
makeAir(const std::string& name, std::size_t steps)
{
    if (name == "fib")
        return std::make_unique<stark::FibonacciAir>(
            steps, Gl::fromU64(1), Gl::fromU64(1));
    return std::make_unique<stark::MimcAir>(steps, Gl::fromU64(7));
}

int
runSmoke()
{
    std::printf("bench_stark --smoke: sha256: %s\n", stark::shaImplName());
    for (const char* name : {"fib", "mimc"}) {
        const auto air = makeAir(name, 64);
        const auto params = benchParams();
        const stark::StarkProof proof = stark::prove(*air, params, 2);
        const auto bytes = stark::serializeProof(proof);
        const auto back = stark::deserializeProof(bytes);
        if (!back || !stark::verify(*air, params, *back)) {
            std::printf("bench_stark --smoke: %s FAILED\n", name);
            return 1;
        }
        std::printf("bench_stark --smoke: %s ok (%zu proof bytes)\n",
                    name, bytes.size());
    }
    return 0;
}

/** Counter-and-cache observation of one full STARK prove. */
struct StarkObservation
{
    sim::Counters counters;
    std::vector<core::CpuObservation> cpus;
};

StarkObservation
observeStarkProve(const stark::Air& air, const core::SweepConfig& cfg)
{
    const core::CpuSinks cpus(cfg);
    const sim::CountingScope counting;
    sim::drainWorkerCounters();
    const sim::Counters before = sim::counters();
    (void)stark::prove(air, benchParams(), cfg.threads, cpus.sinks(),
                       cfg.sampleMask);
    sim::drainWorkerCounters();
    return {sim::counters() - before, cpus.observations()};
}

int
runMix()
{
    sim::installWorkerMergeHook();
    const std::size_t n = sweepSizes().back();
    core::SweepConfig cfg;
    cfg.sizes = {n};
    cfg.sampleMask = sampleMask();

    TextTable table;
    table.setHeader({"prover", "comp%", "ctrl%", "data%",
                     "imul/kinstr", "hash-compress%", "i7 MPKI",
                     "i9 MPKI"});

    auto addRow = [&](const std::string& label,
                      const sim::Counters& c,
                      const std::vector<core::CpuObservation>& cpus) {
        const core::OpcodeMix mix = core::opcodeMixOf(c);
        const double instr = (double)c.instructions();
        const double imulK =
            instr > 0 ? (double)c.imuls / (instr / 1000.0) : 0;
        // Share of all instructions attributable to SHA-256
        // compressions (the STARK-side analog of the Montgomery-mul
        // share on the SNARK side).
        const auto sig = sim::signatureFor(
            sim::PrimOp::HashCompress, 1);
        const double hashInstr =
            (double)c.prim[(std::size_t)sim::PrimOp::HashCompress] *
            (sig.compute + sig.control + sig.data);
        double i7 = 0, i9 = 0;
        for (const auto& cpu : cpus) {
            const double mpki =
                instr > 0 ? cpu.llcLoadMisses / (instr / 1000.0)
                          : 0;
            const std::string cn = cpu.cpu->name;
            if (cn.find("i7") != std::string::npos)
                i7 = mpki;
            else if (cn.find("i9") != std::string::npos)
                i9 = mpki;
        }
        table.addRow({label, fmtF(mix.computePct, 1),
                      fmtF(mix.controlPct, 1), fmtF(mix.dataPct, 1),
                      fmtF(imulK, 1),
                      fmtF(instr > 0 ? 100.0 * hashInstr / instr : 0,
                           1),
                      fmtF(i7, 3), fmtF(i9, 3)});
    };

    for (const char* name : {"fib", "mimc"}) {
        const auto air = makeAir(name, n);
        const StarkObservation obs = observeStarkProve(*air, cfg);
        addRow(std::string("stark ") + name + " 2^" +
                   std::to_string(log2Of(n)),
               obs.counters, obs.cpus);
    }

    // The SNARK contrast: the Groth16 proving stage at the same size,
    // observed through the identical cache/counter machinery.
    {
        core::StageRunner<snark::Bn254> runner(n);
        const core::StageObservation obs = core::observeStage(
            runner, core::Stage::Proving, cfg);
        addRow("groth16 prove 2^" + std::to_string(log2Of(n)),
               obs.run.counters, obs.cpus);
    }

    printTable("E14: STARK vs SNARK prover opcode mix and LLC MPKI",
               table);
    std::printf(
        "\nReading: the STARK prover's instruction stream is "
        "dominated by SHA-256 compressions\n(register-resident "
        "rotate/xor/add, near-zero wide multiplies), while the "
        "Groth16 prover\nis Montgomery-CIOS dominated "
        "(~20 imuls per 4-limb mul). See EXPERIMENTS.md §E14.\n");
    return 0;
}

} // namespace
} // namespace zkp::bench

int
main(int argc, char** argv)
{
    using namespace zkp::bench;
    const bool smoke = hasFlag(argc, argv, "--smoke");
    if (!smoke && !hasFlag(argc, argv, "--mix")) {
        std::fprintf(stderr, "usage: %s --smoke | --mix\n", argv[0]);
        return 2;
    }
    std::printf("bench_stark: transparent STARK/FRI backend "
                "(Goldilocks, SHA-256 Merkle, blowup 8)\n");
    return smoke ? runSmoke() : runMix();
}
