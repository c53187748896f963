/**
 * @file
 * Ablations of design choices called out in DESIGN.md §6:
 *   A1  Pippenger vs naive double-and-add MSM (proving-cost driver)
 *   A2  Pippenger window width sweep
 *   A3  cache-simulator sampling mask vs MPKI stability
 *   A4  instrumentation overhead: a field multiply with simulator
 *       counting off (the default) vs inside a sim::CountingScope
 */

#include <algorithm>

#include "bench_util.h"
#include "core/pipeline.h"
#include "ec/msm.h"

namespace zkp::bench {
namespace {

using Fr = ff::bn254::Fr;
using G1 = ec::Bn254G1;

void
ablationMsm()
{
    Rng rng(11);
    typename G1::Jacobian g{G1::generator()};
    const std::size_t n = 1 << 10;
    std::vector<typename G1::Affine> pts;
    std::vector<Fr::Repr> scalars;
    for (std::size_t i = 0; i < n; ++i) {
        pts.push_back(g.mulScalar(rng.nextBelow(1 << 16) + 1)
                          .toAffine());
        scalars.push_back(Fr::random(rng).toBigInt());
    }

    Timer t_naive;
    auto r1 = ec::msmNaive<typename G1::Jacobian>(pts.data(),
                                                  scalars.data(), n);
    double naive = t_naive.seconds();

    Timer t_pip;
    auto r2 = ec::msm<typename G1::Jacobian>(pts.data(), scalars.data(),
                                             n);
    double pip = t_pip.seconds();

    TextTable table;
    table.setHeader({"algorithm", "time", "speedup vs naive"});
    table.addRow({"naive double-and-add", fmtSeconds(naive), "1.00x"});
    table.addRow({"Pippenger (auto window)", fmtSeconds(pip),
                  fmtF(naive / pip, 2) + "x"});
    printTable("A1 MSM algorithm (n=2^10, BN254 G1)", table);

    if (r1 != r2)
        std::printf("!! ablation MSM results disagree\n");
}

void
ablationSampling()
{
    TextTable table;
    table.setHeader({"sample mask", "traced accesses", "witness MPKI",
                     "proving MPKI"});
    for (sim::u32 mask : {0u, 1u, 3u, 7u}) {
        core::SweepConfig cfg;
        cfg.sizes = {1 << 11};
        cfg.sampleMask = mask;
        auto cells = core::runMemoryAnalysis<snark::Bn254>(cfg);
        double witness = 0, proving = 0;
        for (const auto& c : cells) {
            if (c.perCpu.empty())
                continue;
            if (c.stage == core::Stage::Witness)
                witness = c.perCpu[2].mpki; // i9
            if (c.stage == core::Stage::Proving)
                proving = c.perCpu[2].mpki;
        }
        table.addRow({std::to_string(mask),
                      "1/" + std::to_string(mask + 1),
                      fmtF(witness, 4), fmtF(proving, 4)});
    }
    printTable("A3 trace sampling vs MPKI (i9 model, n=2^11)", table);
}

void
ablationProbeCost()
{
    // The same dependent multiply chain with counting off, which is
    // what every prove outside an analysis runs, and with a
    // CountingScope held, which is what StageRunner's stages run.
    using Fq = ff::bn254::Fq;
    Rng rng(12);
    const Fq b = Fq::random(rng);
    const std::size_t iters = 2'000'000;
    auto timeChain = [&] {
        Fq a = Fq::random(rng);
        Timer t;
        for (std::size_t i = 0; i < iters; ++i)
            a = a * b;
        const double ns = t.nanos() / iters;
        if (a.isZero())
            std::printf("!! ablation multiply chain hit zero\n");
        return ns;
    };

    // Alternate the two and keep each one's fastest of five, so a
    // slow spell on a shared host does not land on one side only.
    double off = 1e300, on = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
        off = std::min(off, timeChain());
        const sim::CountingScope counting;
        on = std::min(on, timeChain());
    }

    TextTable table;
    table.setHeader({"what", "ns/op"});
    table.addRow({"a * b, counting off (default)", fmtF(off, 2)});
    table.addRow({"a * b, inside a CountingScope", fmtF(on, 2)});
    table.addRow({"counting overhead", fmtPct(on / off - 1, 1)});
    printTable("A4 instrumentation probe cost (BN254 Fq mul)", table);
}

} // namespace
} // namespace zkp::bench

int
main()
{
    std::printf("bench_ablation: design-choice ablations\n");
    zkp::bench::ablationMsm();
    zkp::bench::ablationSampling();
    zkp::bench::ablationProbeCost();
    return 0;
}
