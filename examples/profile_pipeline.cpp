/**
 * @file
 * Example: drive the paper's analysis framework programmatically.
 * Profiles the full pipeline at one size and prints a compact
 * characterization report — the library's primary public API.
 *
 * Run: ./build/examples/profile_pipeline [log2_constraints] [threads]
 *                                        [--json <path>]
 *                                        [--circuit <zoo name>]
 *                                        [--scale <n>] [--mem]
 *
 * --circuit selects a circuit-zoo entry (see `bench_circuits --list`;
 * default "exp", the paper's exponentiation chain, whose scale is the
 * constraint count 2^log2_constraints). --scale overrides the entry's
 * default scale; for "exp" the positional log2_constraints argument
 * keeps its meaning.
 *
 * --mem (or ZKP_MEMPROF=1) enables the allocation profiler: the
 * report gains per-stage memory accounting (peak-RSS delta, allocated
 * bytes/count, top allocation sites by span) and a tracked-owner
 * reconciliation of the big structures against allocator live bytes.
 *
 * --json <path> additionally writes the machine-readable run report
 * (one JSON record per instrumented stage execution: stage, curve,
 * size, threads, seconds, counter deltas, top spans — see
 * docs/OBSERVABILITY.md). Set ZKP_TRACE=out.trace.json to also
 * capture a Perfetto-loadable span trace of the whole run.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/table.h"
#include "core/analysis.h"
#include "obs/memprof.h"
#include "obs/pmu.h"
#include "obs/report.h"
#include "r1cs/zoo.h"
#include "snark/curve.h"

namespace {

/** Human-readable byte count (B/KiB/MiB/GiB, one decimal). */
std::string
fmtBytes(double bytes)
{
    const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    std::size_t u = 0;
    double v = bytes < 0 ? -bytes : bytes;
    while (v >= 1024.0 && u + 1 < 5) {
        v /= 1024.0;
        ++u;
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%.1f %s",
                  bytes < 0 ? "-" : "", v, units[u]);
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace zkp;
    std::size_t log_n = 11;
    std::size_t threads = 2;
    std::string json_path;
    std::string circuit = "exp";
    long scale_arg = -1;
    bool want_mem = false;
    int positional = 0;
    auto usage = [&] {
        std::fprintf(stderr,
                     "usage: %s [log2_constraints] [threads] "
                     "[--json <path>] [--circuit <zoo name>] "
                     "[--scale <n>] [--mem]\n",
                     argv[0]);
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json requires a value\n");
                return usage();
            }
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--circuit") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--circuit requires a value\n");
                return usage();
            }
            circuit = argv[++i];
        } else if (std::strcmp(argv[i], "--scale") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--scale requires a value\n");
                return usage();
            }
            scale_arg = std::atol(argv[++i]);
        } else if (std::strcmp(argv[i], "--mem") == 0) {
            want_mem = true;
        } else if (argv[i][0] == '-' || positional >= 2) {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return usage();
        } else if (positional++ == 0) {
            log_n = (std::size_t)std::atoi(argv[i]);
        } else {
            threads = (std::size_t)std::atoi(argv[i]);
        }
    }
    if (threads == 0)
        threads = 1;
    if (want_mem)
        obs::memprof::setTracking(true); // refusal notice on stderr

    using Fr = snark::Bn254::Fr;
    const auto* entry = r1cs::zoo::find<Fr>(circuit);
    if (!entry) {
        std::fprintf(stderr, "unknown circuit \"%s\"; available:",
                     circuit.c_str());
        for (const auto& name : r1cs::zoo::names<Fr>())
            std::fprintf(stderr, " %s", name.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }
    const std::size_t scale =
        scale_arg >= 0 ? (std::size_t)scale_arg
                       : (circuit == "exp" ? std::size_t(1) << log_n
                                           : entry->defaultScale);

    core::SweepConfig cfg;
    cfg.sizes = {entry->predictedConstraints(scale)};
    cfg.threads = threads;
    std::printf("profile_pipeline: characterizing the BN254 \"%s\" "
                "pipeline at scale %zu (%zu constraints, %zu "
                "threads)\n\n",
                circuit.c_str(), scale, cfg.sizes[0], threads);

    core::StageRunner<snark::Bn254> runner(*entry, scale);

    const bool hw = obs::pmu::enabled();
    if (hw)
        std::printf("hardware counters: perf_event available "
                    "(disable with ZKP_PMU=0)\n");
    else
        std::printf("hardware counters: unavailable (%s)\n",
                    obs::pmu::unavailableReason().empty()
                        ? "disabled via ZKP_PMU=0"
                        : obs::pmu::unavailableReason().c_str());

    const bool mem = obs::memprof::tracking();
    if (mem)
        std::printf("memory profiler: allocation interposition "
                    "active (--mem / ZKP_MEMPROF=1)\n\n");
    else if (obs::memprof::available())
        std::printf("memory profiler: off (enable with --mem or "
                    "ZKP_MEMPROF=1; RSS columns still measured)\n\n");
    else
        std::printf("memory profiler: unavailable (%s)\n\n",
                    obs::memprof::unavailableReason());

    TextTable report;
    report.setHeader({"stage", "time", "instructions", "IPC-ish mix",
                      "i9 bound category", "i9 LLC MPKI", "hw IPC",
                      "hw MPKI"});
    TextTable memReport;
    memReport.setHeader({"stage", "peak RSS Δ", "RSS Δ", "allocated",
                         "allocs", "live Δ", "top site"});
    core::StageRun proving;
    for (core::Stage s : core::kAllStages) {
        auto obs = core::observeStage(runner, s, cfg);
        if (s == core::Stage::Proving)
            proving = obs.run;
        {
            const auto& m = obs.run.mem;
            std::string topSite = "-";
            if (!m.topSites.empty())
                topSite = std::string(m.topSites[0].name) + " (" +
                          fmtBytes((double)m.topSites[0].allocBytes) +
                          ")";
            memReport.addRow(
                {core::stageName(s),
                 fmtBytes((double)m.peakRssDelta),
                 fmtBytes((double)m.rssDelta),
                 m.tracked ? fmtBytes((double)m.allocBytes) : "n/a",
                 m.tracked ? fmtCount(m.allocCount) : "n/a",
                 m.tracked ? fmtBytes((double)m.liveDelta) : "n/a",
                 topSite});
        }
        const auto& i9 = obs.cpus.back();
        auto td = sim::classifyTopDown(core::stageEventsFor(obs, i9),
                                       *i9.cpu);
        auto mix = core::opcodeMixOf(obs.run.counters);
        const double instr = (double)obs.run.counters.instructions();
        char mixbuf[64];
        std::snprintf(mixbuf, sizeof(mixbuf), "%.0f/%.0f/%.0f C/B/D",
                      mix.computePct, mix.controlPct, mix.dataPct);
        report.addRow({core::stageName(s),
                       fmtSeconds(obs.run.seconds),
                       fmtCount((unsigned long long)instr), mixbuf,
                       td.boundCategory(),
                       fmtF(instr > 0 ? i9.llcLoadMisses /
                                            (instr / 1000.0)
                                      : 0.0, 3),
                       obs.run.hw.available ? fmtF(obs.run.hw.ipc, 2)
                                            : "n/a",
                       obs.run.hw.available
                           ? fmtF(obs.run.hw.llcLoadMpki, 3)
                           : "n/a"});
    }
    std::printf("%s\n", report.render().c_str());

    std::printf("memory by stage (deltas over the measured "
                "region):\n%s\n",
                memReport.render().c_str());

    if (mem) {
        // Reconcile the explicitly tracked owners against allocator
        // truth: live bytes the interposition shim has seen since
        // tracking began vs what the registered structures explain.
        const auto totals = obs::memprof::totals();
        const double live = (double)totals.liveBytes();
        const auto owners = obs::memprof::trackedSnapshot();
        const double tracked = (double)obs::memprof::trackedTotalBytes();
        std::printf("tracked owners vs allocator:\n");
        for (const auto& [name, bytes] : owners)
            std::printf("  %-24s %12s\n", name.c_str(),
                        fmtBytes((double)bytes).c_str());
        std::printf("  %-24s %12s\n", "tracked total",
                    fmtBytes(tracked).c_str());
        std::printf("  %-24s %12s\n", "allocator live",
                    fmtBytes(live).c_str());
        if (live > 0)
            std::printf("  %-24s %11.1f%%\n", "reconciled",
                        100.0 * tracked / live);
        std::printf("  %-24s %12s\n", "process RSS",
                    fmtBytes((double)obs::memprof::rssBytes()).c_str());
        std::printf("  %-24s %12s\n\n", "process peak RSS",
                    fmtBytes((double)obs::memprof::peakRssBytes())
                        .c_str());
    }

    std::printf("hot functions in the proving stage:\n");
    for (const auto& f : core::attributeFunctions(proving, 4))
        std::printf("  %-28s %5.1f%%\n", f.function.c_str(), f.pct);

    if (!json_path.empty()) {
        if (obs::writeRunReport(json_path))
            std::printf("\nrun report written to %s\n",
                        json_path.c_str());
        else
            std::printf("\n!! failed to write run report to %s\n",
                        json_path.c_str());
    }
    return 0;
}
