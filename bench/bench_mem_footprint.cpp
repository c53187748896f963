/**
 * @file
 * E13 — memory footprint vs circuit size (docs/EXPERIMENTS.md §E13).
 * The paper's resource analysis tracks peak memory alongside proving
 * time (Fig. 5 / Table III); this bench measures, for every
 * circuit-zoo entry under both Groth16 and the R1CS->PlonK lowering,
 * how much memory the setup and prove phases actually take:
 *
 *   - alloc bytes/count: exact allocator traffic on the measuring
 *     thread from the ZKP_MEMPROF interposition shim (the bench runs
 *     single-threaded so attribution is complete);
 *   - live delta: bytes still held when the phase returns (the keys /
 *     proof that outlive it);
 *   - peak-RSS delta: how much the phase raised the process
 *     high-water mark (VmHWM — monotonic, so later phases that fit
 *     inside an earlier peak legitimately report 0);
 *   - bytes per constraint: prove-phase allocation divided by the
 *     R1CS size, the scale-free number the paper's capacity-planning
 *     discussion wants.
 *
 * Run: ./build/bench/bench_mem_footprint [--quick] [--full]
 *   --quick  one small scale per entry (CI smoke)
 *   --full   also run PlonK for entries whose lowering exceeds the
 *            gate budget (SHA-256's ~520k-point SRS)
 *
 * Writes BENCH_mem_footprint.json: one "results" entry per zoo entry,
 * scheme and phase, with the timing and memory fields above.
 * Memory profiling is force-enabled; under sanitizer builds the shim
 * compiles out and the alloc columns read 0 while the RSS columns
 * stay real.
 */

#include <cstdint>
#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "obs/memprof.h"
#include "r1cs/witness.h"
#include "r1cs/zoo.h"
#include "snark/groth16.h"
#include "snark/plonk.h"
#include "snark/plonk_from_r1cs.h"

namespace zkp::bench {
namespace {

/** PlonK runs above this many lowered gates only under --full. */
constexpr std::size_t kPlonkGateBudget = 1 << 16;

struct PhaseMem
{
    double seconds = 0;
    std::uint64_t allocBytes = 0;
    std::uint64_t allocCount = 0;
    std::int64_t liveDelta = 0;
    std::uint64_t peakRssDelta = 0;
};

template <typename Fn>
PhaseMem
measurePhase(Fn&& fn)
{
    PhaseMem p;
    const auto s0 = obs::memprof::threadStats();
    const std::uint64_t hwm0 = obs::memprof::peakRssBytes();
    Timer t;
    fn();
    p.seconds = t.seconds();
    const auto s1 = obs::memprof::threadStats();
    const std::uint64_t hwm1 = obs::memprof::peakRssBytes();
    p.allocBytes = s1.allocBytes - s0.allocBytes;
    p.allocCount = s1.allocCount - s0.allocCount;
    p.liveDelta = (std::int64_t)(s1.allocBytes - s0.allocBytes) -
                  (std::int64_t)(s1.freeBytes - s0.freeBytes);
    p.peakRssDelta = hwm1 - hwm0;
    return p;
}

struct Row
{
    std::string circuit, scheme, phase;
    std::size_t scale = 0, constraints = 0;
    PhaseMem mem;
};

std::string
fmtBytesShort(double bytes)
{
    const char* units[] = {"B", "KiB", "MiB", "GiB"};
    std::size_t u = 0;
    double v = bytes < 0 ? -bytes : bytes;
    while (v >= 1024.0 && u + 1 < 4) {
        v /= 1024.0;
        ++u;
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%.1f %s",
                  bytes < 0 ? "-" : "", v, units[u]);
    return buf;
}

template <typename Curve>
void
runEntry(const r1cs::zoo::Entry<typename Curve::Fr>& e,
         std::size_t scale, std::size_t plonk_gate_budget,
         std::vector<Row>& rows)
{
    using Fr = typename Curve::Fr;
    Rng rng(0x6d656d66u);

    auto builder = e.build(scale);
    auto cs = builder.compile();
    const std::size_t n = cs.numConstraints();
    r1cs::WitnessCalculator<Fr> calc(builder.witnessProgram());
    auto w = e.sample(scale, rng);
    auto z = calc.compute(w.pub, w.priv);

    auto push = [&](const char* scheme, const char* phase,
                    const PhaseMem& m) {
        rows.push_back({e.name, scheme, phase, scale, n, m});
    };

    {
        typename snark::Groth16<Curve>::Keypair keys;
        push("groth16", "setup", measurePhase([&] {
                 keys = snark::Groth16<Curve>::setup(cs, rng);
             }));
        typename snark::Groth16<Curve>::Proof proof;
        push("groth16", "prove", measurePhase([&] {
                 proof = snark::Groth16<Curve>::prove(keys.pk, cs, z,
                                                      rng);
             }));
        if (!snark::Groth16<Curve>::verify(keys.vk, w.pub, proof))
            std::printf("!! groth16 verify failed: %s scale=%zu\n",
                        e.name.c_str(), scale);
    }

    snark::PlonkFromR1cs<Fr> lowered(cs);
    if (lowered.builder.numGates() > plonk_gate_budget)
        return;
    {
        typename snark::Plonk<Curve>::Keypair keys;
        push("plonk", "setup", measurePhase([&] {
                 keys = snark::Plonk<Curve>::setup(lowered.builder,
                                                   rng);
             }));
        auto values = lowered.assign(z);
        typename snark::Plonk<Curve>::Proof proof;
        push("plonk", "prove", measurePhase([&] {
                 proof = snark::Plonk<Curve>::prove(keys.pk, values,
                                                    w.pub, rng);
             }));
        if (!snark::Plonk<Curve>::verify(keys.vk, w.pub, proof))
            std::printf("!! plonk verify failed: %s scale=%zu\n",
                        e.name.c_str(), scale);
    }
}

void
writeJson(const std::vector<Row>& rows)
{
    std::string json = "{\n  \"bench\": \"bench_mem_footprint\",\n"
                       "  \"notes\": {\"unit\": \"bytes\", "
                       "\"threads\": \"1\"},\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i];
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"name\": \"%s_%s_%s\", \"n\": %zu, "
            "\"threads\": 1, \"repeats\": 1, "
            "\"seconds_mean\": %.6f, \"seconds_min\": %.6f, "
            "\"peak_rss_bytes\": %llu, \"alloc_bytes\": %llu, "
            "\"alloc_count\": %llu, \"live_delta_bytes\": %lld, "
            "\"peak_rss_delta_bytes\": %llu, "
            "\"bytes_per_constraint\": %.1f}%s\n",
            r.circuit.c_str(), r.scheme.c_str(), r.phase.c_str(),
            r.constraints, r.mem.seconds, r.mem.seconds,
            (unsigned long long)obs::memprof::peakRssBytes(),
            (unsigned long long)r.mem.allocBytes,
            (unsigned long long)r.mem.allocCount,
            (long long)r.mem.liveDelta,
            (unsigned long long)r.mem.peakRssDelta,
            r.constraints ? (double)r.mem.allocBytes /
                                (double)r.constraints
                          : 0.0,
            i + 1 < rows.size() ? "," : "");
        json += buf;
    }
    json += "  ]\n}\n";
    std::FILE* f = std::fopen("BENCH_mem_footprint.json", "w");
    if (!f) {
        std::fprintf(stderr,
                     "warning: cannot write "
                     "BENCH_mem_footprint.json\n");
        return;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("results written to BENCH_mem_footprint.json\n");
}

} // namespace
} // namespace zkp::bench

int
main(int argc, char** argv)
{
    using namespace zkp;
    using namespace zkp::bench;
    using Curve = snark::Bn254;
    using Fr = Curve::Fr;

    const bool quick = hasFlag(argc, argv, "--quick");
    const bool full = hasFlag(argc, argv, "--full");
    const std::size_t budget = full ? ~std::size_t(0)
                                    : kPlonkGateBudget;

    obs::memprof::setTracking(true);
    std::printf("bench_mem_footprint: memory vs circuit size across "
                "the zoo (allocator %s)\n\n",
                obs::memprof::tracking()
                    ? "interposition active"
                    : "unavailable; RSS columns only");

    std::vector<Row> rows;
    for (const auto& e : r1cs::zoo::all<Fr>()) {
        // Two scales per entry (small then default) show how the
        // footprint scales; increasing order keeps the monotonic
        // VmHWM deltas attributable. --quick keeps only the small
        // point.
        std::vector<std::size_t> scales;
        const std::size_t small =
            e.name == "exp" ? 1024 : (e.defaultScale + 3) / 4;
        scales.push_back(small ? small : 1);
        if (!quick && e.defaultScale > scales.back())
            scales.push_back(e.defaultScale);
        for (std::size_t s : scales)
            runEntry<Curve>(e, s, budget, rows);
    }

    TextTable table;
    table.setHeader({"circuit", "scheme", "phase", "scale", "r1cs",
                     "time", "allocated", "allocs", "live Δ",
                     "peak RSS Δ", "B/constraint"});
    for (const auto& r : rows)
        table.addRow(
            {r.circuit, r.scheme, r.phase, std::to_string(r.scale),
             std::to_string(r.constraints), fmtSeconds(r.mem.seconds),
             fmtBytesShort((double)r.mem.allocBytes),
             std::to_string(r.mem.allocCount),
             fmtBytesShort((double)r.mem.liveDelta),
             fmtBytesShort((double)r.mem.peakRssDelta),
             r.constraints ? fmtF((double)r.mem.allocBytes /
                                      (double)r.constraints, 1)
                           : "-"});
    printTable("memory footprint by circuit, scheme and phase "
               "(single-threaded)",
               table);
    std::printf("process peak RSS: %s\n",
                fmtBytesShort(
                    (double)obs::memprof::peakRssBytes())
                    .c_str());

    writeJson(rows);
    return 0;
}
