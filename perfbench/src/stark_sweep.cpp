/**
 * @file
 * stark-sweep: the transparent STARK with default StarkParams (blowup
 * 8, 30 queries, 12 grind bits) on the MiMC and Fibonacci AIRs at
 * 2^12, 2^14 and 2^16 steps.
 *
 * There is no key to build, so set-up is the cold first prove per
 * size (run.py repeats it in fresh processes for a median). The
 * measured window proves every configuration round-robin; each proof
 * must verify, reject one seeded byte flip, and be byte-identical to
 * the first proof of the same statement (the prover is deterministic),
 * including one proved on a single thread.
 */

#include <memory>

#include "record.h"
#include "stark/air.h"
#include "stark/serialize.h"
#include "stark/stark.h"

namespace zkbench {
namespace {

using namespace zkp;

struct StarkCase
{
    std::string label;
    std::unique_ptr<stark::Air> air;
    std::vector<std::uint8_t> firstBytes;
};

std::vector<std::uint8_t>
proveBytes(const stark::Air& air, std::size_t threads, double& seconds)
{
    ZKP_TRACE_SCOPE("bench.stark.prove", "n", (obs::u64)air.steps());
    const stark::StarkParams params{};
    const double t0 = now();
    const stark::StarkProof proof = stark::prove(air, params, threads);
    seconds = now() - t0;
    return stark::serializeProof(proof);
}

bool
verifyBytes(const stark::Air& air, const std::vector<std::uint8_t>& bytes)
{
    ZKP_TRACE_SCOPE("bench.stark.verify", "n", (obs::u64)air.steps());
    const auto proof = stark::deserializeProof(bytes);
    return proof && stark::verify(air, stark::StarkParams{}, *proof);
}

} // namespace

int
runStarkSweep(const Options& opt, Record& rec)
{
    u64 rs = opt.seed;
    const std::size_t T = opt.threads;
    std::vector<StarkCase> cases;
    for (unsigned log2 : {12u, 14u, 16u}) {
        const std::size_t n = std::size_t(1) << log2;
        StarkCase mimc;
        mimc.label = "mimc.2e" + std::to_string(log2);
        mimc.air = std::make_unique<stark::MimcAir>(
            n, stark::Gl::fromU64(nextRand(rs)));
        StarkCase fib;
        fib.label = "fib.2e" + std::to_string(log2);
        fib.air = std::make_unique<stark::FibonacciAir>(
            n, stark::Gl::fromU64(nextRand(rs)),
            stark::Gl::fromU64(nextRand(rs)));
        cases.push_back(std::move(mimc));
        cases.push_back(std::move(fib));
    }
    StarkCase& headline = cases[4]; // mimc.2e16

    // --- set-up: the cold first prove per size -----------------------
    double cold = 0;
    for (auto& c : cases) {
        if (c.air->name() != "mimc")
            continue;
        double s = 0;
        c.firstBytes = proveBytes(*c.air, T, s);
        rec.sample("setup." + c.label, s);
        cold += s;
    }
    rec.sample("setup.sweep_s", cold);
    if (opt.setupOnly)
        return 0;
    for (auto& c : cases) {
        if (c.firstBytes.empty()) {
            double s = 0;
            c.firstBytes = proveBytes(*c.air, T, s);
        }
        rec.check(verifyBytes(*c.air, c.firstBytes),
                  c.label + ": honest proof rejected");
    }
    // Determinism across thread counts: the 2^12 statements again on
    // one thread.
    for (std::size_t i = 0; i < 2; ++i) {
        double s = 0;
        rec.check(proveBytes(*cases[i].air, 1, s) == cases[i].firstBytes,
                  cases[i].label + ": 1-thread proof bytes differ");
    }

    // --- measured window ---------------------------------------------
    const double deadline = now() + opt.seconds;
    std::size_t rounds = 0;
    do {
        // A traced run alternates untraced and traced rounds, so its
        // span overhead can be read off the same process.
        if (opt.trace)
            rec.setTracing(rounds % 2 == 1);
        for (auto& c : cases) {
            double s = 0;
            const auto bytes = proveBytes(*c.air, T, s);
            rec.sample("prove." + c.label, s);
            // The host-speed probe after each headline prove: run.py
            // scales prove times by its median.
            if (&c == &headline)
                rec.sample("probe_s", hostSpeedProbe(T));
            rec.check(bytes == c.firstBytes,
                      c.label + ": proof bytes differ across repeats");
            rec.check(!verifyBytes(*c.air, flipByte(bytes, rs)),
                      c.label + ": byte-flipped proof accepted");
            // Headline verify and reject samples after every prove, so
            // they spread over the whole window.
            const double t0 = now();
            const bool ok = verifyBytes(*headline.air, headline.firstBytes);
            rec.sample("verify_ms", (now() - t0) * 1e3);
            rec.check(ok, headline.label + ": honest proof rejected");
            // Rejects of flips that still parse: the full verifier path.
            for (std::size_t timed = 0, tries = 0; timed < 2 && tries < 128;
                 ++tries) {
                const auto bad = flipByte(headline.firstBytes, rs);
                const double t1 = now();
                const bool accepted = verifyBytes(*headline.air, bad);
                const double dt = now() - t1;
                rec.check(!accepted,
                          headline.label + ": mutated proof accepted");
                if (stark::deserializeProof(bad)) {
                    rec.sample("reject_ms", dt * 1e3);
                    ++timed;
                }
            }
        }
        ++rounds;
    } while (now() < deadline || (opt.trace && rounds < 2));
    if (opt.trace)
        rec.setTracing(true);
    rec.value("rounds", (double)rounds);
    for (const auto& c : cases) {
        rec.value("rows." + c.label, (double)c.air->steps());
        rec.value("proof_bytes." + c.label, (double)c.firstBytes.size());
    }
    rec.note("headline", headline.label);
    return 0;
}

} // namespace zkbench
