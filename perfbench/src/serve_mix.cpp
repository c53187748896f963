/**
 * @file
 * serve-mix client: closed-loop callers of a running zkperfd (run.py
 * launches the daemon and passes its socket). Each of --clients
 * threads holds one connection and sends its next request only after
 * the previous reply, for --seconds. The request kind is drawn from
 * the seeded stream:
 *
 *   37.5%  Groth16 BN254 "exp12" prove, interactive priority
 *   37.5%  STARK MiMC 2^12 prove, interactive priority
 *   12.5%  verify of one of the client's earlier proofs, batch priority
 *   12.5%  verify of a byte-flipped earlier proof, batch priority
 *
 * The verify share, 25%, is bench_serve's default --verify-frac.
 *
 * An honest proof that is rejected, a flipped one that is accepted, a
 * STARK proof that does not verify locally, or any other non-Ok
 * status fails the run. QueueFull is backpressure: counted, retried.
 */

#include <atomic>
#include <csignal>
#include <thread>

#include <unistd.h>

#include "record.h"
#include "r1cs/zoo.h"
#include "serve/circuit_host.h"
#include "serve/protocol.h"
#include "serve/stark_host.h"
#include "stark/serialize.h"

namespace zkbench {
namespace {

using namespace zkp;
namespace wire = serve::wire;

constexpr const char* kGroth16Circuit = "exp12";
constexpr const char* kStarkCircuit = "stark-mimc:4096";
constexpr std::size_t kRows = 4096; // both circuits

enum class Kind
{
    Prove,
    Verify,
    VerifyMutated,
    VerifyRefused, ///< a flipped proof the daemon's parser refused
    StarkProve,
};

const char*
kindName(Kind k)
{
    switch (k) {
      case Kind::Prove:
        return "prove";
      case Kind::Verify:
        return "verify";
      case Kind::VerifyMutated:
        return "verify_mutated";
      case Kind::VerifyRefused:
        return "verify_refused";
      case Kind::StarkProve:
        return "stark_prove";
    }
    return "?";
}

struct ClientTally
{
    struct Latency
    {
        Kind kind;
        double seconds;
        bool traced;
    };
    std::vector<Latency> latencies;
    u64 queueFullRetries = 0;
    std::vector<std::string> failures;
};

/** One request/response exchange, retried on QueueFull. */
bool
exchange(int fd, wire::Frame req, u64& next_id, wire::Result& out,
         ClientTally& tally)
{
    while (true) {
        req.id = ++next_id;
        wire::Frame resp;
        if (!wire::writeFrame(fd, req) || !wire::readFrame(fd, resp) ||
            resp.type != wire::MsgType::Result)
            return false;
        auto decoded = wire::decodeResult(resp.body);
        if (!decoded)
            return false;
        out = std::move(*decoded);
        if (out.status != serve::Status::QueueFull)
            return true;
        ++tally.queueFullRetries;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

void
clientLoop(const Options& opt, std::size_t index, double deadline,
           ClientTally& tally)
{
    using Fr = snark::Bn254::Fr;
    const int fd = wire::connectUnix(opt.socket);
    if (fd < 0) {
        tally.failures.push_back("cannot connect to " + opt.socket);
        return;
    }
    u64 rs = opt.seed * 1000003 + index;
    Rng rng(nextRand(rs));
    const auto* exp = r1cs::zoo::find<Fr>("exp");
    u64 next_id = (u64)index << 32;
    struct Held
    {
        std::vector<std::uint8_t> pub, proof;
    };
    std::vector<Held> held; // this client's honest Groth16 proofs

    while (now() < deadline) {
        // A quarter verifies, as bench_serve's default --verify-frac,
        // half of them of flipped proofs; the proves split evenly
        // between the two schemes.
        const u64 draw = nextRand(rs) % 8;
        Kind kind = draw < 3   ? Kind::Prove
                    : draw < 6 ? Kind::StarkProve
                    : draw < 7 ? Kind::Verify
                               : Kind::VerifyMutated;
        if (held.empty() &&
            (kind == Kind::Verify || kind == Kind::VerifyMutated))
            kind = Kind::Prove;

        wire::Frame req;
        std::vector<std::uint8_t> pub;
        stark::Gl starkInput;
        if (kind == Kind::Prove) {
            const auto w = exp->sample(kRows, rng);
            wire::ProveRequest m;
            m.priority = serve::Priority::Interactive;
            m.circuit = kGroth16Circuit;
            m.publicInputs = pub = serve::encodeScalars<Fr>(w.pub);
            m.privateInputs = serve::encodeScalars<Fr>(w.priv);
            req.type = wire::MsgType::ProveRequest;
            req.body = wire::encodeProveRequest(m);
        } else if (kind == Kind::StarkProve) {
            starkInput = stark::Gl::fromU64(nextRand(rs));
            wire::ProveRequest m;
            m.priority = serve::Priority::Interactive;
            m.circuit = kStarkCircuit;
            m.publicInputs = serve::encodeGl({starkInput});
            req.type = wire::MsgType::ProveRequest;
            req.body = wire::encodeProveRequest(m);
        } else {
            const Held& h = held[nextRand(rs) % held.size()];
            wire::VerifyRequest m;
            m.priority = serve::Priority::Batch;
            m.circuit = kGroth16Circuit;
            m.publicInputs = h.pub;
            m.proof = kind == Kind::Verify ? h.proof
                                           : flipByte(h.proof, rs);
            req.type = wire::MsgType::VerifyRequest;
            req.body = wire::encodeVerifyRequest(m);
        }

        wire::Result result;
        const bool traced = obs::tracingEnabled();
        const double t0 = now();
        bool io_ok = false;
        {
            ZKP_TRACE_SCOPE("bench.serve.request");
            io_ok = exchange(fd, std::move(req), next_id, result, tally);
        }
        const double latency = now() - t0;
        if (!io_ok) {
            tally.failures.push_back("connection lost");
            break;
        }
        bool ok = false;
        switch (kind) {
          case Kind::Prove:
            ok = result.status == serve::Status::Ok;
            if (ok) {
                held.push_back({pub, result.proof});
                if (held.size() > 8)
                    held.erase(held.begin());
            }
            break;
          case Kind::Verify:
            ok = result.status == serve::Status::Ok && result.valid;
            break;
          case Kind::VerifyMutated:
            // Rejected by the verifier, or refused by the parser
            // (timed apart: it never reaches the verifier).
            ok = result.status == serve::Status::InvalidRequest ||
                 (result.status == serve::Status::Ok && !result.valid);
            if (result.status == serve::Status::InvalidRequest)
                kind = Kind::VerifyRefused;
            break;
          case Kind::VerifyRefused:
            break;
          case Kind::StarkProve: {
            const stark::MimcAir air(kRows, starkInput);
            const auto proof = stark::deserializeProof(result.proof);
            ok = result.status == serve::Status::Ok && proof &&
                 stark::verify(air, stark::StarkParams{}, *proof);
            break;
          }
        }
        if (ok)
            tally.latencies.push_back({kind, latency, traced});
        else
            tally.failures.push_back(
                std::string(kindName(kind)) + " failed (status " +
                std::to_string((int)result.status) + ")");
    }
    ::close(fd);
}

/** The daemon's stats/v2 document, or "" on failure. */
std::string
scrapeStats(const std::string& socket)
{
    const int fd = wire::connectUnix(socket);
    if (fd < 0)
        return "";
    wire::Frame req;
    req.type = wire::MsgType::StatsV2Request;
    req.id = 1;
    wire::Frame resp;
    const bool ok = wire::writeFrame(fd, req) &&
                    wire::readFrame(fd, resp) &&
                    resp.type == wire::MsgType::StatsV2Response;
    ::close(fd);
    if (!ok)
        return "";
    auto body = wire::decodeStatsV2Response(resp.body);
    return body ? body->json : "";
}

} // namespace

int
runServeMix(const Options& opt, Record& rec)
{
    // A daemon that dies mid-exchange must surface as a failed
    // request, not kill the client with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    std::vector<ClientTally> tallies(opt.clients);
    std::vector<std::thread> threads;
    const double t0 = now();
    const double deadline = t0 + opt.seconds;
    // A traced run records spans over the second half only, so its
    // span overhead can be read off the same run.
    rec.setTracing(false);
    for (std::size_t c = 0; c < opt.clients; ++c)
        threads.emplace_back([&, c] {
            clientLoop(opt, c, deadline, tallies[c]);
        });
    if (opt.trace) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opt.seconds / 2));
        rec.setTracing(true);
    }
    for (auto& t : threads)
        t.join();
    const double elapsed = now() - t0;
    rec.setTracing(false);

    u64 retries = 0;
    for (const auto& t : tallies) {
        for (const auto& l : t.latencies) {
            rec.sample(std::string("latency.") + kindName(l.kind) +
                           (l.traced ? "@traced" : ""),
                       l.seconds);
            rec.check(true, "serve request");
        }
        for (const auto& f : t.failures)
            rec.check(false, "serve-mix: " + f);
        retries += t.queueFullRetries;
    }
    std::size_t proves = 0;
    for (const auto& t : tallies)
        for (const auto& l : t.latencies)
            proves += l.kind == Kind::Prove || l.kind == Kind::StarkProve;
    rec.value("elapsed_s", elapsed);
    rec.value("rows_proven", (double)(proves * kRows));
    rec.value("queue_full_retries", (double)retries);
    const std::string stats = scrapeStats(opt.socket);
    rec.check(!stats.empty(), "stats/v2 scrape");
    rec.note("stats_v2", stats);
    return 0;
}

} // namespace zkbench
