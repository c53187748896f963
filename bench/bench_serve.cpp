/**
 * @file
 * Closed-loop smoke client for a running zkperfd.
 *
 * Each client thread holds one connection to the daemon's Unix
 * socket, issues one request at a time (closed loop) and waits for
 * the result: proves at --verify-frac=0 or a mix where a fraction of
 * iterations re-submit the client's latest proof as a Batch-priority
 * verify (exercising priority scheduling and the opportunistic
 * verifyBatch path). QueueFull responses are counted and retried
 * after a short backoff — backpressure, not failure.
 *
 * Run: ./build/bench/bench_serve --socket <path> [--clients <n>]
 *          [--seconds <s>] [--requests <n>] [--log2 <k>]
 *          [--circuit <zoo>[:scale]] [--verify-frac <f>] [--smoke]
 *          [--stats-dump <file>]
 *
 *   --circuit    adds a circuit-zoo entry (wire id "<zoo>:<scale>",
 *                scale defaulting to the catalog default) to the
 *                workload mix; repeatable. Clients pick uniformly
 *                among the mix per iteration and generate each
 *                circuit's witnesses with its zoo sampler. Without
 *                the flag the mix is the classic single "exp<k>"
 *                workload. The daemon must have registered the same
 *                ids (zkperfd --circuit).
 *   --smoke      CI shape: 200 requests total at 2^8 constraints
 *                (explicit --requests/--log2 still win)
 *   --stats-dump scrape-only mode: send a stats/v2 request to the
 *                daemon at --socket, write the raw
 *                zkperf-serve-stats/2 JSON document to <file>, and
 *                exit without generating load (CI uses this to
 *                assert on a live daemon's telemetry)
 *
 * Prints p50/p95/p99/p999/mean latency per request kind plus
 * throughput, and the daemon's own per-lane end-to-end quantiles
 * from a stats/v2 scrape. Tail-latency numbers for the ledger come
 * from perfbench's serve-mix workload, not from this client.
 *
 * After a load run the bench cross-checks the server's end-to-end
 * quantiles against the client-observed ones: a request's server-side
 * lifespan (arrive → replied) lies strictly inside the client's
 * observed window, so the server p50 can only exceed the client p50
 * through a clock-domain or accounting bug. The gate allows 2x + 10ms
 * (server quantiles come from log2-bucketed histograms, whose
 * in-bucket interpolation can overestimate by up to the bucket width)
 * — still tight enough to catch unit mixups (ms vs us) and wall/steady
 * clock confusion, which are the bugs this check exists for.
 *
 * Exits 1 if any request failed (a rejected proof, an invalid verify,
 * a non-Ok terminal status), the stats/v2 scrape after the run
 * failed, or the cross-check found a violation; 2 on usage errors.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "serve/circuit_host.h"
#include "serve/protocol.h"

#include <unistd.h>

namespace {

using namespace zkp;

/** Write @p text to @p path; false on I/O failure. */
bool
writeFile(const std::string& path, const std::string& text)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

struct Options
{
    std::size_t clients = 8;
    double seconds = 10;
    std::uint64_t requests = 0; // 0 = run for --seconds
    std::size_t log2N = 12;
    std::vector<std::string> circuitSpecs;
    double verifyFrac = 0.25;
    std::string socketPath;
    std::string statsDumpPath; // non-empty = scrape-only mode
};

int
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket <path> [--clients <n>] [--seconds <s>]\n"
        "          [--requests <n>] [--log2 <k>]\n"
        "          [--circuit <zoo>[:scale]] [--verify-frac <f>]\n"
        "          [--smoke] [--stats-dump <file>]\n",
        argv0);
    return 2;
}

/** Per-client tallies; merged after the threads join. */
struct ClientStats
{
    std::vector<double> proveLatency;
    std::vector<double> verifyLatency;
    std::uint64_t queueFullRetries = 0;
    std::uint64_t failures = 0;
    std::uint64_t completed = 0;
};

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Shared run controls: time-based or fixed-count stop. */
struct RunControl
{
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> issued{0};
    std::uint64_t requestLimit = 0; // 0 = stop flag only

    bool
    claim()
    {
        if (stop.load(std::memory_order_relaxed))
            return false;
        if (requestLimit == 0)
            return true;
        return issued.fetch_add(1, std::memory_order_relaxed) <
               requestLimit;
    }
};

/** One circuit in the workload mix. */
struct MixItem
{
    std::string id; ///< wire-protocol circuit id
    const r1cs::zoo::Entry<snark::Bn254::Fr>* entry = nullptr;
    std::size_t scale = 0;
};

/**
 * Parse --circuit specs (plus the default exp workload when none are
 * given) into resolved mix items. Returns false on an unknown name.
 */
bool
resolveMix(const Options& opt, std::vector<MixItem>& mix)
{
    using Fr = snark::Bn254::Fr;
    if (opt.circuitSpecs.empty()) {
        MixItem item;
        item.id = "exp" + std::to_string(opt.log2N);
        item.entry = r1cs::zoo::find<Fr>("exp");
        item.scale = std::size_t(1) << opt.log2N;
        mix.push_back(std::move(item));
        return true;
    }
    for (const std::string& spec : opt.circuitSpecs) {
        MixItem item;
        std::string name = spec;
        if (auto colon = spec.find(':'); colon != std::string::npos) {
            name = spec.substr(0, colon);
            item.scale =
                (std::size_t)std::atol(spec.c_str() + colon + 1);
        }
        item.entry = r1cs::zoo::find<Fr>(name);
        if (!item.entry) {
            std::fprintf(stderr,
                         "bench_serve: unknown zoo circuit \"%s\"\n",
                         name.c_str());
            return false;
        }
        if (item.scale == 0)
            item.scale = item.entry->defaultScale;
        item.id = name + ":" + std::to_string(item.scale);
        mix.push_back(std::move(item));
    }
    return true;
}

/** One client iteration's generated workload. */
struct Workload
{
    std::vector<std::uint8_t> publicInputs;
    std::vector<std::uint8_t> privateInputs;
};

Workload
makeWorkload(Rng& rng, const MixItem& item)
{
    using Fr = snark::Bn254::Fr;
    auto w = item.entry->sample(item.scale, rng);
    Workload out;
    out.publicInputs = serve::encodeScalars<Fr>(w.pub);
    out.privateInputs = serve::encodeScalars<Fr>(w.priv);
    return out;
}

/** True on the verify-frac schedule (deterministic per client). */
bool
wantVerify(Rng& rng, double frac, bool haveProof)
{
    if (!haveProof || frac <= 0)
        return false;
    return (double)rng.nextBelow(1 << 20) / (double)(1 << 20) < frac;
}

void
recordOutcome(ClientStats& stats, serve::Status status, bool is_verify,
              bool valid, double latency)
{
    if (status == serve::Status::Ok && (!is_verify || valid)) {
        stats.completed++;
        (is_verify ? stats.verifyLatency : stats.proveLatency)
            .push_back(latency);
    } else {
        stats.failures++;
    }
}

void
clientLoopSocket(const std::vector<MixItem>& mix, const Options& opt,
                 RunControl& ctl, std::size_t index,
                 ClientStats& stats, std::atomic<bool>& connect_failed)
{
    namespace wire = serve::wire;
    const int fd = wire::connectUnix(opt.socketPath);
    if (fd < 0) {
        connect_failed.store(true);
        return;
    }
    Rng rng(7001 + (u64)index);
    std::vector<std::uint8_t> lastProof;
    std::vector<std::uint8_t> lastPublic;
    std::string lastCircuit;
    std::uint64_t next_id = (std::uint64_t)index << 32;

    while (ctl.claim()) {
        const bool verify =
            wantVerify(rng, opt.verifyFrac, !lastProof.empty());
        const MixItem& item =
            mix[mix.size() == 1 ? 0 : rng.nextBelow(mix.size())];
        const Workload w =
            verify ? Workload{} : makeWorkload(rng, item);
        const double t0 = wallNow();
        wire::Result result;
        bool io_ok = true;
        while (true) {
            wire::Frame req;
            req.id = ++next_id;
            if (verify) {
                wire::VerifyRequest m;
                m.priority = serve::Priority::Batch;
                m.circuit = lastCircuit;
                m.publicInputs = lastPublic;
                m.proof = lastProof;
                req.type = wire::MsgType::VerifyRequest;
                req.body = wire::encodeVerifyRequest(m);
            } else {
                wire::ProveRequest m;
                m.circuit = item.id;
                m.publicInputs = w.publicInputs;
                m.privateInputs = w.privateInputs;
                req.type = wire::MsgType::ProveRequest;
                req.body = wire::encodeProveRequest(m);
            }
            wire::Frame resp;
            if (!wire::writeFrame(fd, req) ||
                !wire::readFrame(fd, resp) ||
                resp.type != wire::MsgType::Result) {
                io_ok = false;
                break;
            }
            auto decoded = wire::decodeResult(resp.body);
            if (!decoded) {
                io_ok = false;
                break;
            }
            result = std::move(*decoded);
            if (result.status != serve::Status::QueueFull)
                break;
            stats.queueFullRetries++;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
        if (!io_ok) {
            stats.failures++;
            break;
        }
        recordOutcome(stats, result.status, verify, result.valid,
                      wallNow() - t0);
        if (!verify && result.status == serve::Status::Ok) {
            lastProof = std::move(result.proof);
            lastPublic = w.publicInputs;
            lastCircuit = item.id;
        }
    }
    ::close(fd);
}

/** One server-side lane's end-to-end quantiles, in seconds. */
struct ServerLane
{
    std::string kind;
    std::string priority;
    std::uint64_t count = 0;
    double p50 = 0, p99 = 0, p999 = 0;
};

/** Result of scraping the service's own telemetry. */
struct ServerScrape
{
    bool ok = false;
    std::vector<ServerLane> lanes;
};

/** The lane with the most samples for @p kind (the bench issues one
 *  lane per kind: prove/interactive and verify/batch). */
const ServerLane*
pickLane(const ServerScrape& server, const char* kind)
{
    const ServerLane* best = nullptr;
    for (const auto& lane : server.lanes)
        if (lane.kind == kind &&
            (!best || lane.count > best->count))
            best = &lane;
    return best;
}

// --- zkperf-serve-stats/2 field scanning -----------------------------------
// Ad-hoc tolerant scanning of the service's own JSON rendering: no
// general JSON parser, just field extraction from a known document.

std::string
findStringField(const std::string& obj, const char* key)
{
    const std::string pat = std::string("\"") + key + "\":\"";
    const auto p = obj.find(pat);
    if (p == std::string::npos)
        return "";
    const auto start = p + pat.size();
    const auto end = obj.find('"', start);
    return end == std::string::npos ? ""
                                    : obj.substr(start, end - start);
}

double
findNumberField(const std::string& obj, const char* key)
{
    const std::string pat = std::string("\"") + key + "\":";
    const auto p = obj.find(pat);
    if (p == std::string::npos)
        return 0;
    return std::atof(obj.c_str() + p + pat.size());
}

/** The balanced {...} sub-object value of @p key, or "" if absent. */
std::string
findObjectField(const std::string& obj, const char* key)
{
    const std::string pat = std::string("\"") + key + "\":{";
    const auto p = obj.find(pat);
    if (p == std::string::npos)
        return "";
    const auto start = p + pat.size() - 1;
    int depth = 0;
    for (std::size_t i = start; i < obj.size(); ++i) {
        if (obj[i] == '{') {
            ++depth;
        } else if (obj[i] == '}' && --depth == 0) {
            return obj.substr(start, i + 1 - start);
        }
    }
    return "";
}

ServerScrape
parseStatsV2Json(const std::string& json)
{
    ServerScrape out;
    if (findStringField(json, "schema") != "zkperf-serve-stats/2")
        return out;
    out.ok = true;

    const std::string lanesPat = "\"lanes\":[";
    auto p = json.find(lanesPat);
    if (p == std::string::npos)
        return out;
    p += lanesPat.size();
    while (p < json.size() && json[p] != ']') {
        if (json[p] != '{') {
            ++p;
            continue;
        }
        int depth = 0;
        std::size_t end = p;
        for (; end < json.size(); ++end) {
            if (json[end] == '{')
                ++depth;
            else if (json[end] == '}' && --depth == 0)
                break;
        }
        const std::string laneObj = json.substr(p, end + 1 - p);
        ServerLane sl;
        sl.kind = findStringField(laneObj, "kind");
        sl.priority = findStringField(laneObj, "priority");
        const std::string e2e = findObjectField(laneObj, "e2e_us");
        sl.count = (std::uint64_t)findNumberField(e2e, "count");
        sl.p50 = findNumberField(e2e, "p50") / 1e6;
        sl.p99 = findNumberField(e2e, "p99") / 1e6;
        sl.p999 = findNumberField(e2e, "p999") / 1e6;
        out.lanes.push_back(std::move(sl));
        p = end + 1;
    }
    return out;
}

/** Fetch the raw stats/v2 document from a running zkperfd. */
bool
scrapeStatsV2Socket(const std::string& path, std::string& jsonOut)
{
    namespace wire = serve::wire;
    const int fd = wire::connectUnix(path);
    if (fd < 0)
        return false;
    wire::Frame req;
    req.type = wire::MsgType::StatsV2Request;
    req.id = 1;
    wire::Frame resp;
    const bool io_ok = wire::writeFrame(fd, req) &&
                       wire::readFrame(fd, resp) &&
                       resp.type == wire::MsgType::StatsV2Response;
    ::close(fd);
    if (!io_ok)
        return false;
    auto decoded = wire::decodeStatsV2Response(resp.body);
    if (!decoded)
        return false;
    jsonOut = std::move(decoded->json);
    return true;
}

/**
 * Server-vs-client latency agreement gate (see the file comment for
 * the tolerance rationale). Only meaningful when every request
 * completed: failures break the 1:1 pairing between client-observed
 * windows and server lifecycle records. Returns the violation count.
 */
int
crossCheckServer(const ServerScrape& server,
                 std::vector<double> proveSorted,
                 std::vector<double> verifySorted)
{
    int violations = 0;
    std::sort(proveSorted.begin(), proveSorted.end());
    std::sort(verifySorted.begin(), verifySorted.end());
    for (const char* kind : {"prove", "verify"}) {
        const auto& client = std::strcmp(kind, "prove") == 0
                                 ? proveSorted
                                 : verifySorted;
        const ServerLane* lane = pickLane(server, kind);
        if (client.empty() || !lane || lane->count == 0)
            continue;
        const double clientP50 = bench::percentile(client, 0.50);
        const double limit = clientP50 * 2.0 + 0.010;
        std::printf("bench_serve: cross-check %s: server p50=%.6fs "
                    "client p50=%.6fs (limit %.6fs)\n",
                    kind, lane->p50, clientP50, limit);
        if (lane->p50 > limit) {
            std::fprintf(
                stderr,
                "bench_serve: FAILED cross-check — server-side %s "
                "p50 %.6fs exceeds client-observed p50 %.6fs beyond "
                "tolerance (2x + 10ms); the server-side lifespan is "
                "a strict subset of the client window, so this "
                "indicates a clock or accounting bug\n",
                kind, lane->p50, clientP50);
            ++violations;
        }
    }
    return violations;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    bool smoke = false;
    bool log2_given = false, requests_given = false;

    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char* flag) -> const char* {
            if (std::strcmp(argv[i], flag) != 0)
                return nullptr;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(usage(argv[0]));
            }
            return argv[++i];
        };
        if (const char* v = value("--clients")) {
            opt.clients = (std::size_t)std::atoi(v);
        } else if (const char* v = value("--seconds")) {
            opt.seconds = std::atof(v);
        } else if (const char* v = value("--requests")) {
            opt.requests = (std::uint64_t)std::atoll(v);
            requests_given = true;
        } else if (const char* v = value("--log2")) {
            opt.log2N = (std::size_t)std::atoi(v);
            log2_given = true;
        } else if (const char* v = value("--circuit")) {
            opt.circuitSpecs.emplace_back(v);
        } else if (const char* v = value("--verify-frac")) {
            opt.verifyFrac = std::atof(v);
        } else if (const char* v = value("--socket")) {
            opt.socketPath = v;
        } else if (const char* v = value("--stats-dump")) {
            opt.statsDumpPath = v;
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return usage(argv[0]);
        }
    }
    if (smoke) {
        if (!requests_given)
            opt.requests = 200;
        if (!log2_given)
            opt.log2N = 8;
    }
    if (opt.clients == 0 || opt.log2N < 1 || opt.log2N > 22 ||
        opt.verifyFrac < 0 || opt.verifyFrac > 1) {
        std::fprintf(stderr, "invalid option values\n");
        return usage(argv[0]);
    }
    if (opt.socketPath.empty()) {
        std::fprintf(stderr, "--socket <path> is required\n");
        return usage(argv[0]);
    }

    if (!opt.statsDumpPath.empty()) {
        std::string json;
        if (!scrapeStatsV2Socket(opt.socketPath, json)) {
            std::fprintf(stderr,
                         "bench_serve: stats/v2 scrape of %s failed\n",
                         opt.socketPath.c_str());
            return 1;
        }
        if (!writeFile(opt.statsDumpPath, json)) {
            std::fprintf(stderr, "bench_serve: cannot write %s\n",
                         opt.statsDumpPath.c_str());
            return 1;
        }
        std::printf("bench_serve: wrote stats/v2 snapshot to %s\n",
                    opt.statsDumpPath.c_str());
        return 0;
    }

    std::vector<MixItem> mix;
    if (!resolveMix(opt, mix))
        return usage(argv[0]);
    std::string mix_label;
    for (const auto& item : mix)
        mix_label += (mix_label.empty() ? "" : ",") + item.id;

    std::printf("bench_serve: socket %s, circuits=%s clients=%zu %s "
                "verify_frac=%.2f\n",
                opt.socketPath.c_str(), mix_label.c_str(), opt.clients,
                opt.requests
                    ? (std::string("requests=") +
                       std::to_string(opt.requests))
                          .c_str()
                    : (std::string("seconds=") +
                       std::to_string(opt.seconds))
                          .c_str(),
                opt.verifyFrac);
    std::fflush(stdout);

    RunControl ctl;
    ctl.requestLimit = opt.requests;
    std::vector<ClientStats> stats(opt.clients);
    std::vector<std::thread> clients;
    std::atomic<bool> connect_failed{false};
    // A daemon that died mid-exchange must yield an EPIPE write error
    // (counted as a failure), not kill the load generator.
    std::signal(SIGPIPE, SIG_IGN);
    const double t_start = wallNow();
    for (std::size_t c = 0; c < opt.clients; ++c)
        clients.emplace_back([&, c] {
            clientLoopSocket(mix, opt, ctl, c, stats[c], connect_failed);
        });
    if (opt.requests == 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opt.seconds));
        ctl.stop.store(true);
    }
    for (auto& t : clients)
        t.join();
    const double elapsed = wallNow() - t_start;
    if (connect_failed.load()) {
        std::fprintf(stderr, "bench_serve: cannot connect to %s\n",
                     opt.socketPath.c_str());
        return 1;
    }
    std::string server_json;
    ServerScrape server;
    if (scrapeStatsV2Socket(opt.socketPath, server_json))
        server = parseStatsV2Json(server_json);

    ClientStats total;
    for (const auto& s : stats) {
        total.proveLatency.insert(total.proveLatency.end(),
                                  s.proveLatency.begin(),
                                  s.proveLatency.end());
        total.verifyLatency.insert(total.verifyLatency.end(),
                                   s.verifyLatency.begin(),
                                   s.verifyLatency.end());
        total.queueFullRetries += s.queueFullRetries;
        total.failures += s.failures;
        total.completed += s.completed;
    }

    TextTable table;
    table.setHeader(
        {"kind", "count", "p50", "p95", "p99", "p999", "mean"});
    for (const char* kind : {"prove", "verify"}) {
        auto samples = std::strcmp(kind, "prove") == 0
                           ? total.proveLatency
                           : total.verifyLatency;
        if (samples.empty())
            continue;
        std::sort(samples.begin(), samples.end());
        double sum = 0;
        for (double s : samples)
            sum += s;
        table.addRow({kind, std::to_string(samples.size()),
                      fmtSeconds(bench::percentile(samples, 0.50)),
                      fmtSeconds(bench::percentile(samples, 0.95)),
                      fmtSeconds(bench::percentile(samples, 0.99)),
                      fmtSeconds(bench::percentile(samples, 0.999)),
                      fmtSeconds(sum / (double)samples.size())});
    }
    bench::printTable("serve latency (closed loop)", table);
    std::printf("bench_serve: completed=%llu failed=%llu "
                "queue_full_retries=%llu elapsed=%.2fs "
                "throughput=%.2f req/s\n",
                (unsigned long long)total.completed,
                (unsigned long long)total.failures,
                (unsigned long long)total.queueFullRetries, elapsed,
                elapsed > 0 ? (double)total.completed / elapsed : 0);
    // A daemon that served the load but cannot report it has a broken
    // stats op; without the scrape there is nothing to cross-check.
    if (!server.ok) {
        std::fprintf(stderr,
                     "bench_serve: FAILED — stats/v2 scrape of %s after "
                     "the load run failed\n",
                     opt.socketPath.c_str());
        return 1;
    }
    TextTable stable;
    stable.setHeader({"server lane", "count", "p50", "p99", "p999"});
    for (const auto& lane : server.lanes) {
        if (lane.count == 0)
            continue;
        stable.addRow({lane.kind + "/" + lane.priority,
                       std::to_string(lane.count), fmtSeconds(lane.p50),
                       fmtSeconds(lane.p99), fmtSeconds(lane.p999)});
    }
    bench::printTable("serve latency (server lifecycle)", stable);

    if (total.failures > 0) {
        std::fprintf(stderr,
                     "bench_serve: FAILED — %llu request(s) did not "
                     "complete successfully\n",
                     (unsigned long long)total.failures);
        return 1;
    }
    if (crossCheckServer(server, total.proveLatency,
                         total.verifyLatency) > 0)
        return 1;
    return 0;
}
