/**
 * @file
 * zkperfd: a Unix-domain-socket proof-serving daemon over the
 * ProofService (src/serve/), speaking the length-prefixed binary
 * protocol of serve/protocol.h. The socket side (accept loop,
 * per-connection dispatch, drain) is serve::Server
 * (serve/server.h); this file parses flags, registers and prewarms
 * circuits, and writes metrics snapshots.
 *
 * Run: ./build/examples/zkperfd [--socket <path>] [--log2 <k>]
 *          [--circuit <zoo>[:scale]] [--stark <air>[:steps]]
 *          [--workers <n>] [--queue <n>]
 *          [--prove-threads <n>] [--no-prewarm]
 *          [--metrics-interval <sec>] [--metrics-file <path>]
 *
 *   --socket         listening path (default /tmp/zkperfd.sock)
 *   --log2           registers the exponentiation circuit "exp<k>"
 *                    at 2^k constraints on BN254 (default 12)
 *   --circuit        additionally registers a circuit-zoo entry on
 *                    BN254 under the wire id "<zoo>:<scale>" (scale
 *                    defaults to the catalog's default). Repeatable;
 *                    see `bench_circuits --list` for names.
 *   --stark          registers a transparent STARK circuit ("fib" or
 *                    "mimc", trace length defaults to 1024) under the
 *                    wire id "stark-<air>:<steps>". STARK hosts are
 *                    setup-free: they carry no key-cache entry, are
 *                    skipped by prewarm, and serve their first
 *                    request with zero cold-start (the stats/v2
 *                    "keyless_serves" counter tracks them).
 *   --workers        service worker threads (default 2)
 *   --queue          bounded queue capacity (default 128)
 *   --prove-threads  parallelFor width per prove (default: all cores)
 *   --no-prewarm     skip building keys at startup (first request
 *                    then pays the singleflight setup)
 *   --metrics-interval  seconds between metrics snapshots written to
 *                    the metrics file (0 = off, the default; at most
 *                    86400)
 *   --metrics-file   where snapshots go (default
 *                    /tmp/zkperfd.metrics.json). Each write replaces
 *                    the file with one zkperf-serve-stats/2 document
 *                    (atomic rename, so readers never see a torn
 *                    file) — the same convention zkperf-run-report
 *                    files follow: poll the path, parse the whole
 *                    document.
 *
 * Unknown flags are an error (usage + exit 2), not silently ignored,
 * and so is a count that is not a positive decimal integer: the value
 * of --log2, --workers, --queue and --prove-threads, and the part
 * after ':' in --circuit and --stark. So is a --metrics-interval that
 * is not a finite decimal number in [0, 86400].
 * SIGINT/SIGTERM drain the service (in-flight and queued requests
 * complete, new ones are rejected with ShuttingDown) before exit; on
 * drain a final metrics snapshot is flushed to the metrics file (or
 * stderr when none was configured), so a supervised daemon never dies
 * without handing over its telemetry.
 * Set ZKP_TRACE / ZKP_REPORT to capture the daemon's serve_prove /
 * serve_verify / serve_key_build spans in traces and run reports like
 * any bench run; per-request quantities live in the stats/v2
 * document.
 */

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "serve/circuit_host.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/stark_host.h"

namespace {

/// The server that SIGINT/SIGTERM stop; set before the handlers are
/// installed.
zkp::serve::Server* gServer = nullptr;

void
onSignal(int)
{
    gServer->stop();
}

int
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--socket <path>] [--log2 <k>]\n"
        "          [--circuit <zoo>[:scale]] [--stark <air>[:steps]]\n"
        "          [--workers <n>]\n"
        "          [--queue <n>] [--prove-threads <n>] [--no-prewarm]\n"
        "          [--metrics-interval <sec>] [--metrics-file <path>]\n",
        argv0);
    return 2;
}

int
badValue(const char* argv0, const char* flag, const char* v,
         const char* rule = "counts are positive decimal integers")
{
    std::fprintf(stderr, "invalid %s value \"%s\": %s\n", flag, v, rule);
    return usage(argv0);
}

/**
 * Replace @p path with @p json via write-to-temp + rename, so a
 * concurrent reader always sees a complete document. Falls back to
 * stderr on I/O failure rather than dropping the snapshot.
 */
void
writeSnapshotFile(const std::string& path, const std::string& json)
{
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f) {
        const bool ok =
            std::fwrite(json.data(), 1, json.size(), f) ==
                json.size() &&
            std::fputc('\n', f) != EOF;
        const bool closed = std::fclose(f) == 0;
        if (ok && closed &&
            std::rename(tmp.c_str(), path.c_str()) == 0)
            return;
        std::remove(tmp.c_str());
    }
    std::fprintf(stderr,
                 "zkperfd: cannot write metrics snapshot to %s\n%s\n",
                 path.c_str(), json.c_str());
}

/**
 * A positive decimal integer: digits only, no sign, no suffix, no
 * overflow. Anything else leaves @p out alone and returns false.
 */
bool
parsePositive(std::string_view text, std::size_t& out)
{
    std::size_t v = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v == 0)
        return false;
    out = v;
    return true;
}

/**
 * A snapshot interval in seconds: a finite decimal number from 0 to
 * one day, with no suffix or surrounding space. Anything else leaves
 * @p out alone and returns false.
 */
bool
parseInterval(std::string_view text, double& out)
{
    double v = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0 ||
        v > 86400)
        return false;
    out = v;
    return true;
}

/**
 * Split a "<name>[:n]" flag value into (name, n). n is 0 without a
 * colon; after one it must be a positive decimal integer.
 */
bool
parseSpec(const std::string& spec,
          std::pair<std::string, std::size_t>& out)
{
    const auto colon = spec.find(':');
    out = {spec.substr(0, colon), 0};
    return colon == std::string::npos ||
           parsePositive(std::string_view(spec).substr(colon + 1),
                         out.second);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace zkp;

    std::string socket_path = "/tmp/zkperfd.sock";
    std::size_t log2_constraints = 12;
    // "<name>[:n]" flag values, n = 0 when absent.
    std::vector<std::pair<std::string, std::size_t>> circuit_specs;
    std::vector<std::pair<std::string, std::size_t>> stark_specs;
    serve::ServiceConfig cfg;
    bool prewarm = true;
    double metrics_interval = 0;
    std::string metrics_file;

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
        if (const char* v = value("--socket")) {
            socket_path = v;
        } else if (const char* v = value("--log2")) {
            if (!parsePositive(v, log2_constraints))
                return badValue(argv[0], "--log2", v);
        } else if (const char* v = value("--circuit")) {
            if (!parseSpec(v, circuit_specs.emplace_back()))
                return badValue(argv[0], "--circuit", v);
        } else if (const char* v = value("--stark")) {
            if (!parseSpec(v, stark_specs.emplace_back()))
                return badValue(argv[0], "--stark", v);
        } else if (const char* v = value("--workers")) {
            if (!parsePositive(v, cfg.workers))
                return badValue(argv[0], "--workers", v);
        } else if (const char* v = value("--queue")) {
            if (!parsePositive(v, cfg.queueCapacity))
                return badValue(argv[0], "--queue", v);
        } else if (const char* v = value("--prove-threads")) {
            if (!parsePositive(v, cfg.proveThreads))
                return badValue(argv[0], "--prove-threads", v);
        } else if (const char* v = value("--metrics-interval")) {
            if (!parseInterval(v, metrics_interval))
                return badValue(argv[0], "--metrics-interval", v,
                                "seconds in [0, 86400]");
        } else if (const char* v = value("--metrics-file")) {
            metrics_file = v;
        } else if (std::strcmp(argv[i], "--no-prewarm") == 0) {
            prewarm = false;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return usage(argv[0]);
        }
    }
    if (log2_constraints < 1 || log2_constraints > 22) {
        std::fprintf(stderr, "--log2 out of range [1, 22]\n");
        return usage(argv[0]);
    }

    serve::ProofService service(cfg);
    serve::Server server(service, socket_path);
    gServer = &server;

    // Install the shutdown handlers BEFORE registration and prewarm:
    // a supervisor's SIGTERM during a minutes-long key prewarm must
    // still reach the drain-time telemetry flush at the bottom
    // instead of the default terminate action (which would lose the
    // final metrics window of a --metrics-file run).
    struct sigaction sa{};
    sa.sa_handler = onSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    // A client that disconnects before its (slow) prove response is
    // written must not kill the daemon. writeAll already sends with
    // MSG_NOSIGNAL; this covers any other write to a dead peer.
    std::signal(SIGPIPE, SIG_IGN);

    char circuit_name[32];
    std::snprintf(circuit_name, sizeof(circuit_name), "exp%zu",
                  log2_constraints);
    service.registerCircuit(
        serve::makeExponentiationHost<snark::Bn254>(
            circuit_name, std::size_t(1) << log2_constraints, 2024,
            service.config().proveThreads));
    // Zoo-keyed circuits: "<zoo>[:scale]" -> wire id "<zoo>:<scale>".
    std::vector<std::string> zoo_ids;
    for (auto [zoo_name, scale] : circuit_specs) {
        const auto* entry =
            r1cs::zoo::find<snark::Bn254::Fr>(zoo_name);
        if (!entry) {
            std::fprintf(stderr,
                         "zkperfd: unknown zoo circuit \"%s\"\n",
                         zoo_name.c_str());
            return usage(argv[0]);
        }
        if (scale == 0)
            scale = entry->defaultScale;
        std::string id = zoo_name + ":" + std::to_string(scale);
        service.registerCircuit(serve::makeZooHost<snark::Bn254>(
            id, zoo_name, scale, 2024,
            service.config().proveThreads));
        zoo_ids.push_back(std::move(id));
    }
    // Transparent STARK circuits: "<air>[:steps]" -> wire id
    // "stark-<air>:<steps>". Never prewarmed — there is no key.
    for (auto [air_name, steps] : stark_specs) {
        if (steps == 0)
            steps = 1024;
        if (steps < 16 || (steps & (steps - 1)) != 0) {
            std::fprintf(stderr,
                         "zkperfd: --stark steps must be a power of "
                         "two >= 16 (got %zu)\n",
                         steps);
            return usage(argv[0]);
        }
        const std::string id =
            "stark-" + air_name + ":" + std::to_string(steps);
        if (air_name == "fib") {
            service.registerCircuit(
                serve::makeStarkFibHost(id, steps));
        } else if (air_name == "mimc") {
            service.registerCircuit(
                serve::makeStarkMimcHost(id, steps));
        } else {
            std::fprintf(stderr,
                         "zkperfd: unknown STARK air \"%s\" "
                         "(fib, mimc)\n",
                         air_name.c_str());
            return usage(argv[0]);
        }
        std::printf("zkperfd: registered %s (setup-free, no key "
                    "cache entry)\n",
                    id.c_str());
    }
    if (prewarm && !server.stopping()) {
        std::printf("zkperfd: prewarming keys for %s (2^%zu "
                    "constraints)...\n",
                    circuit_name, log2_constraints);
        service.prewarm(circuit_name);
        for (const std::string& id : zoo_ids) {
            if (server.stopping())
                break; // signal mid-prewarm: fall through to drain
            std::printf("zkperfd: prewarming keys for %s...\n",
                        id.c_str());
            service.prewarm(id);
        }
    }

    if (!server.stopping()) {
        if (!server.listen()) {
            std::fprintf(stderr, "zkperfd: cannot listen on %s: %s\n",
                         socket_path.c_str(), std::strerror(errno));
            return 1;
        }
        std::printf("zkperfd: serving %s on %s (workers=%zu "
                    "queue=%zu prove-threads=%zu sha256=%s)\n",
                    circuit_name, socket_path.c_str(),
                    service.config().workers,
                    service.config().queueCapacity,
                    service.config().proveThreads,
                    stark::shaImplName());
        std::fflush(stdout);
    }

    // Periodic metrics snapshots. Sleeps in small slices so a drain
    // signal is honored within ~100 ms instead of a full interval.
    std::thread metrics_thread;
    if (metrics_interval > 0) {
        if (metrics_file.empty())
            metrics_file = "/tmp/zkperfd.metrics.json";
        metrics_thread = std::thread([&service, &server, &metrics_file,
                                      metrics_interval] {
            using namespace std::chrono;
            auto next = steady_clock::now() +
                        duration_cast<steady_clock::duration>(
                            duration<double>(metrics_interval));
            while (!server.stopping()) {
                std::this_thread::sleep_for(milliseconds(100));
                if (steady_clock::now() < next)
                    continue;
                writeSnapshotFile(metrics_file, service.statsJson());
                next += duration_cast<steady_clock::duration>(
                    duration<double>(metrics_interval));
            }
        });
    }

    server.run();
    std::printf("zkperfd: draining...\n");
    std::fflush(stdout);
    service.drain();
    // run() also returns when accept() fails; stop the metrics
    // thread either way.
    server.stop();
    if (metrics_thread.joinable())
        metrics_thread.join();

    // Final telemetry handover: after the drain every request has
    // settled, so this snapshot is the complete record of the run;
    // the exit line below reads the same snapshot.
    const serve::ServiceStatsSnapshot s = service.snapshotStats();
    const std::string final_snapshot = serve::statsJson(s);
    if (!metrics_file.empty())
        writeSnapshotFile(metrics_file, final_snapshot);
    else
        std::fprintf(stderr, "%s\n", final_snapshot.c_str());

    std::printf("zkperfd: done. accepted=%llu completed=%llu "
                "queue_full=%llu deadline=%llu canceled=%llu "
                "cache{builds=%llu hits=%llu evictions=%llu}\n",
                (unsigned long long)s.accepted,
                (unsigned long long)s.completed,
                (unsigned long long)s.rejectedQueueFull,
                (unsigned long long)s.deadlineExceeded,
                (unsigned long long)s.canceled,
                (unsigned long long)s.cache.builds,
                (unsigned long long)s.cache.hits,
                (unsigned long long)s.cache.evictions);
    return 0;
}
