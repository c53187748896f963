/**
 * @file
 * zkbench: the benchmark's driver binary. run.py builds and runs it;
 * it is not meant to be called by hand, but can be:
 *
 *   zkbench <snark-sweep|stark-sweep|serve-mix|layers>
 *           --seed <n> --seconds <s> --threads <n> --trace <0|1>
 *           --out <file> [--socket <path>] [--clients <n>]
 *           [--setup-reps <n>] [--setup-only]
 *
 * Writes the raw samples, values, output-check tallies and (with
 * --trace 1) the span log to --out as JSON. Exits 1 when an output
 * check failed, 2 on usage errors.
 */

#include <cstdlib>
#include <cstring>

#include "record.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: zkbench <snark-sweep|stark-sweep|serve-mix|layers>"
                 " --seed <n> --seconds <s> --threads <n> --trace <0|1>"
                 " --out <file> [--socket <path>] [--clients <n>]"
                 " [--setup-reps <n>] [--setup-only]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace zkbench;
    if (argc < 2)
        return usage();
    Options opt;
    opt.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const char* a = argv[i];
        if (std::strcmp(a, "--setup-only") == 0) {
            opt.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const char* v = argv[++i];
        if (std::strcmp(a, "--seed") == 0)
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (std::strcmp(a, "--seconds") == 0)
            opt.seconds = std::atof(v);
        else if (std::strcmp(a, "--threads") == 0)
            opt.threads = (std::size_t)std::atoi(v);
        else if (std::strcmp(a, "--trace") == 0)
            opt.trace = std::atoi(v) != 0;
        else if (std::strcmp(a, "--out") == 0)
            opt.out = v;
        else if (std::strcmp(a, "--socket") == 0)
            opt.socket = v;
        else if (std::strcmp(a, "--clients") == 0)
            opt.clients = (std::size_t)std::atoi(v);
        else if (std::strcmp(a, "--setup-reps") == 0)
            opt.setupReps = (std::size_t)std::atoi(v);
        else
            return usage();
    }
    if (opt.out.empty() || opt.threads == 0 || opt.clients == 0 ||
        opt.setupReps == 0)
        return usage();

    int (*run)(const Options&, Record&) = nullptr;
    if (opt.mode == "snark-sweep")
        run = runSnarkSweep;
    else if (opt.mode == "stark-sweep")
        run = runStarkSweep;
    else if (opt.mode == "serve-mix")
        run = runServeMix;
    else if (opt.mode == "layers")
        run = runLayers;
    else
        return usage();
    if (opt.mode == "serve-mix" && opt.socket.empty())
        return usage();

    Record rec;
    noteHost(rec, opt);
    rec.setTracing(opt.trace);
    const double t0 = now();
    const int rc = run(opt, rec);
    rec.value("wall_s", now() - t0);
    rec.value("peak_rss_bytes", (double)zkp::obs::memprof::peakRssBytes());
    if (!rec.write(opt.out)) {
        std::fprintf(stderr, "zkbench: cannot write %s\n", opt.out.c_str());
        return 1;
    }
    if (rc != 0)
        return rc;
    return rec.failed() == 0 ? 0 : 1;
}
