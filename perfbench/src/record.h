/**
 * @file
 * What one zkbench run hands back to run.py: raw timing samples,
 * single values, output-check tallies, host facts and (traced runs
 * only) the span log. run.py turns these into the named metrics; the
 * driver itself computes no statistics beyond a median used to pick
 * repeat counts.
 */

#ifndef ZKBENCH_RECORD_H
#define ZKBENCH_RECORD_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace zkbench {

using u64 = std::uint64_t;

/** Monotonic seconds. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Command-line options shared by every mode. */
struct Options
{
    std::string mode;
    u64 seed = 1;
    double seconds = 10;
    std::size_t threads = 1;
    bool trace = false;
    std::string out;
    std::string socket;
    std::size_t clients = 1;
    /// Set-up repeats inside one process (snark-sweep).
    std::size_t setupReps = 3;
    /// Stop after the set-up phase (run.py's extra set-up repeats).
    bool setupOnly = false;
};

class Record
{
  public:
    /**
     * Append one observation to the series @p name; observations taken
     * while spans are recorded go to "<name>@traced" instead, so a
     * traced run can set them against its untraced ones.
     */
    void
    sample(const std::string& name, double v)
    {
        samples_[zkp::obs::tracingEnabled() ? name + "@traced" : name]
            .push_back(v);
    }

    /** Set a single value (overwrites). */
    void
    value(const std::string& name, double v)
    {
        values_[name] = v;
    }

    /** Set a descriptive string (host facts, choices the code made). */
    void
    note(const std::string& name, const std::string& v)
    {
        notes_[name] = v;
    }

    /**
     * Count one output check; a failed one is reported on stderr and
     * makes the run fail.
     */
    void
    check(bool ok, const std::string& what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::fprintf(stderr, "zkbench: CHECK FAILED: %s\n",
                         what.c_str());
        }
    }

    u64 failed() const { return failed_; }

    /**
     * Turn span recording on or off. Turning it off keeps the spans
     * collected so far as one segment (startTracing clears the log
     * and restarts its clock, so segments are analysed apart).
     */
    void setTracing(bool on);

    /** Write everything as one JSON document, with every span
     *  segment recorded by setTracing. */
    bool write(const std::string& path);

  private:
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> values_;
    std::map<std::string, std::string> notes_;
    std::vector<std::vector<zkp::obs::SpanEvent>> segments_;
    u64 attempted_ = 0;
    u64 failed_ = 0;
};

/** Median of a copy of @p v (0 when empty). */
double median(std::vector<double> v);

/** Fill the host facts the library knows (multiply tier, build type). */
void noteHost(Record& rec, const Options& opt);

/** Flip one seeded byte of @p bytes (xor with a nonzero value). */
std::vector<std::uint8_t> flipByte(std::vector<std::uint8_t> bytes,
                                   u64& state);

/** splitmix64 step: the benchmark's own seeded stream. */
u64 nextRand(u64& state);

/**
 * The host-speed probe: a fixed piece of work that calls nothing in the
 * library, so no change to src/ moves it. @p threads threads share a
 * fixed number of chunks, each four independent chains of 64x64->128
 * multiplies (the prover's inner operation) in registers. Returns wall
 * seconds.
 * Taken next to a prove, it reads how fast the shared host runs at that
 * moment; run.py scales prove times by it.
 */
double hostSpeedProbe(std::size_t threads);

// Workload entry points (one translation unit each).
int runSnarkSweep(const Options& opt, Record& rec);
int runStarkSweep(const Options& opt, Record& rec);
int runServeMix(const Options& opt, Record& rec);
int runLayers(const Options& opt, Record& rec);

} // namespace zkbench

#endif // ZKBENCH_RECORD_H
