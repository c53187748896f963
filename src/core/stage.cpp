#include "core/stage.h"

namespace zkp::core {

const char*
stageName(Stage s)
{
    switch (s) {
      case Stage::Compile:
        return "compile";
      case Stage::Setup:
        return "setup";
      case Stage::Witness:
        return "witness";
      case Stage::Proving:
        return "proving";
      case Stage::Verifying:
        return "verifying";
      default:
        return "?";
    }
}

double
stageFootprintUops(Stage s, std::size_t constraints)
{
    // Footprints model the paper's artifacts: circom is a full native
    // compiler binary; the snarkjs stages run WASM-compiled kernels
    // (code inflation ~3x a native build); the verifier leans on the
    // JS bigint library; and the witness calculator is straight-line
    // generated code that grows with the circuit.
    switch (s) {
      case Stage::Compile:
        return 60000; // compiler hot paths: parser, IR, allocators
      case Stage::Setup:
        return 24000; // WASM field kernels + encoder
      case Stage::Witness:
        return 600.0 + 90.0 * (double)constraints;
      case Stage::Proving:
        return 30000; // WASM NTT + Pippenger + field kernels
      case Stage::Verifying:
        return 100000; // JS bigint library + pairing tower
      default:
        return 4096;
    }
}

std::vector<std::pair<std::string, double>>
counterPairs(const sim::Counters& c)
{
    return {
        {"instructions", (double)c.instructions()},
        {"compute", (double)c.compute},
        {"control", (double)c.control},
        {"data", (double)c.data},
        {"loads", (double)c.loads},
        {"stores", (double)c.stores},
        {"branches", (double)c.branches},
        {"imuls", (double)c.imuls},
        {"alloc_bytes", (double)c.allocBytes},
        {"memcpy_bytes", (double)c.memcpyBytes},
    };
}

namespace detail {

StageBracket::StageBracket() : counted_(sim::countingEnabled())
{
    // Span totals before the stage, so the report attributes only
    // this run's kernel time (tracing enabled only).
    if (obs::tracingEnabled())
        spansBefore_ = obs::spanAggregates();
    sim::drainWorkerCounters();
    countersBefore_ = sim::counters();
    // Hardware counters: drop any worker deltas accumulated before
    // the stage, then sample this thread around the measured region
    // (workers add theirs during the region).
    hwOn_ = obs::pmu::enabled() &&
            (obs::pmu::drainWorkerDeltas(), obs::pmu::readThread(hwBefore_));
    // Memory capture brackets exactly the measured region: RSS and
    // peak-RSS deltas always, allocator counters and span sites when
    // ZKP_MEMPROF=1.
    memBefore_ = obs::memprof::snapshot();
}

void
StageBracket::finish(StageRun& run, const char* stage,
                     const std::string& tag, std::size_t work,
                     std::size_t threads) const
{
    run.counters = sim::counters() - countersBefore_;
    run.mem = obs::memprof::stageDelta(memBefore_);
    if (hwOn_) {
        obs::pmu::Sample hw_after;
        if (obs::pmu::readThread(hw_after)) {
            obs::pmu::Sample d = obs::pmu::delta(hwBefore_, hw_after);
            d += obs::pmu::drainWorkerDeltas();
            run.hw = obs::pmu::deriveStats(d, run.seconds);
        }
    }

    obs::StageReport rep;
    rep.stage = stage;
    rep.curve = tag;
    rep.constraints = work;
    rep.threads = threads;
    rep.seconds = run.seconds;
    // A stage recorded for its spans alone reports no counters rather
    // than zeros.
    if (counted_)
        rep.counters = counterPairs(run.counters);
    rep.hwAvailable = run.hw.available;
    rep.hw = obs::pmu::statPairs(run.hw);
    rep.mem = run.mem;
    if (obs::tracingEnabled()) {
        for (const obs::SpanStat& after : obs::spanAggregates()) {
            obs::SpanStat prev;
            for (const obs::SpanStat& b : spansBefore_) {
                if (b.name == after.name) {
                    prev = b;
                    break;
                }
            }
            if (after.count > prev.count) {
                obs::KernelStat k;
                k.name = after.name;
                k.count = after.count - prev.count;
                k.seconds = (double)(after.totalNs - prev.totalNs) / 1e9;
                k.hwCycles = after.totalCycles - prev.totalCycles;
                k.hwInstructions =
                    after.totalInstructions - prev.totalInstructions;
                k.allocBytes = after.totalAllocBytes - prev.totalAllocBytes;
                rep.topSpans.push_back(std::move(k));
            }
        }
    }
    obs::recordStageReport(std::move(rep));
}

} // namespace detail

} // namespace zkp::core
