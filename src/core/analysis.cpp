#include "core/analysis.h"

#include <algorithm>

namespace zkp::core {

CpuSinks::CpuSinks(const SweepConfig& cfg)
    : scale_((double)(cfg.sampleMask + 1)),
      windowInstr_(cfg.bandwidthWindowInstr)
{
    for (const sim::CpuModel* cpu : sim::allCpuModels()) {
        caches_.push_back(std::make_unique<sim::CacheHierarchy>(
            cpu->makeHierarchy(windowInstr_)));
        predictors_.push_back(std::make_unique<sim::GsharePredictor>(
            cpu->name, cpu->predictorBits));
        sinks_.push_back(caches_.back().get());
        sinks_.push_back(predictors_.back().get());
    }
}

std::vector<CpuObservation>
CpuSinks::observations() const
{
    std::vector<CpuObservation> out;
    const auto& models = sim::allCpuModels();
    for (std::size_t i = 0; i < models.size(); ++i) {
        CpuObservation c;
        c.cpu = models[i];
        const sim::CacheHierarchy& h = *caches_[i];
        c.l1Misses = (double)h.l1().stats().misses * scale_;
        c.l2Misses = (double)h.l2().stats().misses * scale_;
        c.llcLoadMisses = (double)h.llcLoadMisses() * scale_;
        c.llcTotalMisses =
            (double)(h.llcLoadMisses() + h.llcStoreMisses()) * scale_;
        c.dramBytes = (double)h.dramBytes() * scale_;
        c.peakWindowBytes = (double)h.peakWindowBytes() * scale_;
        c.windowInstr = windowInstr_;
        c.branchEvents = (double)predictors_[i]->stats().events;
        c.branchMispredicts = (double)predictors_[i]->stats().mispredicts;
        out.push_back(c);
    }
    return out;
}

double
stageBandwidthConcurrency(Stage s, const sim::CpuModel& cpu)
{
    // Fraction of the P-cores each stage keeps busy in the paper's
    // one-thread-per-core configuration; derived from the stages'
    // parallel structure (see DESIGN.md §6 and `bench_paper table6`).
    double f;
    switch (s) {
      case Stage::Compile:
        f = 0.45;
        break;
      case Stage::Setup:
        f = 1.0;
        break;
      case Stage::Witness:
        f = 0.15;
        break;
      case Stage::Proving:
        f = 1.0;
        break;
      case Stage::Verifying:
        f = 0.30;
        break;
      default:
        f = 1.0;
        break;
    }
    return std::max(1.0, f * (double)cpu.perfCores);
}

std::vector<FunctionShare>
attributeFunctions(const StageRun& run, unsigned base_limbs)
{
    const UnitCosts& u = UnitCosts::get();
    const sim::Counters& c = run.counters;
    const double total_ns = run.seconds * 1e9;

    auto primCount = [&](sim::PrimOp op) {
        return (double)c.prim[(std::size_t)op];
    };

    double t_bigint =
        (double)c.imuls * u.nsPerImul +
        primCount(sim::PrimOp::FieldAdd) * base_limbs * u.nsPerAddLimb;
    double t_memcpy =
        (double)c.memcpyBytes * u.nsPerMemcpyByte +
        primCount(sim::PrimOp::FieldCopy) * base_limbs * 8 *
            u.nsPerMemcpyByte;
    double t_alloc = primCount(sim::PrimOp::Alloc) * u.nsPerAlloc;
    double t_dispatch =
        (primCount(sim::PrimOp::GateDispatch) +
         primCount(sim::PrimOp::SparseEntry)) *
        u.nsPerDispatch;

    std::vector<FunctionShare> out{
        {"bigint", t_bigint},
        {"memcpy", t_memcpy},
        {"heap allocation (malloc)", t_alloc},
        {"interpreter dispatch", t_dispatch},
    };

    double attributed = 0;
    for (auto& f : out)
        attributed += f.pct;

    // Clamp: analytical attribution can overshoot short stages whose
    // wall time is dominated by fixed overheads.
    const double denom = std::max(total_ns, attributed);
    for (auto& f : out)
        f.pct = denom > 0 ? 100.0 * f.pct / denom : 0.0;
    out.push_back(
        {"other", denom > 0
                      ? 100.0 * std::max(0.0, denom - attributed) / denom
                      : 0.0});

    std::sort(out.begin(), out.end(),
              [](const FunctionShare& a, const FunctionShare& b) {
                  return a.pct > b.pct;
              });
    return out;
}

double
modelStrongSpeedup(double total_sec, double parallel_sec,
                   unsigned threads, const sim::CpuModel& cpu)
{
    if (total_sec <= 0)
        return 1.0;
    parallel_sec = std::min(parallel_sec, total_sec);
    const double serial_sec = total_sec - parallel_sec;
    const double cap = cpu.effectiveCapacity(threads);
    const double t_k = serial_sec + parallel_sec / cap +
                       (double)threads * kThreadSpawnSeconds;
    return total_sec / t_k;
}

} // namespace zkp::core
