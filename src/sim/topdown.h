/**
 * @file
 * Top-down microarchitecture slot classification (Yasin, ISPASS 2014;
 * paper §III-A).
 *
 * Given the instrumented event stream of one pipeline stage
 * (instruction mix, simulated cache misses, simulated branch
 * mispredictions, code-footprint estimate) and a CpuModel, the model
 * derives cycle components and classifies the pipeline slots into the
 * four VTune top-level buckets: front-end bound, bad speculation,
 * back-end bound and retiring.
 *
 * Cycle model (all per-thread, steady state):
 *   c_retire = uops / issueWidth                    (ideal issue)
 *   c_core   = max(imuls/mulThroughput,
 *                  imuls*mulLatency/depIlp)         (dependency chains)
 *   c_mem    = (L1m*L2lat + L2m*LLClat + LLCm*MEMlat) / MLP
 *   c_fe     = decode excess (uop-cache overflow) + instruction
 *              streaming when the code dwarfs L1i + taken-branch and
 *              indirect-dispatch fetch bubbles
 *   c_spec   = (hard-branch mispredicts + easy-branch baseline) *
 *              penalty
 *   total    = max(c_retire, c_core) + c_mem + c_fe + c_spec
 * Slot fractions follow VTune's accounting: retiring = c_retire/total,
 * front-end = c_fe/total, bad speculation = c_spec/total, and back-end
 * the remainder (core + memory stalls).
 */

#ifndef ZKP_SIM_TOPDOWN_H
#define ZKP_SIM_TOPDOWN_H

#include <string>

#include "sim/counters.h"
#include "sim/cpu_model.h"

namespace zkp::sim {

/** Aggregated observation of one stage run, input to the model. */
struct StageEvents
{
    /// Instrumented instruction counters for the stage.
    Counters counters;
    /// Demand misses per level (every access traced).
    double l1Misses = 0;
    double l2Misses = 0;
    double llcMisses = 0;
    /// Instrumented data-dependent branch outcomes fed to the
    /// predictor model, and how many it mispredicted.
    double branchEvents = 0;
    double branchMispredicts = 0;
    /// Fraction of conditional branches that are taken (default 0.5).
    double takenFraction = 0.5;
    /// Static uop footprint of the stage's hot code (see
    /// core::stageFootprintUops).
    double hotCodeUops = 4096;
};

/** Slot fractions; sums to 1. */
struct TopDownResult
{
    double frontend = 0;
    double badSpeculation = 0;
    double backend = 0;
    double retiring = 0;

    /// Derived cycle count (per thread) backing the fractions.
    double totalCycles = 0;

    /** Name of the dominant non-retiring bucket ("front-end bound",
     *  "back-end bound" or "bad speculation"); "retiring" if it
     *  dominates everything. */
    std::string boundCategory() const;
};

/** Classify one stage's slots against one CPU model. */
TopDownResult classifyTopDown(const StageEvents& ev, const CpuModel& cpu);

} // namespace zkp::sim

#endif // ZKP_SIM_TOPDOWN_H
