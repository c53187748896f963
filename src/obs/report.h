/**
 * @file
 * Run reports: one machine-readable record per measured stage
 * execution (core::measureStage), accumulated process-wide and
 * serialized to a single JSON document.
 *
 * A record carries the stage identity (stage, curve, constraint
 * count, threads), its wall time, the instrumented counter deltas
 * (passed in as generic name/value pairs so obs does not depend on
 * the sim layer) and — when tracing is active — the top spans by
 * total time, which is the per-kernel attribution the paper's Table
 * IV reports per stage.
 *
 * Activation: every core::StageRunner stage records, and a STARK stage
 * records when it counts or runs under span tracing; write the
 * document with writeRunReport(path), the ZKP_REPORT=path environment
 * variable (flushed at exit), or profile_pipeline --json <path>.
 */

#ifndef ZKP_OBS_REPORT_H
#define ZKP_OBS_REPORT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/memprof.h"

namespace zkp::obs {

/** Per-kernel time attribution entry (from span aggregates). */
struct KernelStat
{
    std::string name;
    std::uint64_t count = 0;
    double seconds = 0;
    /// Summed per-span hardware deltas (ZKP_PMU_SPANS=1 only).
    std::uint64_t hwCycles = 0;
    std::uint64_t hwInstructions = 0;
    /// Summed per-span allocation bytes (ZKP_MEMPROF_SPANS=1 only).
    std::uint64_t allocBytes = 0;
};

/** One instrumented stage execution. */
struct StageReport
{
    std::string stage;
    std::string curve;
    std::size_t constraints = 0;
    std::size_t threads = 0;
    double seconds = 0;
    /// Instrumented event-counter deltas for this run (name, value).
    std::vector<std::pair<std::string, double>> counters;
    /// Measured hardware-counter statistics (obs/pmu.h), empty with
    /// hwAvailable=false when the machine denies perf access.
    bool hwAvailable = false;
    std::vector<std::pair<std::string, double>> hw;
    /// Spans recorded during this run, heaviest first (tracing only).
    std::vector<KernelStat> topSpans;
    /// Memory accounting for this run: RSS fields are always
    /// captured; allocator fields (alloc_*, top sites) need
    /// ZKP_MEMPROF=1 (mem.tracked marks them valid).
    memprof::StageMem mem;
};

/** Append one record to the process-wide report. Thread-safe. */
void recordStageReport(StageReport report);

/** Snapshot of every record accumulated so far. */
std::vector<StageReport> stageReports();

/** Drop all accumulated records. */
void clearStageReports();

/**
 * Render the accumulated records plus a metrics-registry snapshot as
 * one JSON document: {"schema":…, "stages":[…], "metrics":{…}}.
 */
std::string runReportJson();

/** Write runReportJson() to @p path. Returns false on I/O failure. */
bool writeRunReport(const std::string& path);

/** True when ZKP_REPORT armed the at-exit writeRunReport. */
bool reportAtExit();

} // namespace zkp::obs

#endif // ZKP_OBS_REPORT_H
