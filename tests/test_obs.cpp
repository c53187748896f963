/**
 * @file
 * Tests for the observability subsystem (src/obs/): span nesting and
 * thread-lane correctness, histogram bucketing and coherent
 * snapshots, Chrome/Perfetto trace JSON shape, hostile-string JSON
 * escaping, metrics surviving parallelFor worker merges, run reports
 * (including the hardware "hw" section and its graceful PMU
 * fallback, and STARK stages recorded like StageRunner stages),
 * tracer overhead, and the zero-recording disabled path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "ec/msm.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/pmu.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/counters.h"
#include "snark/curve.h"
#include "stark/stark.h"

// Timing assertions are meaningless under the sanitizers (they dilate
// atomics and plain loads by different factors).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ZKP_OBS_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ZKP_OBS_SANITIZED 1
#endif
#endif

namespace zkp {
namespace {

// ------------------------------------------------------------------
// A strict little JSON parser, enough to certify exporter output.
// ------------------------------------------------------------------

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string& s)
        : p_(s.c_str()), end_(s.c_str() + s.size())
    {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return p_ == end_;
    }

  private:
    bool
    value()
    {
        if (p_ >= end_)
            return false;
        switch (*p_) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++p_; // '{'
        skipWs();
        if (p_ < end_ && *p_ == '}') {
            ++p_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (p_ >= end_ || *p_ != ':')
                return false;
            ++p_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (p_ < end_ && *p_ == ',') {
                ++p_;
                continue;
            }
            break;
        }
        if (p_ >= end_ || *p_ != '}')
            return false;
        ++p_;
        return true;
    }

    bool
    array()
    {
        ++p_; // '['
        skipWs();
        if (p_ < end_ && *p_ == ']') {
            ++p_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (p_ < end_ && *p_ == ',') {
                ++p_;
                continue;
            }
            break;
        }
        if (p_ >= end_ || *p_ != ']')
            return false;
        ++p_;
        return true;
    }

    bool
    string()
    {
        if (p_ >= end_ || *p_ != '"')
            return false;
        ++p_;
        while (p_ < end_ && *p_ != '"') {
            if (*p_ == '\\') {
                ++p_;
                if (p_ >= end_)
                    return false;
            }
            ++p_;
        }
        if (p_ >= end_)
            return false;
        ++p_; // closing quote
        return true;
    }

    bool
    number()
    {
        const char* start = p_;
        if (p_ < end_ && (*p_ == '-' || *p_ == '+'))
            ++p_;
        bool digits = false;
        while (p_ < end_ &&
               (std::isdigit((unsigned char)*p_) || *p_ == '.' ||
                *p_ == 'e' || *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
            if (std::isdigit((unsigned char)*p_))
                digits = true;
            ++p_;
        }
        return digits && p_ > start;
    }

    bool
    literal(const char* word)
    {
        const std::size_t len = std::strlen(word);
        if ((std::size_t)(end_ - p_) < len ||
            std::strncmp(p_, word, len) != 0)
            return false;
        p_ += len;
        return true;
    }

    void
    skipWs()
    {
        while (p_ < end_ && std::isspace((unsigned char)*p_))
            ++p_;
    }

    const char* p_;
    const char* end_;
};

void
spinWork()
{
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 2000; ++i)
        sink = sink + i;
}

std::vector<obs::SpanEvent>
spansNamed(const std::vector<obs::SpanEvent>& all, const char* name)
{
    std::vector<obs::SpanEvent> out;
    for (const auto& ev : all)
        if (std::strcmp(ev.name, name) == 0)
            out.push_back(ev);
    return out;
}

// ------------------------------------------------------------------
// Span tracer
// ------------------------------------------------------------------

TEST(TraceTest, SpanNestingDepthAndContainment)
{
    obs::stopTracing();
    obs::startTracing("");
    {
        ZKP_TRACE_SCOPE("obs_outer");
        spinWork();
        {
            ZKP_TRACE_SCOPE("obs_inner", "n", 42);
            spinWork();
        }
        spinWork();
    }
    obs::stopTracing();

    auto spans = obs::collectedSpans();
    auto outer = spansNamed(spans, "obs_outer");
    auto inner = spansNamed(spans, "obs_inner");
    ASSERT_EQ(outer.size(), 1u);
    ASSERT_EQ(inner.size(), 1u);

    EXPECT_EQ(outer[0].depth, 0u);
    EXPECT_EQ(inner[0].depth, 1u);
    EXPECT_EQ(outer[0].tid, inner[0].tid);
    // Containment: inner starts after outer and ends before it.
    EXPECT_GE(inner[0].startNs, outer[0].startNs);
    EXPECT_LE(inner[0].startNs + inner[0].durNs,
              outer[0].startNs + outer[0].durNs);
    // Argument round trip.
    ASSERT_NE(inner[0].argKey, nullptr);
    EXPECT_STREQ(inner[0].argKey, "n");
    EXPECT_EQ(inner[0].argVal, 42u);
}

TEST(TraceTest, WorkerThreadLanes)
{
    obs::stopTracing();
    obs::startTracing("");
    constexpr std::size_t kThreads = 4;
    parallelFor(4096, kThreads,
                [&](std::size_t, std::size_t, std::size_t) {
                    ZKP_TRACE_SCOPE("obs_chunk");
                    spinWork();
                });
    obs::stopTracing();

    auto spans = obs::collectedSpans();
    auto workers = spansNamed(spans, "worker");
    ASSERT_EQ(workers.size(), kThreads);

    std::vector<bool> seen(kThreads, false);
    for (const auto& w : workers) {
        ASSERT_GE(w.tid, obs::kWorkerLaneBase);
        ASSERT_LT(w.tid, obs::kWorkerLaneBase + kThreads);
        seen[w.tid - obs::kWorkerLaneBase] = true;
    }
    for (std::size_t t = 0; t < kThreads; ++t)
        EXPECT_TRUE(seen[t]) << "no span on worker lane " << t;

    // The user chunk span sits inside the worker span on its lane.
    // Chunked dispatch runs the callback once per claimed chunk, so
    // there are at least as many chunk spans as worker slots (exactly
    // kThreads * ThreadPool::kChunksPerSlot for this n).
    auto chunks = spansNamed(spans, "obs_chunk");
    ASSERT_GE(chunks.size(), kThreads);
    ASSERT_LE(chunks.size(), kThreads * ThreadPool::kChunksPerSlot);
    for (const auto& c : chunks) {
        EXPECT_GE(c.tid, obs::kWorkerLaneBase);
        EXPECT_EQ(c.depth, 1u);
    }

    // The orchestrating parallel_for span stays on the calling lane.
    auto pf = spansNamed(spans, "parallel_for");
    ASSERT_GE(pf.size(), 1u);
    EXPECT_LT(pf[0].tid, obs::kWorkerLaneBase);
}

TEST(TraceTest, DisabledPathRecordsNothing)
{
    obs::stopTracing();
    obs::clearTrace();
    ASSERT_FALSE(obs::tracingEnabled());
    {
        ZKP_TRACE_SCOPE("obs_ghost");
        parallelFor(256, 3, [&](std::size_t, std::size_t, std::size_t) {
            ZKP_TRACE_SCOPE("obs_ghost_chunk");
            spinWork();
        });
    }
    EXPECT_TRUE(obs::collectedSpans().empty());
    EXPECT_TRUE(obs::spanAggregates().empty());
    EXPECT_EQ(obs::droppedSpans(), 0u);
}

TEST(TraceTest, TraceJsonIsValidAndPerfettoShaped)
{
    obs::stopTracing();
    obs::startTracing("");
    {
        ZKP_TRACE_SCOPE("obs_json_span", "bytes", 128);
        spinWork();
    }
    parallelFor(1024, 2, [&](std::size_t, std::size_t, std::size_t) {
        spinWork();
    });
    obs::stopTracing();

    const std::string json = obs::traceJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);

    // Chrome trace-event schema essentials.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"obs_json_span\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":"), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"bytes\":128}"), std::string::npos);
    // Lane labels for Perfetto.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"worker-0\""), std::string::npos);
}

TEST(TraceTest, SpanAggregatesSumCounts)
{
    obs::stopTracing();
    obs::startTracing("");
    for (int i = 0; i < 5; ++i) {
        ZKP_TRACE_SCOPE("obs_agg");
        spinWork();
    }
    obs::stopTracing();

    bool found = false;
    for (const auto& s : obs::spanAggregates()) {
        if (std::strcmp(s.name, "obs_agg") == 0) {
            found = true;
            EXPECT_EQ(s.count, 5u);
            EXPECT_GT(s.totalNs, 0u);
        }
    }
    EXPECT_TRUE(found);
}

// ------------------------------------------------------------------
// Metrics
// ------------------------------------------------------------------

TEST(MetricsTest, HistogramBucketing)
{
    EXPECT_EQ(obs::Histogram::bucketOf(0), 0u);
    EXPECT_EQ(obs::Histogram::bucketOf(1), 0u);
    EXPECT_EQ(obs::Histogram::bucketOf(2), 1u);
    EXPECT_EQ(obs::Histogram::bucketOf(3), 1u);
    EXPECT_EQ(obs::Histogram::bucketOf(4), 2u);
    EXPECT_EQ(obs::Histogram::bucketOf(7), 2u);
    EXPECT_EQ(obs::Histogram::bucketOf(8), 3u);
    EXPECT_EQ(obs::Histogram::bucketOf(1023), 9u);
    EXPECT_EQ(obs::Histogram::bucketOf(1024), 10u);
    EXPECT_EQ(obs::Histogram::bucketLow(0), 0u);
    EXPECT_EQ(obs::Histogram::bucketLow(10), 1024u);

    obs::Histogram h;
    for (obs::u64 v : {0ull, 1ull, 2ull, 3ull, 1024ull, 1500ull})
        h.record(v);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 1024 + 1500);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1500u);
    EXPECT_EQ(h.bucketCount(0), 2u);  // 0, 1
    EXPECT_EQ(h.bucketCount(1), 2u);  // 2, 3
    EXPECT_EQ(h.bucketCount(10), 2u); // 1024, 1500
    EXPECT_EQ(h.bucketCount(5), 0u);
}

TEST(MetricsTest, HistogramQuantiles)
{
    // Empty: every quantile is 0.
    obs::Histogram empty;
    EXPECT_EQ(empty.quantile(0.5), 0.0);
    EXPECT_EQ(empty.snapshot().quantile(0.99), 0.0);

    // Constant distribution: min/max clamping makes every quantile
    // exact even though the value sits mid-bucket.
    obs::Histogram constant;
    for (int i = 0; i < 100; ++i)
        constant.record(37);
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(constant.quantile(q), 37.0) << "q=" << q;

    // Uniform 1..1000: estimates interpolate within a log2 bucket, so
    // they are exact to within the bucket width (a factor of 2), and
    // must be monotone in q and clamped to [min, max].
    obs::Histogram uniform;
    for (obs::u64 v = 1; v <= 1000; ++v)
        uniform.record(v);
    const auto s = uniform.snapshot();
    EXPECT_EQ(s.quantile(0.0), 1.0);
    EXPECT_EQ(s.quantile(1.0), 1000.0);
    const double p10 = s.quantile(0.10);
    const double p50 = s.quantile(0.50);
    const double p90 = s.quantile(0.90);
    const double p999 = s.quantile(0.999);
    EXPECT_GE(p50, 250.0);
    EXPECT_LE(p50, 1000.0);
    EXPECT_GE(p90, 450.0);
    EXPECT_LE(p90, 1000.0);
    EXPECT_LE(p10, p50);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p999);
    for (double q : {0.1, 0.5, 0.9, 0.999}) {
        EXPECT_GE(s.quantile(q), 1.0);
        EXPECT_LE(s.quantile(q), 1000.0);
    }
    EXPECT_DOUBLE_EQ(s.mean(), 500.5);

    // Two-point distribution: the far tail reports the max, not a
    // value beyond it.
    obs::Histogram twoPoint;
    twoPoint.record(1);
    twoPoint.record(1u << 20);
    EXPECT_LE(twoPoint.quantile(0.999), (double)(1u << 20));
    EXPECT_GE(twoPoint.quantile(0.999), 1.0);
}

TEST(MetricsTest, CountersSurviveParallelForMerges)
{
    obs::Counter& c = obs::counter("test.obs.parallel_adds");
    obs::Histogram& h = obs::histogram("test.obs.parallel_hist");
    c.reset();
    h.reset();

    constexpr std::size_t kN = 10000;
    parallelFor(kN, 8,
                [&](std::size_t, std::size_t b, std::size_t e) {
                    for (std::size_t i = b; i < e; ++i) {
                        c.add();
                        h.record(i);
                    }
                });

    // No drain step: instruments are atomic, worker updates land
    // directly in the shared registry.
    EXPECT_EQ(c.value(), kN);
    EXPECT_EQ(h.count(), kN);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), kN - 1);
}

TEST(MetricsTest, RegistryFindOrCreateIsStable)
{
    obs::Counter& a = obs::counter("test.obs.same_name");
    obs::Counter& b = obs::counter("test.obs.same_name");
    EXPECT_EQ(&a, &b);
    a.reset();
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsTest, JsonAndCsvExport)
{
    obs::counter("test.obs.export_counter").add(7);
    obs::gauge("test.obs.export_gauge").set(2.5);
    obs::histogram("test.obs.export_hist").record(100);

    const std::string json = obs::metricsJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"test.obs.export_counter\""),
              std::string::npos);
    EXPECT_NE(json.find("\"test.obs.export_gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"test.obs.export_hist\""), std::string::npos);

    const std::string csv = obs::metricsCsv();
    EXPECT_NE(csv.find("counter,test.obs.export_counter,value,"),
              std::string::npos);
    EXPECT_NE(csv.find("gauge,test.obs.export_gauge,value,"),
              std::string::npos);
    EXPECT_NE(csv.find("histogram,test.obs.export_hist,count,"),
              std::string::npos);
}

// ------------------------------------------------------------------
// Run reports (StageRunner integration)
// ------------------------------------------------------------------

TEST(ReportTest, StageRunnerEmitsRecordsWithKernelAttribution)
{
    obs::stopTracing();
    obs::clearStageReports();
    obs::startTracing("");

    core::StageRunner<snark::Bn254> runner(64);
    runner.run(core::Stage::Compile, 2);
    runner.run(core::Stage::Proving, 2);

    obs::stopTracing();

    auto reports = obs::stageReports();
    ASSERT_GE(reports.size(), 2u);

    const obs::StageReport* prove = nullptr;
    for (const auto& r : reports)
        if (r.stage == "proving")
            prove = &r;
    ASSERT_NE(prove, nullptr);

    EXPECT_EQ(prove->curve, "BN128");
    EXPECT_EQ(prove->constraints, 64u);
    EXPECT_EQ(prove->threads, 2u);
    EXPECT_GT(prove->seconds, 0.0);
    ASSERT_FALSE(prove->counters.empty());
    EXPECT_EQ(prove->counters[0].first, "instructions");
    EXPECT_GT(prove->counters[0].second, 0.0);

    // Tracing was live: the proving record must attribute kernel time.
    ASSERT_FALSE(prove->topSpans.empty());
    bool has_msm = false, has_ntt = false;
    for (const auto& k : prove->topSpans) {
        if (k.name == "msm")
            has_msm = true;
        if (k.name == "ntt")
            has_ntt = true;
    }
    EXPECT_TRUE(has_msm);
    EXPECT_TRUE(has_ntt);

    const std::string json = obs::runReportJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"stage\":\"proving\""), std::string::npos);
    EXPECT_NE(json.find("\"top_spans\""), std::string::npos);
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);

    obs::clearStageReports();
}

// A STARK prove measures its stages in the same bracket as StageRunner
// (core::measureStage): under a caller's CountingScope and tracing it
// records all five prove stages with the StageRunner record's shape.
TEST(ReportTest, StarkStagesRecordLikeStageRunner)
{
    obs::stopTracing();
    obs::clearStageReports();
    obs::startTracing("");

    core::StageRunner<snark::Bn254> runner(64);
    runner.run(core::Stage::Proving, 2);
    {
        const sim::CountingScope counting;
        const stark::MimcAir air(1 << 6, stark::Gl::fromU64(7));
        (void)stark::prove(air, stark::StarkParams{}, 2);
    }

    obs::stopTracing();

    std::vector<std::string> provingKeys;
    std::vector<std::string> starkStages;
    std::vector<std::vector<std::string>> starkKeys;
    for (const auto& r : obs::stageReports()) {
        std::vector<std::string> keys;
        for (const auto& [name, value] : r.counters)
            keys.push_back(name);
        if (r.stage == "proving") {
            provingKeys = keys;
        } else if (r.stage.rfind("stark_", 0) == 0) {
            starkStages.push_back(r.stage);
            starkKeys.push_back(keys);
            EXPECT_EQ(r.curve, "gl64/mimc");
            EXPECT_EQ(r.threads, 2u);
            EXPECT_FALSE(r.topSpans.empty()) << r.stage;
        }
    }
    ASSERT_FALSE(provingKeys.empty());
    EXPECT_EQ(starkStages,
              (std::vector<std::string>{"stark_trace_gen", "stark_lde",
                                        "stark_commit", "stark_fri",
                                        "stark_query"}));
    for (std::size_t i = 0; i < starkKeys.size(); ++i)
        EXPECT_EQ(starkKeys[i], provingKeys) << starkStages[i];

    obs::clearStageReports();
}

// ------------------------------------------------------------------
// JSON writer hardening
// ------------------------------------------------------------------

TEST(JsonWriterTest, HostileStringsProduceValidJson)
{
    std::string hostile = "q:\" b:\\ nl:\n cr:\r tab:\t";
    hostile += '\x01';             // control -> \u0001
    hostile += '\x1f';             // control -> \u001f
    hostile += "\xc3\xa9";         // valid 2-byte (e acute)
    hostile += "\xe2\x82\xac";     // valid 3-byte (euro sign)
    hostile += "\xf0\x9f\x94\x91"; // valid 4-byte (emoji)
    hostile += '\x80';             // stray continuation byte
    hostile += "\xc0\xaf";         // overlong encoding of '/'
    hostile += "\xed\xa0\x80";     // UTF-16 surrogate half
    hostile += "\xf4\x90\x80\x80"; // above U+10FFFF
    hostile += '\xfe';             // never-valid lead byte
    hostile += "\xe2\x82";         // truncated sequence at end

    obs::JsonWriter w;
    w.beginObject();
    w.key(hostile).value(hostile);
    w.endObject();
    const std::string json = w.take();

    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\\u0001"), std::string::npos);
    EXPECT_NE(json.find("\\u001f"), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    EXPECT_NE(json.find("\\r"), std::string::npos);
    EXPECT_NE(json.find("\\t"), std::string::npos);
    EXPECT_NE(json.find("\\\""), std::string::npos);
    EXPECT_NE(json.find("\\\\"), std::string::npos);
    // Well-formed multi-byte sequences pass through untouched...
    EXPECT_NE(json.find("\xc3\xa9"), std::string::npos);
    EXPECT_NE(json.find("\xe2\x82\xac"), std::string::npos);
    EXPECT_NE(json.find("\xf0\x9f\x94\x91"), std::string::npos);
    // ...while every malformed byte became U+FFFD.
    EXPECT_NE(json.find("\xef\xbf\xbd"), std::string::npos);
    EXPECT_EQ(json.find('\xc0'), std::string::npos);
    EXPECT_EQ(json.find('\xfe'), std::string::npos);
    for (char c : json)
        EXPECT_GE((unsigned char)c, 0x20u)
            << "raw control byte leaked into JSON";

    // A hostile metric name must not corrupt the whole-registry
    // export either.
    obs::counter(hostile).add(1);
    const std::string mjson = obs::metricsJson();
    EXPECT_TRUE(JsonChecker(mjson).valid()) << mjson.substr(0, 400);
}

// ------------------------------------------------------------------
// Histogram snapshot coherence (the TSan target)
// ------------------------------------------------------------------

TEST(MetricsTest, HistogramSnapshotCoherentUnderWriters)
{
    obs::Histogram h;
    std::atomic<bool> stop{false};
    constexpr int kWriters = 4;
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t)
        writers.emplace_back([&h, &stop, t] {
            obs::u64 v = (obs::u64)t;
            while (!stop.load(std::memory_order_relaxed))
                h.record(v++ & 0xffffu);
        });

    // On a loaded (or single-core) machine the snapshot loop can
    // finish before any writer is ever scheduled; wait for the first
    // recorded sample so the final count>0 assertion is meaningful.
    while (h.snapshot().count == 0)
        std::this_thread::yield();

    for (int i = 0; i < 200; ++i) {
        const auto s = h.snapshot();
        obs::u64 bucket_sum = 0;
        for (obs::u64 b : s.buckets)
            bucket_sum += b;
        // record() fills the bucket before bumping count, so a
        // coherent snapshot can never report more counted samples
        // than bucketed ones.
        EXPECT_GE(bucket_sum, s.count);
        if (s.count > 0) {
            EXPECT_LE(s.min, s.max);
            EXPECT_LE(s.max, 0xffffu);
        }
    }
    stop.store(true);
    for (auto& w : writers)
        w.join();

    const auto fin = h.snapshot();
    obs::u64 bucket_sum = 0;
    for (obs::u64 b : fin.buckets)
        bucket_sum += b;
    EXPECT_EQ(bucket_sum, fin.count);
    EXPECT_GT(fin.count, 0u);

    obs::Histogram empty;
    const auto e = empty.snapshot();
    EXPECT_EQ(e.count, 0u);
    EXPECT_EQ(e.min, 0u);
    EXPECT_EQ(e.max, 0u);
}

// ------------------------------------------------------------------
// Hardware PMU layer
// ------------------------------------------------------------------

TEST(PmuTest, AvailabilityIsConsistent)
{
    const bool en = obs::pmu::enabled();
    if (!obs::pmu::available())
        EXPECT_FALSE(obs::pmu::unavailableReason().empty());
    else
        EXPECT_TRUE(obs::pmu::unavailableReason().empty());

    obs::pmu::Sample a;
    const bool ok = obs::pmu::readThread(a);
    EXPECT_TRUE(!ok || en) << "readThread succeeded while disabled";
    if (ok) {
        EXPECT_NE(a.validMask, 0u);
        spinWork();
        obs::pmu::Sample b;
        ASSERT_TRUE(obs::pmu::readThread(b));
        const auto d = obs::pmu::delta(a, b);
        // Counters are cumulative per thread: deltas never go
        // negative (clamped) and cycles must have advanced.
        for (std::size_t i = 0; i < obs::pmu::kNumEvents; ++i) {
            if (d.validMask >> i & 1u) {
                EXPECT_GE(d.value[i], 0.0);
            }
        }
        if (d.has(obs::pmu::Event::Cycles)) {
            EXPECT_GT(d.get(obs::pmu::Event::Cycles), 0.0);
        }
    }
}

TEST(PmuTest, DeriveStatsMath)
{
    using obs::pmu::Event;
    obs::pmu::Sample d;
    d.set(Event::Cycles, 2e9);
    d.set(Event::Instructions, 4e9);
    d.set(Event::Branches, 1e9);
    d.set(Event::BranchMisses, 5e7);
    d.set(Event::LlcLoads, 1e8);
    d.set(Event::LlcLoadMisses, 8e6);
    d.set(Event::TdSlots, 1e10);
    d.set(Event::TdRetiring, 4e9);
    d.set(Event::TdBadSpec, 1e9);
    d.set(Event::TdFeBound, 2e9);
    d.set(Event::TdBeBound, 3e9);

    const auto s = obs::pmu::deriveStats(d, 2.0);
    EXPECT_TRUE(s.available);
    EXPECT_DOUBLE_EQ(s.ipc, 2.0);
    EXPECT_DOUBLE_EQ(s.branchMissPct, 5.0);
    EXPECT_DOUBLE_EQ(s.llcLoadMpki, 2.0);
    ASSERT_TRUE(s.topdownValid);
    EXPECT_DOUBLE_EQ(s.tdRetiring, 0.4);
    EXPECT_DOUBLE_EQ(s.tdBadSpec, 0.1);
    EXPECT_DOUBLE_EQ(s.tdFeBound, 0.2);
    EXPECT_DOUBLE_EQ(s.tdBeBound, 0.3);
    EXPECT_DOUBLE_EQ(s.dramBytesEst, 8e6 * 64.0);
    EXPECT_DOUBLE_EQ(s.bandwidthGBps, 8e6 * 64.0 / 2.0 / 1e9);
    EXPECT_FALSE(obs::pmu::statPairs(s).empty());

    // The empty sample is the graceful-fallback path.
    const obs::pmu::Sample none;
    const auto off = obs::pmu::deriveStats(none, 1.0);
    EXPECT_FALSE(off.available);
    EXPECT_FALSE(off.topdownValid);
    EXPECT_TRUE(obs::pmu::statPairs(off).empty());
}

TEST(PmuTest, RunReportAlwaysCarriesHwSection)
{
    obs::stopTracing();
    obs::clearStageReports();

    core::StageRunner<snark::Bn254> runner(64);
    runner.run(core::Stage::Compile, 1);

    const std::string json = obs::runReportJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);
    // Both the per-stage and the top-level hw objects must exist with
    // an availability flag, whatever the machine supports.
    EXPECT_NE(json.find("\"hw\":{\"available\":"), std::string::npos);
    if (!obs::pmu::enabled()) {
        EXPECT_NE(json.find("\"available\":false"), std::string::npos);
        EXPECT_NE(json.find("\"reason\""), std::string::npos);
    }
    obs::clearStageReports();
}

// ------------------------------------------------------------------
// Tracer overhead (self-test for the "tracing is cheap" claim)
// ------------------------------------------------------------------

TEST(TraceTest, TracingOverheadStaysSmall)
{
#ifdef ZKP_OBS_SANITIZED
    GTEST_SKIP() << "timing ratios are not meaningful under sanitizers";
#else
    using G1 = ec::Bn254G1;
    using Fr = G1::Scalar;
    const std::size_t n = 4096;
    Rng rng(21);
    G1::Jacobian g{G1::generator()};
    std::vector<G1::Affine> pts;
    std::vector<Fr::Repr> scalars;
    pts.reserve(n);
    scalars.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        pts.push_back(
            g.mulScalar(rng.nextBelow(1 << 20) + 1).toAffine());
        scalars.push_back(Fr::random(rng).toBigInt());
    }
    const auto msmOnce = [&] {
        auto p = ec::msm<G1::Jacobian>(pts.data(), scalars.data(), n, 1);
        (void)p;
    };
    const auto seconds = [&](bool traced) {
        if (traced)
            obs::startTracing("");
        const auto t0 = std::chrono::steady_clock::now();
        msmOnce();
        const double dt =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (traced) {
            obs::stopTracing();
            obs::clearTrace();
        }
        return dt;
    };

    obs::stopTracing();
    msmOnce(); // warm caches before the clocked runs
    double off = 1e300, on = 1e300;
    for (int r = 0; r < 6; ++r) { // interleaved min-of-6
        off = std::min(off, seconds(false));
        on = std::min(on, seconds(true));
    }

    double limit_pct = 5.0;
    if (const char* e = std::getenv("ZKP_TRACE_OVERHEAD_PCT"))
        limit_pct = std::atof(e);
    EXPECT_LE(on, off * (1.0 + limit_pct / 100.0))
        << "tracing-on min " << on << "s vs tracing-off min " << off
        << "s exceeds " << limit_pct << "%";
#endif
}

} // namespace
} // namespace zkp
