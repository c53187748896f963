/**
 * @file
 * ProofService contract tests: end-to-end prove/verify through a real
 * Groth16 host at a small circuit size, plus scheduling semantics
 * (backpressure, priority, deadlines, cancellation, verify batching,
 * drain/shutdown) driven deterministically through a latch-controlled
 * synthetic host, and the socket server (serve::Server) driven over a
 * real Unix socket by in-process clients. Runs under the TSan and
 * ASan+UBSan CI jobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "obs/report.h"
#include "obs/trace.h"
#include "serve/circuit_host.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/stark_host.h"

namespace zkp::serve {
namespace {

using Fr = snark::Bn254::Fr;

constexpr std::size_t kSmallExp = 64; // 2^6 constraints

/** Fixed service shape so environment knobs cannot skew a test. */
ServiceConfig
testConfig(std::size_t workers, std::size_t queue)
{
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = queue;
    cfg.proveThreads = 1;
    return cfg;
}

/** Valid (public, private) inputs for the exponentiation host. */
std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>
expInputs(u64 seed)
{
    Rng rng(seed);
    const Fr x = Fr::random(rng);
    const Fr y = x.pow(BigInt<1>((u64)kSmallExp));
    return {encodeScalars<Fr>({y}), encodeScalars<Fr>({x})};
}

// ---------------------------------------------------------------------
// End-to-end through the real Groth16 host
// ---------------------------------------------------------------------

TEST(ProofService, ProveThenVerifyRoundTrip)
{
    ProofService service(testConfig(2, 16));
    service.registerCircuit(
        makeExponentiationHost<snark::Bn254>("exp6", kSmallExp));

    auto [pub, priv] = expInputs(101);
    Response proved =
        service.submitProve("exp6", pub, priv).result.get();
    ASSERT_EQ(proved.status, Status::Ok);
    ASSERT_FALSE(proved.proof.empty());
    // Proofs leave the service in the framed encoding.
    EXPECT_EQ(proved.proof[0], 'Z');

    Response verified =
        service.submitVerify("exp6", pub, proved.proof).result.get();
    ASSERT_EQ(verified.status, Status::Ok);
    EXPECT_TRUE(verified.valid);

    // The same proof against the wrong public input must not verify.
    auto [pub2, priv2] = expInputs(202);
    Response wrong =
        service.submitVerify("exp6", pub2, proved.proof).result.get();
    ASSERT_EQ(wrong.status, Status::Ok);
    EXPECT_FALSE(wrong.valid);
}

TEST(ProofService, UnknownCircuitAndInvalidInputs)
{
    ProofService service(testConfig(1, 8));
    service.registerCircuit(
        makeExponentiationHost<snark::Bn254>("exp6", kSmallExp));

    auto [pub, priv] = expInputs(303);
    EXPECT_EQ(service.submitProve("nope", pub, priv).result.get()
                  .status,
              Status::UnknownCircuit);

    // Wrong input length: one public scalar expected, two given.
    auto doubled = pub;
    doubled.insert(doubled.end(), pub.begin(), pub.end());
    EXPECT_EQ(service.submitProve("exp6", doubled, priv).result.get()
                  .status,
              Status::InvalidRequest);

    // Garbage proof bytes on verify.
    std::vector<std::uint8_t> junk(16, 0xee);
    EXPECT_EQ(service.submitVerify("exp6", pub, junk).result.get()
                  .status,
              Status::InvalidRequest);
}

TEST(ProofService, ConcurrentRequestsShareOneKeyBuild)
{
    ProofService service(testConfig(4, 32));
    service.registerCircuit(
        makeExponentiationHost<snark::Bn254>("exp6", kSmallExp));

    std::vector<ProofService::Ticket> tickets;
    for (int i = 0; i < 6; ++i) {
        auto [pub, priv] = expInputs(400 + (u64)i);
        tickets.push_back(service.submitProve("exp6", pub, priv));
    }
    for (auto& t : tickets)
        EXPECT_EQ(t.result.get().status, Status::Ok);
    // Singleflight: six concurrent cold requests, one setup.
    EXPECT_EQ(service.snapshotStats().cache.builds, 1u);
}

// ---------------------------------------------------------------------
// Scheduling semantics via a latch-controlled host
// ---------------------------------------------------------------------

/** Shared latch: proves block until release(); starts are recorded. */
struct HostControl
{
    std::mutex mu;
    std::condition_variable cv;
    bool released = false;
    std::vector<std::uint8_t> startOrder; // first input byte per job

    void
    release()
    {
        std::lock_guard<std::mutex> lock(mu);
        released = true;
        cv.notify_all();
    }

    /// Block until at least @p n proves have started executing.
    void
    awaitStarts(std::size_t n)
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return startOrder.size() >= n; });
    }
};

CircuitHost
makeLatchHost(std::string name, std::shared_ptr<HostControl> ctl)
{
    CircuitHost host;
    host.name = std::move(name);
    host.curve = "latch";
    host.constraints = 1;
    host.build = [] {
        KeyCache::Built b;
        b.value = std::shared_ptr<const void>(
            new int(0),
            [](const void* p) { delete static_cast<const int*>(p); });
        b.bytes = 1;
        return b;
    };
    host.prove = [ctl](const void*,
                       const std::vector<std::uint8_t>& pub,
                       const std::vector<std::uint8_t>&, std::size_t,
                       std::vector<std::uint8_t>& proof_out) {
        std::unique_lock<std::mutex> lock(ctl->mu);
        ctl->startOrder.push_back(pub.empty() ? 0xff : pub[0]);
        ctl->cv.notify_all();
        ctl->cv.wait(lock, [&] { return ctl->released; });
        proof_out = {0x00};
        return Status::Ok;
    };
    host.verify = [](const void*, std::vector<VerifyItem>& items) {
        for (auto& item : items) {
            item.status = Status::Ok;
            item.valid = true;
        }
    };
    return host;
}

TEST(ProofService, QueueFullBackpressure)
{
    auto ctl = std::make_shared<HostControl>();
    ProofService service(testConfig(1, 1));
    service.registerCircuit(makeLatchHost("latch", ctl));

    // First job occupies the single worker...
    auto t1 = service.submitProve("latch", {1}, {});
    ctl->awaitStarts(1);
    // ...second fills the queue (capacity 1)...
    auto t2 = service.submitProve("latch", {2}, {});
    // ...third must bounce with explicit backpressure, immediately.
    auto t3 = service.submitProve("latch", {3}, {});
    EXPECT_EQ(t3.result.get().status, Status::QueueFull);
    EXPECT_EQ(service.snapshotStats().rejectedQueueFull, 1u);

    ctl->release();
    EXPECT_EQ(t1.result.get().status, Status::Ok);
    EXPECT_EQ(t2.result.get().status, Status::Ok);
}

TEST(RequestQueue, PushDistinguishesFullFromClosed)
{
    RequestQueue queue(1);

    auto a = std::make_unique<Job>();
    EXPECT_EQ(queue.tryPush(a), RequestQueue::PushResult::Accepted);
    EXPECT_EQ(a, nullptr); // accepted: ownership moved into the queue

    auto b = std::make_unique<Job>();
    EXPECT_EQ(queue.tryPush(b), RequestQueue::PushResult::Full);
    ASSERT_NE(b, nullptr); // rejected: caller keeps the job

    // Once closed, rejection must say Closed even though the queue is
    // also full — the service settles these as ShuttingDown, not
    // QueueFull, so retry-on-QueueFull clients don't spin on a
    // terminating service.
    queue.close();
    EXPECT_EQ(queue.tryPush(b), RequestQueue::PushResult::Closed);
    ASSERT_NE(b, nullptr);

    // The job accepted before close still drains.
    EXPECT_NE(queue.pop(), nullptr);
    EXPECT_EQ(queue.pop(), nullptr); // closed and empty
}

TEST(ProofService, InteractiveDequeuesBeforeBatch)
{
    auto ctl = std::make_shared<HostControl>();
    ProofService service(testConfig(1, 8));
    service.registerCircuit(makeLatchHost("latch", ctl));

    auto t0 = service.submitProve("latch", {0}, {});
    ctl->awaitStarts(1); // worker busy; the next two queue up

    RequestOptions batch;
    batch.priority = Priority::Batch;
    auto tb = service.submitProve("latch", {7}, {}, batch);
    auto ti = service.submitProve("latch", {9}, {});

    ctl->release();
    EXPECT_EQ(t0.result.get().status, Status::Ok);
    EXPECT_EQ(tb.result.get().status, Status::Ok);
    EXPECT_EQ(ti.result.get().status, Status::Ok);

    // Interactive (9) was submitted after batch (7) but ran first.
    ASSERT_EQ(ctl->startOrder.size(), 3u);
    EXPECT_EQ(ctl->startOrder[1], 9);
    EXPECT_EQ(ctl->startOrder[2], 7);
}

TEST(ProofService, DeadlineExpiresWhileQueued)
{
    auto ctl = std::make_shared<HostControl>();
    ProofService service(testConfig(1, 8));
    service.registerCircuit(makeLatchHost("latch", ctl));

    auto t0 = service.submitProve("latch", {0}, {});
    ctl->awaitStarts(1);

    RequestOptions expiring;
    expiring.timeoutSeconds = 0.05;
    auto t1 = service.submitProve("latch", {1}, {}, expiring);
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    ctl->release();

    EXPECT_EQ(t0.result.get().status, Status::Ok);
    EXPECT_EQ(t1.result.get().status, Status::DeadlineExceeded);
    EXPECT_EQ(service.snapshotStats().deadlineExceeded, 1u);
}

TEST(ProofService, CancelBeforeExecution)
{
    auto ctl = std::make_shared<HostControl>();
    ProofService service(testConfig(1, 8));
    service.registerCircuit(makeLatchHost("latch", ctl));

    auto t0 = service.submitProve("latch", {0}, {});
    ctl->awaitStarts(1);

    auto t1 = service.submitProve("latch", {1}, {});
    t1.cancel();
    ctl->release();

    EXPECT_EQ(t0.result.get().status, Status::Ok);
    EXPECT_EQ(t1.result.get().status, Status::Canceled);
    EXPECT_EQ(service.snapshotStats().canceled, 1u);
}

TEST(ProofService, QueuedVerifiesSettleAsOneBatch)
{
    auto ctl = std::make_shared<HostControl>();
    ProofService service(testConfig(1, 16));
    service.registerCircuit(makeLatchHost("latch", ctl));

    // Hold the single worker so the verifies pile up in the queue.
    auto blocker = service.submitProve("latch", {0}, {});
    ctl->awaitStarts(1);

    std::vector<ProofService::Ticket> verifies;
    for (int i = 0; i < 4; ++i)
        verifies.push_back(
            service.submitVerify("latch", {(std::uint8_t)i}, {0x00}));
    ctl->release();

    EXPECT_EQ(blocker.result.get().status, Status::Ok);
    for (auto& t : verifies) {
        Response r = t.result.get();
        EXPECT_EQ(r.status, Status::Ok);
        EXPECT_TRUE(r.valid);
        // All four were drained by one worker pass and settled with
        // a single host->verify call.
        EXPECT_EQ(r.batchSize, 4u);
    }
}

TEST(ProofService, DrainCompletesEverythingThenRejects)
{
    ProofService service(testConfig(2, 32));
    service.registerCircuit(
        makeExponentiationHost<snark::Bn254>("exp6", kSmallExp));

    std::vector<ProofService::Ticket> tickets;
    for (int i = 0; i < 8; ++i) {
        auto [pub, priv] = expInputs(500 + (u64)i);
        tickets.push_back(service.submitProve("exp6", pub, priv));
    }
    service.drain();
    for (auto& t : tickets)
        EXPECT_EQ(t.result.get().status, Status::Ok);
    EXPECT_EQ(service.snapshotStats().completed, 8u);

    auto [pub, priv] = expInputs(600);
    EXPECT_EQ(service.submitProve("exp6", pub, priv).result.get()
                  .status,
              Status::ShuttingDown);
}

TEST(ProofService, ShutdownFailsQueuedButFinishesInFlight)
{
    auto ctl = std::make_shared<HostControl>();
    ProofService service(testConfig(1, 8));
    service.registerCircuit(makeLatchHost("latch", ctl));

    auto running = service.submitProve("latch", {0}, {});
    ctl->awaitStarts(1);
    auto queued = service.submitProve("latch", {1}, {});

    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        ctl->release();
    });
    service.shutdown(); // fails `queued` fast, waits for `running`
    releaser.join();

    EXPECT_EQ(running.result.get().status, Status::Ok);
    EXPECT_EQ(queued.result.get().status, Status::ShuttingDown);
}

TEST(ProofService, DestructorShutsDownCleanly)
{
    auto ctl = std::make_shared<HostControl>();
    ctl->released = true; // proves complete immediately
    {
        ProofService service(testConfig(2, 8));
        service.registerCircuit(makeLatchHost("latch", ctl));
        for (int i = 0; i < 4; ++i)
            (void)service.submitProve("latch",
                                      {(std::uint8_t)i}, {});
        // Destructor must settle or fail every outstanding promise
        // without deadlocking.
    }
    SUCCEED();
}

// ---------------------------------------------------------------------
// Wire protocol encode/decode (transportless)
// ---------------------------------------------------------------------

TEST(WireProtocol, FrameAndMessageRoundTrip)
{
    wire::ProveRequest m;
    m.priority = Priority::Batch;
    m.timeoutMicros = 250000;
    m.circuit = "exp12";
    m.publicInputs = {1, 2, 3};
    m.privateInputs = {4, 5};

    wire::Frame f;
    f.type = wire::MsgType::ProveRequest;
    f.id = 77;
    f.body = wire::encodeProveRequest(m);

    auto payload = wire::encodePayload(f);
    auto back = wire::decodePayload(payload);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->type, wire::MsgType::ProveRequest);
    EXPECT_EQ(back->id, 77u);

    auto msg = wire::decodeProveRequest(back->body);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->priority, Priority::Batch);
    EXPECT_EQ(msg->timeoutMicros, 250000u);
    EXPECT_EQ(msg->circuit, "exp12");
    EXPECT_EQ(msg->publicInputs, m.publicInputs);
    EXPECT_EQ(msg->privateInputs, m.privateInputs);
}

TEST(WireProtocol, RejectsForeignAndTruncatedPayloads)
{
    wire::Frame f;
    f.type = wire::MsgType::Ping;
    f.id = 1;
    auto payload = wire::encodePayload(f);

    // Unsupported schema version.
    auto future = payload;
    future[3] = 99;
    EXPECT_FALSE(wire::decodePayload(future).has_value());

    // Foreign magic.
    auto foreign = payload;
    foreign[0] = 'X';
    EXPECT_FALSE(wire::decodePayload(foreign).has_value());

    // Truncated header.
    std::vector<std::uint8_t> shorty(payload.begin(),
                                     payload.begin() + 3);
    EXPECT_FALSE(wire::decodePayload(shorty).has_value());
}

TEST(WireProtocol, ResultRoundTripAndBoundsChecks)
{
    wire::Result m;
    m.status = Status::Ok;
    m.valid = true;
    m.batchSize = 5;
    m.queueMicros = 11;
    m.execMicros = 22;
    m.proof = {9, 9, 9};
    auto body = wire::encodeResult(m);
    auto back = wire::decodeResult(body);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->status, Status::Ok);
    EXPECT_TRUE(back->valid);
    EXPECT_EQ(back->batchSize, 5u);
    EXPECT_EQ(back->proof, m.proof);

    // Out-of-range status byte must not decode.
    body[0] = 0x7f;
    EXPECT_FALSE(wire::decodeResult(body).has_value());
}

TEST(WireProtocol, StatsV2RoundTrip)
{
    // v2: the JSON document survives the wire byte-for-byte.
    wire::StatsV2Response v2;
    v2.json = "{\"schema\":\"zkperf-serve-stats/2\",\"lanes\":[]}";
    auto body = wire::encodeStatsV2Response(v2);
    auto back = wire::decodeStatsV2Response(body);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->json, v2.json);

    // Trailing garbage must not decode.
    auto trailing = body;
    trailing.push_back(0);
    EXPECT_FALSE(
        wire::decodeStatsV2Response(trailing).has_value());

    // Truncated length prefix must not decode.
    std::vector<std::uint8_t> shorty(body.begin(), body.begin() + 4);
    EXPECT_FALSE(wire::decodeStatsV2Response(shorty).has_value());
}

// ---------------------------------------------------------------------
// Request-lifecycle telemetry
// ---------------------------------------------------------------------

TEST(Telemetry, LifecycleTimestampsMonotonicPerRequest)
{
    ProofService service(testConfig(2, 16));
    service.registerCircuit(
        makeExponentiationHost<snark::Bn254>("exp6", kSmallExp));

    auto [pub, priv] = expInputs(303);
    const Response proved =
        service.submitProve("exp6", pub, priv).result.get();
    ASSERT_EQ(proved.status, Status::Ok);

    const Timeline& tl = proved.timeline;
    const Timeline::Clock::time_point unset{};
    ASSERT_NE(tl.arrive, unset);
    // Program order: arrive → admitted → dequeued → key-ready →
    // executed → serialized → replied, all on steady_clock.
    EXPECT_LE(tl.arrive, tl.admitted);
    EXPECT_LE(tl.admitted, tl.dequeued);
    EXPECT_LE(tl.dequeued, tl.keyReady);
    EXPECT_LE(tl.keyReady, tl.executed);
    EXPECT_LE(tl.executed, tl.serialized);
    EXPECT_LE(tl.serialized, tl.replied);

    EXPECT_GT(proved.requestId, 0u);
    EXPECT_GE(proved.queueSeconds, 0.0);
    EXPECT_GE(proved.keyWaitSeconds, 0.0);
    EXPECT_GE(proved.execSeconds, 0.0);
    EXPECT_GE(proved.serializeSeconds, 0.0);
    // The stage spans nest inside the full lifespan.
    const double e2e = Timeline::seconds(tl.arrive, tl.replied);
    EXPECT_LE(proved.keyWaitSeconds + proved.execSeconds +
                  proved.serializeSeconds,
              e2e + 1e-9);

    // Verify requests carry the same contract, and ids are unique
    // and increasing across submissions.
    const Response verified =
        service.submitVerify("exp6", pub, proved.proof).result.get();
    ASSERT_EQ(verified.status, Status::Ok);
    EXPECT_GT(verified.requestId, proved.requestId);
    EXPECT_LE(verified.timeline.arrive, verified.timeline.admitted);
    EXPECT_LE(verified.timeline.admitted,
              verified.timeline.dequeued);
    EXPECT_LE(verified.timeline.dequeued,
              verified.timeline.keyReady);
    EXPECT_LE(verified.timeline.keyReady,
              verified.timeline.executed);
    EXPECT_LE(verified.timeline.executed,
              verified.timeline.replied);
}

TEST(Telemetry, SnapshotStatsAndJsonReflectTraffic)
{
    ProofService service(testConfig(2, 16));
    service.registerCircuit(
        makeExponentiationHost<snark::Bn254>("exp6", kSmallExp));

    auto [pub, priv] = expInputs(404);
    const Response proved =
        service.submitProve("exp6", pub, priv).result.get();
    ASSERT_EQ(proved.status, Status::Ok);
    RequestOptions batchOpts;
    batchOpts.priority = Priority::Batch;
    const Response verified =
        service.submitVerify("exp6", pub, proved.proof, batchOpts)
            .result.get();
    ASSERT_EQ(verified.status, Status::Ok);

    const ServiceStatsSnapshot snap = service.snapshotStats();
    EXPECT_EQ(snap.completed, 2u);
    EXPECT_EQ(snap.accepted, 2u);
    EXPECT_GT(snap.workers, 0u);
    EXPECT_GT(snap.queueCapacity, 0u);
    EXPECT_GT(snap.uptimeSeconds, 0.0);
    EXPECT_GE(snap.cache.builds, 1u);

    // One prove/interactive lane, one verify/batch lane.
    ASSERT_EQ(snap.lanes.size(), 2u);
    for (const auto& lane : snap.lanes) {
        EXPECT_EQ(lane.circuit, "exp6");
        EXPECT_EQ(lane.completed, 1u);
        EXPECT_EQ(lane.errors, 0u);
        EXPECT_EQ(lane.e2eUs.count, 1u);
        EXPECT_GE(lane.e2eUs.quantile(0.5),
                  (double)lane.queueWaitUs.quantile(0.5));
    }

    const std::string json = service.statsJson();
    EXPECT_NE(json.find("\"schema\":\"zkperf-serve-stats/2\""),
              std::string::npos)
        << json.substr(0, 200);
    EXPECT_NE(json.find("\"completed\":2"), std::string::npos);
    for (const char* field :
         {"\"service\":", "\"cache\":", "\"lanes\":",
          "\"queue_wait_us\":", "\"key_wait_us\":", "\"exec_us\":",
          "\"serialize_us\":", "\"e2e_us\":",
          "\"deadline_slack_us\":", "\"verify_batch\":", "\"p999\":",
          "\"kind\":\"prove\"", "\"kind\":\"verify\"",
          "\"priority\":\"interactive\"", "\"priority\":\"batch\""})
        EXPECT_NE(json.find(field), std::string::npos)
            << "missing " << field << " in " << json.substr(0, 400);
}

TEST(Telemetry, QueueWaitIsArriveToDequeued)
{
    auto ctl = std::make_shared<HostControl>();
    ctl->release(); // proves return at once
    ProofService service(testConfig(1, 8));
    service.registerCircuit(makeLatchHost("latch", ctl));

    // One prove at a time, so each lane delta is that prove's record.
    // Arrive → admitted is often under a microsecond, so one prove
    // alone may not tell it apart from admitted → dequeued; 64 do.
    std::uint64_t queueSum = 0;
    for (std::uint8_t i = 0; i < 64; ++i) {
        const Response r =
            service.submitProve("latch", {i}, {}).result.get();
        ASSERT_EQ(r.status, Status::Ok);
        const ServiceStatsSnapshot snap = service.snapshotStats();
        ASSERT_EQ(snap.lanes.size(), 1u);
        const MetricsHub::LaneSnapshot& lane = snap.lanes[0];
        // One definition of queue wait: the lane records exactly what
        // the response (and the wire's queueMicros) reports.
        queueSum += (std::uint64_t)(r.queueSeconds * 1e6);
        ASSERT_EQ(lane.queueWaitUs.sum, queueSum) << "prove " << +i;
        // The four stages tile arrive → serialized, inside
        // arrive → replied.
        ASSERT_LE(lane.queueWaitUs.sum + lane.keyWaitUs.sum +
                      lane.execUs.sum + lane.serializeUs.sum,
                  lane.e2eUs.sum);
    }
}

TEST(Telemetry, ShedAndDeadlineLandInLaneCounters)
{
    // Single worker + capacity-3 queue: park a job on the worker, queue
    // one request that will expire, one that is canceled and one that
    // runs, bounce a fifth off the full queue — then read the lanes.
    auto ctl = std::make_shared<HostControl>();
    ProofService service(testConfig(1, 3));
    service.registerCircuit(makeLatchHost("latch", ctl));

    auto first = service.submitProve("latch", {1}, {});
    ctl->awaitStarts(1); // worker busy; queue empty

    RequestOptions expiring;
    expiring.timeoutSeconds = 0.05;
    auto expired = service.submitProve("latch", {2}, {}, expiring);
    auto canceled = service.submitProve("latch", {3}, {});
    canceled.cancel();
    auto queued = service.submitProve("latch", {4}, {});
    auto shed = service.submitProve("latch", {5}, {});
    const Response shedResp = shed.result.get();
    EXPECT_EQ(shedResp.status, Status::QueueFull);

    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    ctl->release();
    ASSERT_EQ(first.result.get().status, Status::Ok);
    ASSERT_EQ(expired.result.get().status, Status::DeadlineExceeded);
    ASSERT_EQ(canceled.result.get().status, Status::Canceled);
    ASSERT_EQ(queued.result.get().status, Status::Ok);

    const ServiceStatsSnapshot snap = service.snapshotStats();
    ASSERT_EQ(snap.lanes.size(), 1u);
    EXPECT_EQ(snap.lanes[0].shed, 1u);
    EXPECT_EQ(snap.lanes[0].completed, 2u);
    EXPECT_EQ(snap.lanes[0].deadlineMiss, 1u);
    EXPECT_EQ(snap.lanes[0].canceled, 1u);

    // Each service total is the sum of its lane counter.
    std::uint64_t completed = 0, shedSum = 0, missed = 0, cancels = 0;
    for (const auto& lane : snap.lanes) {
        completed += lane.completed;
        shedSum += lane.shed;
        missed += lane.deadlineMiss;
        cancels += lane.canceled;
    }
    EXPECT_EQ(snap.completed, completed);
    EXPECT_EQ(snap.rejectedQueueFull, shedSum);
    EXPECT_EQ(snap.deadlineExceeded, missed);
    EXPECT_EQ(snap.canceled, cancels);
}

// ---------------------------------------------------------------------
// Setup-free STARK serving (no key-cache entry)
// ---------------------------------------------------------------------

TEST(StarkServing, ProveVerifyBypassesKeyCache)
{
    ProofService service(testConfig(2, 16));
    service.registerCircuit(makeStarkFibHost("stark-fib:64", 64));

    // Statement: a0 = 1, b0 = 1; derive the honest result.
    const stark::FibonacciAir air(64, stark::Gl::fromU64(1),
                                  stark::Gl::fromU64(1));
    const auto pub2 =
        encodeGl({stark::Gl::fromU64(1), stark::Gl::fromU64(1)});
    const auto pub3 = encodeGl(air.publicInputs());

    // prewarm is a no-op for a keyless host, not an error.
    service.prewarm("stark-fib:64");

    Response proved =
        service.submitProve("stark-fib:64", pub2, {}).result.get();
    ASSERT_EQ(proved.status, Status::Ok);
    ASSERT_FALSE(proved.proof.empty());

    Response verified =
        service.submitVerify("stark-fib:64", pub3, proved.proof)
            .result.get();
    ASSERT_EQ(verified.status, Status::Ok);
    EXPECT_TRUE(verified.valid);

    // Wrong claimed result: settled invalid, not an error.
    auto wrongPub = air.publicInputs();
    wrongPub.back() = wrongPub.back() + stark::Gl::one();
    Response wrong = service
                         .submitVerify("stark-fib:64",
                                       encodeGl(wrongPub),
                                       proved.proof)
                         .result.get();
    ASSERT_EQ(wrong.status, Status::Ok);
    EXPECT_FALSE(wrong.valid);

    // The cache was never touched: no entries, no misses, no builds —
    // every execution shows up as a keyless serve instead.
    const ServiceStatsSnapshot s = service.snapshotStats();
    EXPECT_EQ(s.cache.entries, 0u);
    EXPECT_EQ(s.cache.misses, 0u);
    EXPECT_EQ(s.cache.builds, 0u);
    EXPECT_EQ(s.keylessServes, 3u);

    const std::string json = service.statsJson();
    EXPECT_NE(json.find("\"keyless_serves\":3"), std::string::npos)
        << json.substr(0, 400);
}

// A served STARK request leaves nothing behind in the process: with
// no reader of its stages (no span tracing, no ZKP_REPORT) the prover
// and verifier append no run-report record, however many requests run.
TEST(StarkServing, UnreadStagesLeaveNoRunReportRecords)
{
    if (obs::reportAtExit())
        GTEST_SKIP() << "ZKP_REPORT records every STARK stage";
    if (obs::tracingEnabled())
        GTEST_SKIP() << "ZKP_TRACE records every STARK stage";
    ProofService service(testConfig(2, 16));
    service.registerCircuit(makeStarkFibHost("stark-fib:64", 64));
    const stark::FibonacciAir air(64, stark::Gl::fromU64(1),
                                  stark::Gl::fromU64(1));
    const auto pub2 =
        encodeGl({stark::Gl::fromU64(1), stark::Gl::fromU64(1)});
    const auto pub3 = encodeGl(air.publicInputs());

    const std::size_t before = obs::stageReports().size();
    constexpr int kPairs = 16;
    for (int i = 0; i < kPairs; ++i) {
        Response proved =
            service.submitProve("stark-fib:64", pub2, {}).result.get();
        ASSERT_EQ(proved.status, Status::Ok);
        Response verified =
            service.submitVerify("stark-fib:64", pub3, proved.proof)
                .result.get();
        ASSERT_EQ(verified.status, Status::Ok);
        EXPECT_TRUE(verified.valid);
    }
    EXPECT_EQ(obs::stageReports().size(), before);
}

TEST(StarkServing, MimcHostAndMalformedInputs)
{
    ProofService service(testConfig(1, 8));
    service.registerCircuit(makeStarkMimcHost("stark-mimc:64", 64));

    const stark::MimcAir air(64, stark::Gl::fromU64(9));
    const auto pub = encodeGl(air.publicInputs());

    Response proved =
        service.submitProve("stark-mimc:64", pub, {}).result.get();
    ASSERT_EQ(proved.status, Status::Ok);

    Response verified =
        service.submitVerify("stark-mimc:64", pub, proved.proof)
            .result.get();
    ASSERT_EQ(verified.status, Status::Ok);
    EXPECT_TRUE(verified.valid);

    // A non-empty private input is a protocol violation (the trace is
    // recomputed from the statement).
    EXPECT_EQ(service.submitProve("stark-mimc:64", pub, {0x01})
                  .result.get()
                  .status,
              Status::InvalidRequest);

    // Truncated statement and garbage proof bytes.
    std::vector<std::uint8_t> shortPub(pub.begin(), pub.end() - 1);
    EXPECT_EQ(service.submitProve("stark-mimc:64", shortPub, {})
                  .result.get()
                  .status,
              Status::InvalidRequest);
    std::vector<std::uint8_t> junk(16, 0xee);
    EXPECT_EQ(service.submitVerify("stark-mimc:64", pub, junk)
                  .result.get()
                  .status,
              Status::InvalidRequest);
}

// ---------------------------------------------------------------------
// The socket server, in-process over a real Unix socket
// ---------------------------------------------------------------------

/** A socket path under /tmp unique to this process and test. */
std::string
testSocketPath()
{
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return "/tmp/zkp_" + std::to_string(::getpid()) + "_" +
           info->name() + ".sock";
}

/** A Server on testSocketPath(), running on its own thread. */
class RunningServer
{
  public:
    explicit RunningServer(ProofService& service)
        : server_(service, testSocketPath())
    {
        listening_ = server_.listen();
        thread_ = std::thread([this] {
            server_.run();
            returned_.store(true);
        });
    }

    ~RunningServer() { stop(); }

    RunningServer(const RunningServer&) = delete;
    RunningServer& operator=(const RunningServer&) = delete;

    /** stop() the server and wait for run() to return. */
    void
    stop()
    {
        server_.stop();
        if (thread_.joinable())
            thread_.join();
    }

    Server& server() { return server_; }
    bool listening() const { return listening_; }
    bool returned() const { return returned_.load(); }
    const std::string& path() const { return server_.socketPath(); }

  private:
    Server server_;
    bool listening_ = false;
    std::atomic<bool> returned_{false};
    std::thread thread_;
};

/**
 * One client connection, closed on destruction. Reads time out after
 * 30 s, so a server that never answers fails the test instead of
 * hanging it.
 */
class Client
{
  public:
    explicit Client(const std::string& path)
        : fd_(wire::connectUnix(path))
    {
        const timeval timeout{30, 0};
        if (fd_ >= 0)
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout));
    }

    ~Client() { close(); }

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    int fd() const { return fd_; }

    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    /** Send @p req and read one reply; nullopt if none came. */
    std::optional<wire::Frame>
    call(const wire::Frame& req)
    {
        wire::Frame resp;
        if (!wire::writeFrame(fd_, req) || !wire::readFrame(fd_, resp))
            return std::nullopt;
        return resp;
    }

    /** A Result reply to @p req, decoded; nullopt otherwise. */
    std::optional<wire::Result>
    request(const wire::Frame& req)
    {
        auto resp = call(req);
        if (!resp || resp->type != wire::MsgType::Result)
            return std::nullopt;
        return wire::decodeResult(resp->body);
    }

    bool
    ping()
    {
        wire::Frame req;
        req.type = wire::MsgType::Ping;
        auto resp = call(req);
        return resp && resp->type == wire::MsgType::Pong;
    }

    /** True when the server closed its end (not on a read timeout). */
    bool
    seesEof()
    {
        std::uint8_t b;
        return ::recv(fd_, &b, 1, 0) == 0;
    }

  private:
    int fd_;
};

wire::Frame
proveFrame(const std::string& circuit, std::vector<std::uint8_t> pub,
           std::vector<std::uint8_t> priv)
{
    wire::ProveRequest m;
    m.circuit = circuit;
    m.publicInputs = std::move(pub);
    m.privateInputs = std::move(priv);
    wire::Frame f;
    f.type = wire::MsgType::ProveRequest;
    f.body = wire::encodeProveRequest(m);
    return f;
}

wire::Frame
verifyFrame(const std::string& circuit, std::vector<std::uint8_t> pub,
            std::vector<std::uint8_t> proof)
{
    wire::VerifyRequest m;
    m.priority = Priority::Batch;
    m.circuit = circuit;
    m.publicInputs = std::move(pub);
    m.proof = std::move(proof);
    wire::Frame f;
    f.type = wire::MsgType::VerifyRequest;
    f.body = wire::encodeVerifyRequest(m);
    return f;
}

/** The {...} value of every @p key in @p json, in document order. */
std::vector<std::string>
objectsAt(const std::string& json, const std::string& key)
{
    std::vector<std::string> out;
    const std::string pat = "\"" + key + "\":{";
    for (auto p = json.find(pat); p != std::string::npos;
         p = json.find(pat, p + 1)) {
        const auto start = p + pat.size() - 1;
        int depth = 0;
        for (auto i = start; i < json.size(); ++i) {
            if (json[i] == '{') {
                ++depth;
            } else if (json[i] == '}' && --depth == 0) {
                out.push_back(json.substr(start, i + 1 - start));
                break;
            }
        }
    }
    return out;
}

/** Poll @p done every millisecond for up to 30 s. */
template <typename Pred>
bool
eventually(Pred done)
{
    for (int i = 0; i < 30000 && !done(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return done();
}

/** Median of @p v (upper median for an even count); 0 when empty. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

TEST(ServeServer, SmokeLoadAgreesWithServerTelemetry)
{
    // zkperfd's smoke shape: 200 closed-loop requests from 4 clients,
    // a quarter of them batch-priority verifies of the client's latest
    // proof, beside a registered setup-free STARK host.
    constexpr int kRequests = 200;
    constexpr int kClients = 4;
    ProofService service(testConfig(2, 16));
    service.registerCircuit(
        makeExponentiationHost<snark::Bn254>("exp6", kSmallExp));
    service.registerCircuit(makeStarkFibHost("stark-fib:64", 64));
    RunningServer server(service);
    ASSERT_TRUE(server.listening());

    std::atomic<int> issued{0};
    std::atomic<int> failures{0};
    std::vector<std::vector<double>> proveSecs(kClients);
    std::vector<std::vector<double>> verifySecs(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            Client client(server.path());
            Rng rng(7001 + (u64)c);
            std::vector<std::uint8_t> lastPub, lastProof;
            for (int n; (n = issued.fetch_add(1)) < kRequests;) {
                const bool verify =
                    !lastProof.empty() && rng.nextBelow(4) == 0;
                auto [pub, priv] = expInputs(5000 + (u64)n);
                if (verify)
                    pub = lastPub;
                const auto t0 = std::chrono::steady_clock::now();
                const auto r =
                    client.request(verify
                                       ? verifyFrame("exp6", pub,
                                                     lastProof)
                                       : proveFrame("exp6", pub, priv));
                const double secs =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                if (!r || r->status != Status::Ok ||
                    (verify && !r->valid)) {
                    failures.fetch_add(1);
                    continue;
                }
                (verify ? verifySecs : proveSecs)[c].push_back(secs);
                if (!verify) {
                    lastPub = std::move(pub);
                    lastProof = r->proof;
                }
            }
        });
    for (auto& t : clients)
        t.join();

    std::vector<double> proves, verifies;
    for (int c = 0; c < kClients; ++c) {
        proves.insert(proves.end(), proveSecs[c].begin(),
                      proveSecs[c].end());
        verifies.insert(verifies.end(), verifySecs[c].begin(),
                        verifySecs[c].end());
    }
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(proves.size() + verifies.size(), (std::size_t)kRequests);
    ASSERT_FALSE(verifies.empty());

    // The stats/v2 scrape over the socket.
    Client scraper(server.path());
    wire::Frame statsReq;
    statsReq.type = wire::MsgType::StatsV2Request;
    const auto statsResp = scraper.call(statsReq);
    ASSERT_TRUE(statsResp.has_value());
    ASSERT_EQ(statsResp->type, wire::MsgType::StatsV2Response);
    const auto stats = wire::decodeStatsV2Response(statsResp->body);
    ASSERT_TRUE(stats.has_value());
    const std::string& json = stats->json;
    EXPECT_EQ(json.rfind("{\"schema\":\"zkperf-serve-stats/2\"", 0), 0u)
        << json.substr(0, 200);
    const auto service_obj = objectsAt(json, "service");
    ASSERT_EQ(service_obj.size(), 1u);
    for (const char* key :
         {"workers", "queue_capacity", "queue_depth", "in_flight",
          "uptime_seconds", "accepted", "completed",
          "rejected_queue_full"})
        EXPECT_NE(service_obj[0].find("\"" + std::string(key) + "\":"),
                  std::string::npos)
            << "service missing " << key;
    EXPECT_NE(service_obj[0].find("\"completed\":200,"),
              std::string::npos)
        << service_obj[0];
    const auto cache_obj = objectsAt(json, "cache");
    ASSERT_EQ(cache_obj.size(), 1u);
    EXPECT_NE(cache_obj[0].find("\"keyless_serves\":"),
              std::string::npos);

    const ServiceStatsSnapshot snap = service.snapshotStats();
    EXPECT_EQ(snap.completed, (std::uint64_t)kRequests);
    EXPECT_GE(snap.cache.builds, 1u);
    ASSERT_FALSE(snap.lanes.empty());
    // Every lane carries every distribution field.
    for (const char* dist :
         {"queue_wait_us", "key_wait_us", "exec_us", "serialize_us",
          "e2e_us", "deadline_slack_us", "verify_batch"}) {
        const auto objs = objectsAt(json, dist);
        EXPECT_EQ(objs.size(), snap.lanes.size()) << dist;
        for (const auto& obj : objs)
            for (const char* field :
                 {"count", "mean", "p50", "p99", "p999", "min", "max"})
                EXPECT_NE(obj.find("\"" + std::string(field) + "\":"),
                          std::string::npos)
                    << dist << " missing " << field;
    }

    bool proveInteractive = false;
    std::uint64_t completed = 0, shed = 0, missed = 0, canceled = 0;
    for (const auto& lane : snap.lanes) {
        proveInteractive |= lane.kind == OpKind::Prove &&
                            lane.priority == Priority::Interactive;
        EXPECT_EQ(lane.e2eUs.count, lane.completed + lane.errors);
        completed += lane.completed;
        shed += lane.shed;
        missed += lane.deadlineMiss;
        canceled += lane.canceled;
    }
    EXPECT_TRUE(proveInteractive);
    // The lanes are the only record: each total is its lane sum.
    EXPECT_EQ(snap.completed, completed);
    EXPECT_EQ(snap.rejectedQueueFull, shed);
    EXPECT_EQ(snap.deadlineExceeded, missed);
    EXPECT_EQ(snap.canceled, canceled);

    // A request's server lifespan (arrive -> replied) lies inside the
    // client's window, so the server p50 can pass the client p50 only
    // through a clock or unit bug. 2x + 10 ms absorbs the log2
    // histogram's in-bucket interpolation.
    for (const auto kind : {OpKind::Prove, OpKind::Verify}) {
        const double clientP50 =
            median(kind == OpKind::Prove ? proves : verifies);
        for (const auto& lane : snap.lanes) {
            if (lane.kind == kind && lane.e2eUs.count > 0) {
                EXPECT_LE(lane.e2eUs.quantile(0.5) / 1e6,
                          2 * clientP50 + 0.010)
                    << opKindName(kind) << " server p50 vs client p50 "
                    << clientP50;
            }
        }
    }
}

TEST(ServeServer, UnknownTypeDropsOnlyItsConnection)
{
    ProofService service(testConfig(1, 8));
    RunningServer server(service);
    ASSERT_TRUE(server.listening());
    Client a(server.path()), b(server.path());
    ASSERT_TRUE(a.ping());
    ASSERT_TRUE(b.ping());

    // An undecodable request body is answered, not dropped.
    wire::Frame garbled;
    garbled.type = wire::MsgType::ProveRequest;
    garbled.body = {0x01};
    const auto r = a.request(garbled);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, Status::InvalidRequest);

    wire::Frame unknown;
    unknown.type = (wire::MsgType)0x7f;
    ASSERT_TRUE(wire::writeFrame(a.fd(), unknown));
    EXPECT_TRUE(a.seesEof());

    EXPECT_TRUE(b.ping());
    Client c(server.path());
    EXPECT_TRUE(c.ping());
}

TEST(ServeServer, ClientClosingMidProveLeavesServerServing)
{
    auto ctl = std::make_shared<HostControl>();
    ProofService service(testConfig(1, 8));
    service.registerCircuit(makeLatchHost("latch", ctl));
    RunningServer server(service);
    ASSERT_TRUE(server.listening());

    Client leaver(server.path());
    ASSERT_TRUE(wire::writeFrame(leaver.fd(), proveFrame("latch", {1}, {})));
    ctl->awaitStarts(1);
    leaver.close();
    ctl->release();

    // The reply to the vanished client fails to send; nothing else.
    Client other(server.path());
    EXPECT_TRUE(other.ping());
    const auto r = other.request(proveFrame("latch", {2}, {}));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, Status::Ok);
    // One worker: the abandoned prove settled before this one ran.
    EXPECT_EQ(service.snapshotStats().completed, 2u);
}

TEST(ServeServer, StopDrainsOpenConnectionsAndSettlesRequests)
{
    auto ctl = std::make_shared<HostControl>();
    ProofService service(testConfig(1, 8));
    service.registerCircuit(makeLatchHost("latch", ctl));
    RunningServer server(service);
    ASSERT_TRUE(server.listening());

    // Four accepted connections: idle, half a frame sent, a prove in
    // flight, and a prove queued behind it.
    Client idle(server.path()), half(server.path());
    Client inFlight(server.path()), queued(server.path());
    for (Client* c : {&idle, &half, &inFlight, &queued})
        ASSERT_TRUE(c->ping());
    ASSERT_TRUE(
        wire::writeFrame(inFlight.fd(), proveFrame("latch", {1}, {})));
    ctl->awaitStarts(1);
    ASSERT_TRUE(
        wire::writeFrame(queued.fd(), proveFrame("latch", {2}, {})));
    const auto payload = wire::encodePayload(proveFrame("latch", {3}, {}));
    const std::uint32_t len = (std::uint32_t)payload.size();
    const std::uint8_t prefix[4] = {
        (std::uint8_t)len, (std::uint8_t)(len >> 8),
        (std::uint8_t)(len >> 16), (std::uint8_t)(len >> 24)};
    ASSERT_EQ(::send(half.fd(), prefix, 4, 0), 4);
    ASSERT_EQ(::send(half.fd(), payload.data(), payload.size() / 2, 0),
              (ssize_t)(payload.size() / 2));
    ASSERT_TRUE(eventually(
        [&] { return service.snapshotStats().queueDepth == 1; }));

    server.server().stop();
    // The connections blocked in read close at once; run() waits for
    // the two proves.
    EXPECT_TRUE(idle.seesEof());
    EXPECT_TRUE(half.seesEof());
    EXPECT_FALSE(server.returned());

    ctl->release();
    for (Client* c : {&inFlight, &queued}) {
        wire::Frame resp;
        ASSERT_TRUE(wire::readFrame(c->fd(), resp));
        ASSERT_EQ(resp.type, wire::MsgType::Result);
        const auto r = wire::decodeResult(resp.body);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->status, Status::Ok);
        EXPECT_TRUE(c->seesEof());
    }
    // On failure the clients close first, so the join cannot hang.
    ASSERT_TRUE(eventually([&] { return server.returned(); }));
    EXPECT_NE(::access(server.path().c_str(), F_OK), 0);
    const ServiceStatsSnapshot snap = service.snapshotStats();
    EXPECT_EQ(snap.accepted, 2u);
    EXPECT_EQ(snap.completed, 2u);
}

TEST(ServeServer, StopBeforeListenReturnsAtOnce)
{
    // zkperfd's signal-during-prewarm path: a stop() that precedes
    // listen() still ends run() without waiting for a connection.
    ProofService service(testConfig(1, 1));
    Server server(service, testSocketPath());
    server.stop();
    ASSERT_TRUE(server.listen());
    server.run();
    EXPECT_TRUE(server.stopping());
    EXPECT_NE(::access(server.socketPath().c_str(), F_OK), 0);
}

} // namespace
} // namespace zkp::serve
