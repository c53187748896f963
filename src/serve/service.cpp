#include "serve/service.h"

#include <cassert>
#include <chrono>
#include <stdexcept>

#include "obs/memprof.h"
#include "obs/trace.h"

namespace zkp::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
toMicros(double seconds)
{
    return seconds <= 0 ? 0 : (std::uint64_t)(seconds * 1e6);
}

} // namespace

ProofService::ProofService(ServiceConfig cfg)
    : cfg_([&] {
          assert(cfg.workers > 0 && cfg.queueCapacity > 0);
          if (cfg.proveThreads == 0) {
              const unsigned hw = std::thread::hardware_concurrency();
              cfg.proveThreads = hw > 0 ? hw : 1;
          }
          if (cfg.maxVerifyBatch == 0)
              cfg.maxVerifyBatch = 1;
          return cfg;
      }()),
      cache_(cfg_.keyCacheBytes), queue_(cfg_.queueCapacity)
{
    workers_.reserve(cfg_.workers);
    for (std::size_t i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ProofService::~ProofService()
{
    shutdown();
}

void
ProofService::registerCircuit(CircuitHost host)
{
    std::lock_guard<std::mutex> lock(hostsMu_);
    if (!hosts_.emplace(host.name, std::move(host)).second)
        throw std::invalid_argument("circuit already registered");
}

std::vector<std::string>
ProofService::circuits() const
{
    std::lock_guard<std::mutex> lock(hostsMu_);
    std::vector<std::string> out;
    out.reserve(hosts_.size());
    for (const auto& [name, host] : hosts_)
        out.push_back(name);
    return out;
}

const CircuitHost*
ProofService::findHost(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(hostsMu_);
    auto it = hosts_.find(name);
    return it == hosts_.end() ? nullptr : &it->second;
}

void
ProofService::prewarm(const std::string& circuit)
{
    const CircuitHost* host = findHost(circuit);
    if (!host)
        throw std::invalid_argument("unknown circuit: " + circuit);
    if (!host->needsKey)
        return; // transparent scheme: nothing to build or cache
    (void)cache_.getOrBuild(host->name + "@" + host->curve,
                            host->build);
}

ProofService::Ticket
ProofService::enqueue(std::unique_ptr<Job> job, RequestOptions opts)
{
    job->priority = opts.priority;
    job->id = nextRequestId_.fetch_add(1, std::memory_order_relaxed);
    job->tl.arrive = Clock::now();
    if (opts.timeoutSeconds > 0)
        job->deadline =
            job->tl.arrive +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(opts.timeoutSeconds));
    job->cancelled = std::make_shared<std::atomic<bool>>(false);

    Ticket ticket;
    ticket.cancelFlag = job->cancelled;
    ticket.result = job->promise.get_future();

    if (!findHost(job->circuit)) {
        settle(*job, Status::UnknownCircuit);
        return ticket;
    }
    if (!accepting_.load(std::memory_order_acquire)) {
        settle(*job, Status::ShuttingDown);
        return ticket;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    // Stamp before tryPush: once the job is in the queue a worker may
    // already be reading it, so the stamp cannot happen afterwards.
    job->tl.admitted = Clock::now();
    switch (queue_.tryPush(job)) {
      case RequestQueue::PushResult::Accepted:
        break;
      case RequestQueue::PushResult::Full:
        accepted_.fetch_sub(1, std::memory_order_relaxed);
        settle(*job, Status::QueueFull);
        break;
      case RequestQueue::PushResult::Closed:
        // Lost the race with shutdown() closing the queue after our
        // accepting_ check; this is a drain condition, not pressure.
        accepted_.fetch_sub(1, std::memory_order_relaxed);
        settle(*job, Status::ShuttingDown);
        break;
    }
    return ticket;
}

ProofService::Ticket
ProofService::submitProve(const std::string& circuit,
                          std::vector<std::uint8_t> public_inputs,
                          std::vector<std::uint8_t> private_inputs,
                          RequestOptions opts)
{
    auto job = std::make_unique<Job>();
    job->kind = Job::Kind::Prove;
    job->circuit = circuit;
    job->publicInputs = std::move(public_inputs);
    job->privateInputs = std::move(private_inputs);
    return enqueue(std::move(job), opts);
}

ProofService::Ticket
ProofService::submitVerify(const std::string& circuit,
                           std::vector<std::uint8_t> public_inputs,
                           std::vector<std::uint8_t> proof,
                           RequestOptions opts)
{
    auto job = std::make_unique<Job>();
    job->kind = Job::Kind::Verify;
    job->circuit = circuit;
    job->publicInputs = std::move(public_inputs);
    job->proofBytes = std::move(proof);
    return enqueue(std::move(job), opts);
}

void
ProofService::settle(Job& job, Status status)
{
    const OpKind kind =
        job.kind == Job::Kind::Prove ? OpKind::Prove : OpKind::Verify;
    switch (status) {
      case Status::QueueFull:
        hub_.lane(kind, job.priority, job.circuit).shed.add();
        break;
      case Status::DeadlineExceeded:
        hub_.lane(kind, job.priority, job.circuit)
            .deadlineMiss.add();
        break;
      case Status::Canceled:
        hub_.lane(kind, job.priority, job.circuit).canceled.add();
        break;
      default:
        // UnknownCircuit / ShuttingDown get no lane: lanes are keyed
        // by circuit name, and unknown names would hand callers
        // control of the key space.
        break;
    }
    job.tl.replied = Clock::now();
    Response r;
    r.status = status;
    r.queueSeconds = Timeline::seconds(job.tl.arrive, job.tl.replied);
    r.requestId = job.id;
    r.timeline = job.tl;
    job.promise.set_value(std::move(r));
}

bool
ProofService::admitForExecution(Job& job)
{
    if (job.cancelled &&
        job.cancelled->load(std::memory_order_relaxed)) {
        settle(job, Status::Canceled);
        return false;
    }
    if (Clock::now() > job.deadline) {
        settle(job, Status::DeadlineExceeded);
        return false;
    }
    return true;
}

void
ProofService::workerLoop(std::size_t index)
{
    (void)index;
    for (;;) {
        std::unique_ptr<Job> job = queue_.pop();
        if (!job)
            return; // closed and drained
        {
            std::lock_guard<std::mutex> lock(idleMu_);
            ++inFlight_;
        }
        if (job->kind == Job::Kind::Prove) {
            if (admitForExecution(*job))
                executeProve(*job);
        } else {
            std::vector<std::unique_ptr<Job>> group;
            group.push_back(std::move(job));
            if (admitForExecution(*group.front())) {
                // Opportunistic batching: fold every queued verify
                // for this circuit into one verifyBatch call.
                auto extra = queue_.takeVerifyBatch(
                    group.front()->circuit, cfg_.maxVerifyBatch - 1);
                for (auto& e : extra)
                    group.push_back(std::move(e));
                executeVerifyGroup(group);
            }
        }
        {
            std::lock_guard<std::mutex> lock(idleMu_);
            --inFlight_;
        }
        idleCv_.notify_all();
    }
}

void
ProofService::executeProve(Job& job)
{
    ZKP_TRACE_SCOPE("serve_prove", "rid", job.id);

    Response r;
    const CircuitHost* host = findHost(job.circuit);
    // Worker-thread allocation delta for this request; parallelFor
    // workers the prove fans out to are not attributed (documented
    // in OBSERVABILITY.md §5).
    const bool mem = obs::memprof::tracking();
    const std::uint64_t allocStart =
        mem ? obs::memprof::threadStats().allocBytes : 0;
    try {
        // Transparent schemes skip the cache entirely: keyReady
        // collapses onto dequeued-side time and the host gets a null
        // artifact, so key-wait histograms read as ~0 rather than as
        // perpetual misses.
        KeyCache::Artifact artifact;
        if (host->needsKey) {
            artifact = cache_.getOrBuild(
                host->name + "@" + host->curve, host->build);
        } else {
            keylessServes_.fetch_add(1, std::memory_order_relaxed);
        }
        job.tl.keyReady = Clock::now();
        r.status = host->prove(artifact.get(), job.publicInputs,
                               job.privateInputs, cfg_.proveThreads,
                               r.proof);
    } catch (...) {
        if (job.tl.keyReady == Timeline::Clock::time_point{})
            job.tl.keyReady = Clock::now(); // key build failed
        r.status = Status::InternalError;
    }
    if (mem)
        job.allocBytes =
            obs::memprof::threadStats().allocBytes - allocStart;
    job.tl.executed = Clock::now();
    finishAndReply(job, std::move(r));
}

void
ProofService::executeVerifyGroup(
    std::vector<std::unique_ptr<Job>>& group)
{
    ZKP_TRACE_SCOPE("serve_verify", "rid", group.front()->id);

    // Late-arriving members still get their own deadline/cancel gate;
    // admitForExecution settles the ones that fail it.
    std::vector<Job*> live;
    for (auto& j : group) {
        if (j.get() == group.front().get() || admitForExecution(*j))
            live.push_back(j.get());
    }

    const CircuitHost* host = findHost(group.front()->circuit);
    std::vector<VerifyItem> items(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
        items[i].publicInputs = &live[i]->publicInputs;
        items[i].proof = &live[i]->proofBytes;
    }
    // Batch members share the key-ready/executed stamps: one
    // verifyBatch call settles the whole group. takeVerifyBatch
    // stamped each member's `dequeued` before this point, so the
    // per-request monotonic order still holds.
    Timeline::Clock::time_point keyReady{};
    const bool mem = obs::memprof::tracking();
    const std::uint64_t allocStart =
        mem ? obs::memprof::threadStats().allocBytes : 0;
    try {
        KeyCache::Artifact artifact;
        if (host->needsKey) {
            artifact = cache_.getOrBuild(
                host->name + "@" + host->curve, host->build);
        } else {
            keylessServes_.fetch_add(1, std::memory_order_relaxed);
        }
        keyReady = Clock::now();
        host->verify(artifact.get(), items);
    } catch (...) {
        if (keyReady == Timeline::Clock::time_point{})
            keyReady = Clock::now(); // key build failed
        for (auto& item : items)
            item.status = Status::InternalError;
    }
    const Clock::time_point executed = Clock::now();
    const std::uint64_t allocPer =
        mem && !live.empty()
            ? (obs::memprof::threadStats().allocBytes - allocStart) /
                  live.size()
            : 0;

    for (std::size_t i = 0; i < live.size(); ++i) {
        Job& j = *live[i];
        j.tl.keyReady = keyReady;
        j.tl.executed = executed;
        j.allocBytes = allocPer;
        Response r;
        r.status = items[i].status;
        r.valid = items[i].valid;
        r.batchSize = (std::uint32_t)items.size();
        finishAndReply(j, std::move(r));
    }
}

void
ProofService::finishAndReply(Job& job, Response&& r)
{
    job.tl.serialized = Clock::now();
    job.tl.replied = Clock::now();

    r.requestId = job.id;
    r.timeline = job.tl;
    r.queueSeconds = Timeline::seconds(job.tl.arrive, job.tl.dequeued);
    r.keyWaitSeconds =
        Timeline::seconds(job.tl.dequeued, job.tl.keyReady);
    r.execSeconds = Timeline::seconds(job.tl.keyReady, job.tl.executed);
    r.serializeSeconds =
        Timeline::seconds(job.tl.executed, job.tl.serialized);

    if (r.status == Status::InvalidRequest)
        invalid_.fetch_add(1, std::memory_order_relaxed);

    const OpKind kind =
        job.kind == Job::Kind::Prove ? OpKind::Prove : OpKind::Verify;
    MetricsHub::Lane& lane = hub_.lane(kind, job.priority, job.circuit);
    // queue + key + exec + serialize tile arrive → serialized.
    lane.queueWaitUs.record(toMicros(r.queueSeconds));
    lane.keyWaitUs.record(toMicros(r.keyWaitSeconds));
    lane.execUs.record(toMicros(r.execSeconds));
    lane.serializeUs.record(toMicros(r.serializeSeconds));
    lane.e2eUs.record(
        toMicros(Timeline::seconds(job.tl.arrive, job.tl.replied)));
    if (job.deadline != Clock::time_point::max()) {
        const double slack =
            std::chrono::duration<double>(job.deadline - job.tl.replied)
                .count();
        if (slack > 0)
            lane.deadlineSlackUs.record(toMicros(slack));
    }
    if (job.kind == Job::Kind::Verify)
        lane.verifyBatch.record(r.batchSize);
    if (job.allocBytes)
        lane.allocBytes.record(job.allocBytes);
    if (r.status == Status::Ok)
        lane.completed.add();
    else
        lane.errors.add();

    // Metrics land before the promise resolves, so a scrape taken
    // after future.get() returns always sees this request.
    job.promise.set_value(std::move(r));
}

void
ProofService::stopWorkers()
{
    queue_.close();
    for (auto& w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();
}

void
ProofService::drain()
{
    std::lock_guard<std::mutex> lifecycle(lifecycleMu_);
    if (stopped_.load(std::memory_order_acquire))
        return;
    accepting_.store(false, std::memory_order_release);
    {
        std::unique_lock<std::mutex> lock(idleMu_);
        idleCv_.wait(lock, [&] {
            return queue_.depth() == 0 && inFlight_ == 0;
        });
    }
    stopWorkers();
    stopped_.store(true, std::memory_order_release);
}

void
ProofService::shutdown()
{
    std::lock_guard<std::mutex> lifecycle(lifecycleMu_);
    if (stopped_.load(std::memory_order_acquire))
        return;
    accepting_.store(false, std::memory_order_release);
    for (auto& job : queue_.drainAll())
        settle(*job, Status::ShuttingDown);
    stopWorkers();
    stopped_.store(true, std::memory_order_release);
}

ServiceStatsSnapshot
ProofService::snapshotStats() const
{
    ServiceStatsSnapshot s;
    s.lanes = hub_.snapshotLanes();
    for (const auto& lane : s.lanes) {
        s.completed += lane.completed;
        s.rejectedQueueFull += lane.shed;
        s.deadlineExceeded += lane.deadlineMiss;
        s.canceled += lane.canceled;
    }
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.invalid = invalid_.load(std::memory_order_relaxed);
    s.keylessServes =
        keylessServes_.load(std::memory_order_relaxed);
    s.queueDepth = queue_.depth();
    s.queueCapacity = queue_.capacity();
    {
        std::lock_guard<std::mutex> lock(idleMu_);
        s.inFlight = inFlight_;
    }
    s.workers = cfg_.workers;
    s.uptimeSeconds = std::chrono::duration<double>(
                          Timeline::Clock::now() - started_)
                          .count();
    s.cache = cache_.stats();
    s.memprofEnabled = obs::memprof::tracking();
    s.rssBytes = obs::memprof::rssBytes();
    s.peakRssBytes = obs::memprof::peakRssBytes();
    s.trackedBytes = obs::memprof::trackedTotalBytes();
    return s;
}

std::string
ProofService::statsJson() const
{
    return zkp::serve::statsJson(snapshotStats());
}

} // namespace zkp::serve
