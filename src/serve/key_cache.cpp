#include "serve/key_cache.h"

#include <chrono>
#include <utility>

#include "obs/memprof.h"
#include "obs/trace.h"

namespace zkp::serve {

namespace {

/// Mirror every resident-bytes change into the memprof owner account
/// so serve footprint reconciles in trackedSnapshot().
void
accountBytes(std::int64_t delta)
{
    obs::memprof::trackedAdd("serve.key_cache", delta);
}

} // namespace

KeyCache::~KeyCache()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (bytes_)
        accountBytes(-(std::int64_t)bytes_);
}

KeyCache::Artifact
KeyCache::getOrBuild(const std::string& key, const Builder& build)
{
    std::shared_future<Built> future;
    bool leader = false;
    std::promise<Built> promise;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            it->second.lastUse = ++tick_;
            ++hits_;
            future = it->second.future;
        } else {
            ++misses_;
            leader = true;
            Entry e;
            future = e.future =
                promise.get_future().share();
            e.lastUse = ++tick_;
            entries_.emplace(key, std::move(e));
        }
    }

    if (!leader) {
        // Either ready or being built by the leader; wait either way.
        // A failed build surfaces the leader's exception here.
        return future.get().value;
    }

    // Singleflight leader: build outside the lock so other keys (and
    // waiters of this one) are not serialized behind setup work.
    const auto buildStart = std::chrono::steady_clock::now();
    Built built;
    try {
        ZKP_TRACE_SCOPE("serve_key_build");
        built = build();
    } catch (...) {
        // Revert the key to cold before publishing the failure, so a
        // later request retries instead of joining a doomed future.
        {
            std::lock_guard<std::mutex> lock(mu_);
            entries_.erase(key);
        }
        promise.set_exception(std::current_exception());
        throw;
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        // The entry can only have left the map through clear();
        // re-insert in that case so the bookkeeping stays coherent.
        if (it == entries_.end()) {
            Entry e;
            e.future = future;
            e.lastUse = ++tick_;
            it = entries_.emplace(key, std::move(e)).first;
        }
        it->second.ready = true;
        it->second.bytes = built.bytes;
        bytes_ += built.bytes;
        accountBytes((std::int64_t)built.bytes);
        ++builds_; // under mu_, where stats() reads it
        const std::uint64_t us =
            (std::uint64_t)std::chrono::duration_cast<
                std::chrono::microseconds>(
                std::chrono::steady_clock::now() - buildStart)
                .count();
        buildMicros_ += us;
        evictLocked(key);
    }
    promise.set_value(built);
    return built.value;
}

void
KeyCache::evictLocked(const std::string& keep)
{
    if (capacityBytes_ == 0)
        return;
    while (bytes_ > capacityBytes_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (!it->second.ready || it->first == keep)
                continue;
            if (victim == entries_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == entries_.end())
            break; // only the protected / in-flight entries remain
        bytes_ -= victim->second.bytes;
        accountBytes(-(std::int64_t)victim->second.bytes);
        entries_.erase(victim);
        ++evictions_;
    }
}

std::size_t
KeyCache::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

void
KeyCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->second.ready) {
            bytes_ -= it->second.bytes;
            accountBytes(-(std::int64_t)it->second.bytes);
            it = entries_.erase(it);
        } else {
            ++it; // a build in flight keeps its entry
        }
    }
}

KeyCache::Stats
KeyCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.builds = builds_;
    s.evictions = evictions_;
    s.entries = entries_.size();
    s.bytes = bytes_;
    s.buildMicros = buildMicros_;
    return s;
}

} // namespace zkp::serve
