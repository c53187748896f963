#include "obs/metrics.h"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json.h"

namespace zkp::obs {

namespace {

/**
 * One registry per instrument kind. Lookup is mutex-protected; the
 * instruments themselves are atomic, so only find-or-create pays for
 * the lock (and call sites cache the returned reference).
 */
template <typename T>
class NamedRegistry
{
  public:
    T&
    get(const std::string& name)
    {
        std::lock_guard<std::mutex> g(mutex_);
        auto& slot = map_[name];
        if (!slot)
            slot = std::make_unique<T>();
        return *slot;
    }

    template <typename Fn>
    void
    forEach(Fn&& fn)
    {
        std::lock_guard<std::mutex> g(mutex_);
        for (auto& [name, inst] : map_)
            fn(name, *inst);
    }

  private:
    std::mutex mutex_;
    std::map<std::string, std::unique_ptr<T>> map_;
};

// The registries are leaked on purpose: the ZKP_TRACE/ZKP_REPORT
// atexit hooks may run after ordinary static destructors, so
// instruments must stay valid for the whole process teardown.
NamedRegistry<Counter>& counters()
{
    static NamedRegistry<Counter>& r = *new NamedRegistry<Counter>;
    return r;
}

NamedRegistry<Gauge>& gauges()
{
    static NamedRegistry<Gauge>& r = *new NamedRegistry<Gauge>;
    return r;
}

NamedRegistry<Histogram>& histograms()
{
    static NamedRegistry<Histogram>& r = *new NamedRegistry<Histogram>;
    return r;
}

} // namespace

Counter&
counter(const std::string& name)
{
    return counters().get(name);
}

Gauge&
gauge(const std::string& name)
{
    return gauges().get(name);
}

Histogram&
histogram(const std::string& name)
{
    return histograms().get(name);
}

void
resetMetrics()
{
    counters().forEach([](const std::string&, Counter& c) { c.reset(); });
    gauges().forEach([](const std::string&, Gauge& g) { g.reset(); });
    histograms().forEach(
        [](const std::string&, Histogram& h) { h.reset(); });
}

std::vector<std::pair<std::string, u64>>
counterSnapshot()
{
    std::vector<std::pair<std::string, u64>> out;
    counters().forEach([&](const std::string& name, Counter& c) {
        out.emplace_back(name, c.value());
    });
    return out;
}

std::string
metricsJson()
{
    JsonWriter w;
    w.beginObject();

    w.key("counters").beginObject();
    counters().forEach([&](const std::string& name, Counter& c) {
        w.key(name).value(c.value());
    });
    w.endObject();

    w.key("gauges").beginObject();
    gauges().forEach([&](const std::string& name, Gauge& g) {
        w.key(name).value(g.value());
    });
    w.endObject();

    w.key("histograms").beginObject();
    histograms().forEach([&](const std::string& name, Histogram& h) {
        const Histogram::Snapshot s = h.snapshot();
        w.key(name).beginObject();
        w.key("count").value(s.count);
        w.key("sum").value(s.sum);
        w.key("min").value(s.min);
        w.key("max").value(s.max);
        w.key("buckets").beginArray();
        for (unsigned i = 0; i < Histogram::kBuckets; ++i) {
            const u64 n = s.buckets[i];
            if (n == 0)
                continue;
            w.beginObject();
            w.key("low").value(Histogram::bucketLow(i));
            w.key("count").value(n);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    });
    w.endObject();

    w.endObject();
    return w.take();
}

} // namespace zkp::obs
