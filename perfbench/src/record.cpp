#include "record.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "ff/dispatch.h"
#include "obs/trace.h"

namespace zkbench {

namespace {

std::string
quoted(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if ((unsigned char)c < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

void
Record::setTracing(bool on)
{
    if (on == zkp::obs::tracingEnabled())
        return;
    if (on) {
        zkp::obs::startTracing("");
    } else {
        zkp::obs::stopTracing();
        segments_.push_back(zkp::obs::collectedSpans());
    }
}

bool
Record::write(const std::string& path)
{
    setTracing(false);
    const bool withSpans = !segments_.empty();

    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string s = "{\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_);
    s += ",\"samples\":{";
    bool first = true;
    for (const auto& [name, vals] : samples_) {
        s += (first ? "" : ",") + quoted(name) + ":[";
        for (std::size_t i = 0; i < vals.size(); ++i)
            s += (i ? "," : "") + num(vals[i]);
        s += "]";
        first = false;
    }
    s += "},\"values\":{";
    first = true;
    for (const auto& [name, v] : values_) {
        s += (first ? "" : ",") + quoted(name) + ":" + num(v);
        first = false;
    }
    s += "},\"notes\":{";
    first = true;
    for (const auto& [name, v] : notes_) {
        s += (first ? "" : ",") + quoted(name) + ":" + quoted(v);
        first = false;
    }
    s += "}";
    if (withSpans) {
        // [name, segment, lane, start_ns, dur_ns, arg] per span;
        // run.py derives self time and explained fractions from the
        // nesting per (segment, lane).
        s += ",\"dropped_spans\":" +
             std::to_string(zkp::obs::droppedSpans());
        s += ",\"spans\":[";
        first = true;
        for (std::size_t seg = 0; seg < segments_.size(); ++seg) {
            for (const auto& ev : segments_[seg]) {
                s += (first ? "[" : ",[") + quoted(ev.name) + "," +
                     std::to_string(seg) + "," +
                     std::to_string(ev.tid) + "," +
                     std::to_string(ev.startNs) + "," +
                     std::to_string(ev.durNs) + "," +
                     std::to_string(ev.argVal) + "]";
                first = false;
            }
        }
        s += "]";
    }
    s += "}\n";
    const bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
    return std::fclose(f) == 0 && ok;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
noteHost(Record& rec, const Options& opt)
{
    rec.note("mul_impl", zkp::ff::mulImplName());
    rec.note("build_type", ZKBENCH_BUILD_TYPE);
    rec.value("threads", (double)opt.threads);
}

u64
nextRand(u64& state)
{
    u64 z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<std::uint8_t>
flipByte(std::vector<std::uint8_t> bytes, u64& state)
{
    if (bytes.empty())
        return bytes;
    const std::size_t pos = nextRand(state) % bytes.size();
    const std::uint8_t x = (std::uint8_t)(1 + nextRand(state) % 255);
    bytes[pos] ^= x;
    return bytes;
}

namespace {

// Work is cut into kProbeChunksPerThread chunks per thread, claimed
// through an atomic cursor as the library's thread pool does, so a
// thread that is descheduled delays the probe as it would a prove.
constexpr std::size_t kProbeChunkSteps = std::size_t(1) << 21;
constexpr std::size_t kProbeChunksPerThread = 4;

u64
probeChunk(u64 seed)
{
    u64 x[4] = {seed, seed + 1, seed + 2, seed + 3};
    for (std::size_t i = 0; i < kProbeChunkSteps; ++i) {
        for (u64& v : x) {
            const unsigned __int128 p =
                (unsigned __int128)(v | 1) * (v ^ 0x9e3779b97f4a7c15ULL);
            v = (u64)p ^ (u64)(p >> 64);
        }
    }
    return x[0] ^ x[1] ^ x[2] ^ x[3];
}

} // namespace

double
hostSpeedProbe(std::size_t threads)
{
    const std::size_t chunks = kProbeChunksPerThread * threads;
    std::atomic<std::size_t> cursor{0};
    std::vector<u64> out(threads, 0);
    const auto work = [&](std::size_t slot) {
        for (std::size_t c = cursor.fetch_add(1); c < chunks;
             c = cursor.fetch_add(1))
            out[slot] ^= probeChunk(4 * c);
    };
    std::vector<std::jthread> pool; // joined on every path out
    const double t0 = now();
    for (std::size_t i = 1; i < threads; ++i)
        pool.emplace_back(work, i);
    work(0);
    pool.clear(); // joins
    const double dt = now() - t0;
    // Keeps the compiler from dropping the work.
    static volatile u64 sink = 0;
    for (u64 v : out)
        sink = sink ^ v;
    return dt;
}

} // namespace zkbench
