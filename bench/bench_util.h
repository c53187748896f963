/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 *
 * Environment knobs (all optional):
 *   ZKP_MIN_LOG_N   smallest circuit size as log2 (default 10)
 *   ZKP_MAX_LOG_N   largest circuit size as log2 (default 12; the
 *                   paper sweeps to 18 — raise this when you have the
 *                   minutes to spare)
 *   ZKP_REPEATS     timing repeats, averaged (default 3, as in §IV)
 *   ZKP_SAMPLE_MASK memory-trace sampling mask (default 0 = trace all)
 *
 * A value that is not a decimal integer in its range (log sizes 1–30
 * with min <= max, repeats 1–1000, mask 0–2^20) prints why and exits 2.
 */

#ifndef ZKP_BENCH_UTIL_H
#define ZKP_BENCH_UTIL_H

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/analysis.h"
#include "snark/curve.h"

namespace zkp::bench {

/**
 * The decimal integer in environment variable @p name, or @p fallback
 * when it is unset. A value that is malformed or outside [@p lo, @p hi]
 * prints why and exits 2.
 */
inline long
envLong(const char* name, long fallback, long lo, long hi)
{
    const char* v = std::getenv(name);
    if (!v)
        return fallback;
    const char* end = v + std::strlen(v);
    long parsed = 0;
    const auto [ptr, ec] = std::from_chars(v, end, parsed);
    if (ec != std::errc() || ptr != end || parsed < lo || parsed > hi) {
        std::fprintf(stderr, "%s=\"%s\": expected an integer in [%ld, %ld]\n",
                     name, v, lo, hi);
        std::exit(2);
    }
    return parsed;
}

/** 2^ZKP_MIN_LOG_N .. 2^ZKP_MAX_LOG_N; exits 2 when min > max. */
inline std::vector<std::size_t>
sweepSizes()
{
    const long lo = envLong("ZKP_MIN_LOG_N", 10, 1, 30);
    const long hi = envLong("ZKP_MAX_LOG_N", 12, 1, 30);
    if (lo > hi) {
        std::fprintf(stderr, "empty size sweep: ZKP_MIN_LOG_N > "
                             "ZKP_MAX_LOG_N\n");
        std::exit(2);
    }
    std::vector<std::size_t> sizes;
    for (long k = lo; k <= hi; ++k)
        sizes.push_back(std::size_t(1) << k);
    return sizes;
}

inline unsigned
repeats()
{
    return (unsigned)envLong("ZKP_REPEATS", 3, 1, 1000);
}

inline sim::u32
sampleMask()
{
    return (sim::u32)envLong("ZKP_SAMPLE_MASK", 0, 0, 1L << 20);
}

/** Print a titled table. */
inline void
printTable(const std::string& title, const TextTable& t)
{
    std::printf("\n== %s ==\n%s", title.c_str(), t.render().c_str());
    std::fflush(stdout);
}

/** log2 of a power of two, for axis labels. */
inline unsigned
log2Of(std::size_t n)
{
    unsigned k = 0;
    while ((std::size_t(1) << (k + 1)) <= n)
        ++k;
    return k;
}

/** True when @p flag appears among the command-line arguments. */
inline bool
hasFlag(int argc, char** argv, const char* flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

} // namespace zkp::bench

#endif // ZKP_BENCH_UTIL_H
