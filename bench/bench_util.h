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
 */

#ifndef ZKP_BENCH_UTIL_H
#define ZKP_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/analysis.h"
#include "snark/curve.h"

namespace zkp::bench {

inline long
envLong(const char* name, long fallback)
{
    const char* v = std::getenv(name);
    return v ? std::atol(v) : fallback;
}

inline std::vector<std::size_t>
sweepSizes()
{
    const long lo = envLong("ZKP_MIN_LOG_N", 10);
    const long hi = envLong("ZKP_MAX_LOG_N", 12);
    std::vector<std::size_t> sizes;
    for (long k = lo; k <= hi; ++k)
        sizes.push_back(std::size_t(1) << k);
    return sizes;
}

inline unsigned
repeats()
{
    return (unsigned)envLong("ZKP_REPEATS", 3);
}

inline sim::u32
sampleMask()
{
    return (sim::u32)envLong("ZKP_SAMPLE_MASK", 0);
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
