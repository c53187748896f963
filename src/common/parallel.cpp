#include "common/parallel.h"

namespace zkp {

namespace {
thread_local double gParallelSeconds = 0.0;
} // namespace

double
parallelWorkSeconds()
{
    return gParallelSeconds;
}

void
resetParallelWorkSeconds()
{
    gParallelSeconds = 0.0;
}

void
addParallelWorkSeconds(double s)
{
    gParallelSeconds += s;
}

} // namespace zkp
