/**
 * @file
 * Runtime CPU dispatch for the batched field-multiply kernel.
 *
 * The ff layer carries two implementations of the batched Montgomery
 * multiply (ff/fp.h mulBatch):
 *
 *   - kScalar  one CIOS multiply per element (the reference path,
 *              identical to operator*), for every field and for the
 *              tails of IFMA batches;
 *   - kIfma    AVX-512 IFMA (vpmadd52) radix-52 CIOS, eight products
 *              per call, for 4-limb (<= 256-bit) and 6-limb
 *              (<= 384-bit) fields on CPUs that expose avx512ifma +
 *              avx512vl; one kernel template serves both widths
 *              (ff/fp_ifma.h). Fp2 batches run on it through three
 *              base-field passes (ff/fp2.h).
 *
 * The choice is made once per process from CPUID, and can be forced
 * down to the scalar reference with ZKP_FF_FORCE_SCALAR=1 (CI runs the
 * sanitizer jobs this way so both sides of every dispatch stay
 * exercised).
 */

#ifndef ZKP_FF_DISPATCH_H
#define ZKP_FF_DISPATCH_H

#include <cstdlib>

// Defines ZKP_FF_HAVE_IFMA (and the kernel) when the compiler can
// target AVX-512 IFMA; included here so every user of the dispatch
// agrees on whether the kIfma tier exists.
#include "ff/fp_ifma.h"

namespace zkp::ff {

enum class MulImpl
{
    kScalar,
    kIfma,
};

/**
 * True when this build AND this CPU can run the IFMA kernel (tests use
 * it to decide whether the kIfma tier is exercisable).
 */
inline bool
ifmaSupported()
{
#if defined(__x86_64__) && defined(__GNUC__) && defined(ZKP_FF_HAVE_IFMA)
    return __builtin_cpu_supports("avx512ifma") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("avx512dq");
#else
    return false;
#endif
}

namespace detail {

inline MulImpl
detectMulImpl()
{
    const char* force = std::getenv("ZKP_FF_FORCE_SCALAR");
    if (force && force[0] == '1')
        return MulImpl::kScalar;
    return ifmaSupported() ? MulImpl::kIfma : MulImpl::kScalar;
}

} // namespace detail

/** The batched-multiply implementation selected for this process. */
inline MulImpl
mulImpl()
{
    static const MulImpl impl = detail::detectMulImpl();
    return impl;
}

/** Diagnostic name of the active implementation. */
inline const char*
mulImplName()
{
    switch (mulImpl()) {
    case MulImpl::kScalar:
        return "scalar";
    case MulImpl::kIfma:
        return "avx512ifma";
    }
    return "?";
}

} // namespace zkp::ff

#endif // ZKP_FF_DISPATCH_H
