/// \file simd_avx2.cpp
/// \brief AVX2 slot kernels: one 256-bit word per 4-word group, a pair
/// per 8-word group.
///
/// Every build compiles this TU, and only the `*_avx2.cpp` TUs, with
/// `-mavx2`; the dispatcher routes here only when cpuid reports `avx2`, so
/// the binary still runs on an x86-64 without it.  The TU includes only
/// the kernel header, so no other inline function of the library gets an
/// out-of-line copy built with the arch flag.  On an AVX-512 machine these
/// kernels serve the 4-word groups, or every wide group when the
/// `QSYN_SIMD` environment variable caps the choice at `avx2`.

#include "simd_kernels.hpp"

namespace qsyn::simd_detail
{

slot_kernels avx2_slot_kernels( unsigned words )
{
  return words == 8u ? slot_kernels_of<avx2_ops8>() : slot_kernels_of<avx2_ops4>();
}

} // namespace qsyn::simd_detail
