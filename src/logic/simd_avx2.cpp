/// \file simd_avx2.cpp
/// \brief AVX2 slot kernels: a pair of 256-bit words per lane group.
///
/// Every build compiles this TU, and only the `*_avx2.cpp` TUs, with
/// `-mavx2`; the dispatcher routes here only when cpuid reports `avx2`, so
/// the binary still runs on an x86-64 without it.  The TU includes only
/// the kernel header, so no other inline function of the library gets an
/// out-of-line copy built with the arch flag.  On an AVX-512 machine these
/// kernels run only when the `QSYN_SIMD` environment variable caps the
/// choice at `avx2`.

#include "simd_kernels.hpp"

namespace qsyn::simd_detail
{

slot_kernels avx2_slot_kernels()
{
  return slot_kernels_of<avx2_ops8>();
}

} // namespace qsyn::simd_detail
