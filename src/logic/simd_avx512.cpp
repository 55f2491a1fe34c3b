/// \file simd_avx512.cpp
/// \brief AVX-512 slot kernels: one 512-bit word per 8-word group.
///
/// Every build compiles this TU, and only the `*_avx512.cpp` TUs, with
/// `-mavx512f`; the dispatcher checks cpuid (`avx512f`) before routing
/// here.  Like the AVX2 TU it includes only the kernel header.  The fused
/// fanin step `acc & (v ^ m)` is a single `vpternlogq`.  4-word groups on
/// an AVX-512 machine are served by the AVX2 table — a 256-bit group
/// gains nothing from 512-bit registers.

#include "simd_kernels.hpp"

namespace qsyn::simd_detail
{

slot_kernels avx512_slot_kernels( unsigned words )
{
  static_cast<void>( words ); // only 8-word groups route here
  return slot_kernels_of<avx512_ops8>();
}

} // namespace qsyn::simd_detail
