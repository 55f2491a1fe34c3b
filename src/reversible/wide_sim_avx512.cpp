/// \file wide_sim_avx512.cpp
/// \brief AVX-512 gate kernel: one 512-bit word per lane group.
///
/// Every build compiles this TU with `-mavx512f` (as every
/// `*_avx512.cpp` TU); the dispatcher checks cpuid (`avx512f`) before
/// routing here.  Like the AVX2 TU it includes only the kernel headers.
/// The fused control step `acc & (v ^ m)` is a single `vpternlogq`, so a
/// gate pass costs about one instruction per control over 512 assignment
/// lanes.

#include "wide_sim_kernels.hpp"

namespace qsyn::wide_detail
{

gate_kernel_fn avx512_gate_kernel()
{
  return &gate_kernel<simd_detail::avx512_ops8>;
}

} // namespace qsyn::wide_detail
