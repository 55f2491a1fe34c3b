/// \file wide_sim_avx2.cpp
/// \brief AVX2 gate kernels: one 256-bit word per w256 group, a pair per
/// w512 group.
///
/// Every build compiles this TU with `-mavx2` (as every `*_avx2.cpp`
/// TU); the dispatcher routes here only when cpuid reports `avx2`, so the
/// binary still runs on an x86-64 without it.  It includes only the kernel
/// headers, so no other inline function of the library gets an
/// out-of-line copy built with the arch flag.  On an AVX-512 machine these
/// kernels serve the w256 groups, or every wide group when the `QSYN_SIMD`
/// environment variable caps the choice at `avx2`.

#include "wide_sim_kernels.hpp"

namespace qsyn::wide_detail
{

gate_kernel_fn avx2_gate_kernel( unsigned words )
{
  using namespace simd_detail;
  return words == 8u ? &gate_kernel<avx2_ops8> : &gate_kernel<avx2_ops4>;
}

} // namespace qsyn::wide_detail
