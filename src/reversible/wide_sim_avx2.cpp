/// \file wide_sim_avx2.cpp
/// \brief AVX2 gate kernel: a pair of 256-bit words per lane group.
///
/// Every build compiles this TU with `-mavx2` (as every `*_avx2.cpp`
/// TU); the dispatcher routes here only when cpuid reports `avx2`, so the
/// binary still runs on an x86-64 without it.  It includes only the kernel
/// headers, so no other inline function of the library gets an
/// out-of-line copy built with the arch flag.  On an AVX-512 machine this
/// kernel runs only when the `QSYN_SIMD` environment variable caps the
/// choice at `avx2`.

#include "wide_sim_kernels.hpp"

namespace qsyn::wide_detail
{

gate_kernel_fn avx2_gate_kernel()
{
  return &gate_kernel<simd_detail::avx2_ops8>;
}

} // namespace qsyn::wide_detail
