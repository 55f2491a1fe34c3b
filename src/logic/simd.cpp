/// \file simd.cpp
/// \brief Backend dispatch and the portable slot kernels.

#include "simd.hpp"

#include <cstdlib>
#include <string>

#include "simd_kernels.hpp"

namespace qsyn
{

namespace simd_detail
{

// The vector backend tables; each lives in a TU built with its arch flag
// (simd_avx2.cpp, simd_avx512.cpp) and runs only after cpuid agrees below.
slot_kernels avx2_slot_kernels();
slot_kernels avx512_slot_kernels();

namespace
{

bool cpu_supports( simd_backend backend )
{
  switch ( backend )
  {
  case simd_backend::avx2:
    return __builtin_cpu_supports( "avx2" ) != 0;
  case simd_backend::avx512:
    return __builtin_cpu_supports( "avx512f" ) != 0;
  default:
    return true;
  }
}

/// Runtime cap from the QSYN_SIMD environment variable, parsed once:
/// "off"/"portable" pin the portable kernels, "avx2" caps at AVX2,
/// "avx512"/"native" leave the cpuid choice alone.  Unknown values are
/// ignored rather than fatal — a mistyped override must not change
/// results, only (at worst) speed.
simd_backend backend_cap()
{
  static const simd_backend cap = [] {
    const char* env = std::getenv( "QSYN_SIMD" );
    if ( env == nullptr )
    {
      return simd_backend::avx512;
    }
    const std::string v( env );
    if ( v == "off" || v == "portable" )
    {
      return simd_backend::portable;
    }
    if ( v == "avx2" )
    {
      return simd_backend::avx2;
    }
    return simd_backend::avx512;
  }();
  return cap;
}

bool backend_usable( simd_backend backend )
{
  return cpu_supports( backend ) && static_cast<int>( backend ) <= static_cast<int>( backend_cap() );
}

} // namespace

slot_kernels slot_kernels_for( simd_backend backend )
{
  switch ( backend )
  {
  case simd_backend::avx2:
    return avx2_slot_kernels();
  case simd_backend::avx512:
    return avx512_slot_kernels();
  default:
    return slot_kernels_of<portable_ops>();
  }
}

} // namespace simd_detail

const char* simd_backend_name( simd_backend backend )
{
  switch ( backend )
  {
  case simd_backend::avx2:
    return "avx2";
  case simd_backend::avx512:
    return "avx512";
  default:
    return "portable";
  }
}

simd_backend active_simd_backend()
{
  for ( const auto backend : { simd_backend::avx512, simd_backend::avx2 } )
  {
    if ( simd_detail::backend_usable( backend ) )
    {
      return backend;
    }
  }
  return simd_backend::portable;
}

void simd_and2_masked( std::uint64_t* dst, const std::uint64_t* a, std::uint64_t invert_a,
                       const std::uint64_t* b, std::uint64_t invert_b, std::size_t num_words )
{
  static const auto kernel = simd_detail::slot_kernels_for( active_simd_backend() ).and2;
  kernel( dst, a, invert_a, b, invert_b, num_words );
}

} // namespace qsyn
