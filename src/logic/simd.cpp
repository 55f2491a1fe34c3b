/// \file simd.cpp
/// \brief Backend dispatch and the portable slot kernels.

#include "simd.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "simd_kernels.hpp"

namespace qsyn
{

namespace simd_detail
{

// The vector backend tables; each lives in a TU built with its arch flag
// (simd_avx2.cpp, simd_avx512.cpp) and runs only after cpuid agrees below.
slot_kernels avx2_slot_kernels( unsigned words );
slot_kernels avx512_slot_kernels( unsigned words );

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

slot_kernels slot_kernels_for( simd_backend backend, unsigned words )
{
  switch ( backend )
  {
  case simd_backend::avx2:
    return avx2_slot_kernels( words );
  case simd_backend::avx512:
    return avx512_slot_kernels( words );
  default:
    break;
  }
  switch ( words )
  {
  case 1u:
    return slot_kernels_of<portable_ops<1>>();
  case 4u:
    return slot_kernels_of<portable_ops<4>>();
  case 8u:
    return slot_kernels_of<portable_ops<8>>();
  default:
    throw std::logic_error( "simd: unsupported lane-group width" );
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

simd_backend active_simd_backend( unsigned words )
{
  if ( words == 1u )
  {
    return simd_backend::portable;
  }
  if ( words == 8u && simd_detail::backend_usable( simd_backend::avx512 ) )
  {
    return simd_backend::avx512;
  }
  if ( simd_detail::backend_usable( simd_backend::avx2 ) )
  {
    return simd_backend::avx2;
  }
  return simd_backend::portable;
}

void simd_and2_masked( std::uint64_t* dst, const std::uint64_t* a, std::uint64_t invert_a,
                       const std::uint64_t* b, std::uint64_t invert_b, std::size_t num_words )
{
  static const auto kernel = simd_detail::slot_kernels_for( active_simd_backend( 8u ), 8u ).and2;
  kernel( dst, a, invert_a, b, invert_b, num_words );
}

} // namespace qsyn
