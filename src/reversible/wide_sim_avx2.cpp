/// \file wide_sim_avx2.cpp
/// \brief AVX2 lane-group kernels: one 256-bit word per w256 group, a pair
/// per w512 group.
///
/// Every build compiles this TU, and only this TU, with `-mavx2`; the
/// dispatcher routes here only when cpuid reports `avx2`, so the binary
/// still runs on an x86-64 without it.  On an AVX-512 machine these
/// kernels serve the w256 groups, or every wide group when the `QSYN_SIMD`
/// environment variable caps the choice at `avx2`.

#include <immintrin.h>

#include "wide_sim_kernels.hpp"

namespace qsyn::wide_detail
{

namespace
{

struct avx2_ops4
{
  static constexpr unsigned words = 4;
  using vec = __m256i;

  static vec load( const std::uint64_t* p )
  {
    return _mm256_loadu_si256( reinterpret_cast<const __m256i*>( p ) );
  }
  static void store( std::uint64_t* p, vec v )
  {
    _mm256_storeu_si256( reinterpret_cast<__m256i*>( p ), v );
  }
  static vec broadcast( std::uint64_t x )
  {
    return _mm256_set1_epi64x( static_cast<long long>( x ) );
  }
  static vec ones() { return _mm256_set1_epi64x( -1 ); }
  static vec band( vec a, vec b ) { return _mm256_and_si256( a, b ); }
  static vec bxor( vec a, vec b ) { return _mm256_xor_si256( a, b ); }
  static vec and_xor( vec acc, vec v, vec m ) { return band( acc, bxor( v, m ) ); }
};

using avx2_ops8 = paired_ops<avx2_ops4>;

} // namespace

kernel_table avx2_table( unsigned words )
{
  return words == 8u ? table_of<avx2_ops8>() : table_of<avx2_ops4>();
}

} // namespace qsyn::wide_detail
