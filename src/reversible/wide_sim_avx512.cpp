/// \file wide_sim_avx512.cpp
/// \brief AVX-512 lane-group kernels: one 512-bit word per w512 group.
///
/// Every build compiles this TU, and only this TU, with `-mavx512f`; the
/// dispatcher checks cpuid (`avx512f`) before routing here.  Like the AVX2
/// TU it includes only the kernel header, so no other inline function of
/// the library gets an out-of-line copy built with the arch flag.  The
/// fused control/fanin step `acc & (v ^ m)` is a single `vpternlogq`
/// (truth table 0x60), so a gate pass costs about one instruction per
/// control over 512 assignment lanes.  w256 groups on an
/// AVX-512 machine are served by the AVX2 table — a 256-bit group gains
/// nothing from 512-bit registers.

#include <immintrin.h>

#include "wide_sim_kernels.hpp"

namespace qsyn::wide_detail
{

namespace
{

struct avx512_ops8
{
  static constexpr unsigned words = 8;
  using vec = __m512i;

  static vec load( const std::uint64_t* p ) { return _mm512_loadu_si512( p ); }
  static void store( std::uint64_t* p, vec v ) { _mm512_storeu_si512( p, v ); }
  static vec broadcast( std::uint64_t x )
  {
    return _mm512_set1_epi64( static_cast<long long>( x ) );
  }
  static vec ones() { return _mm512_set1_epi64( -1 ); }
  static vec band( vec a, vec b ) { return _mm512_and_epi64( a, b ); }
  static vec bxor( vec a, vec b ) { return _mm512_xor_epi64( a, b ); }
  static vec and_xor( vec acc, vec v, vec m )
  {
    // f(A, B, C) = A & (B ^ C): minterms A!BC (0b101) and AB!C (0b110).
    return _mm512_ternarylogic_epi64( acc, v, m, 0x60 );
  }
};

} // namespace

kernel_table avx512_table( unsigned words )
{
  static_cast<void>( words ); // only w512 groups route here
  return table_of<avx512_ops8>();
}

} // namespace qsyn::wide_detail
