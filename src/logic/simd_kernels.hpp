/// \file simd_kernels.hpp
/// \brief Lane-group word operations and the kernels written over them,
/// shared by every backend TU of the library.
///
/// The hot loops of bit-parallel simulation — the AIG slot-program walk
/// and the masked two-fanin AND here, the reversible gate cascade in
/// reversible/wide_sim_kernels.hpp — are written once as templates over an
/// `Ops` policy that supplies the lane-group vector type and its word
/// operations.  Each backend translation unit instantiates the templates
/// with its own policy: the portable TUs (simd.cpp, wide_sim.cpp) with
/// `portable_ops`, the `*_avx2.cpp` / `*_avx512.cpp` TUs, compiled with
/// their arch flags, with `avx2_ops8` / `avx512_ops8`.  The dispatcher
/// (simd.cpp) picks a table at runtime.  Keeping the loop *structure*
/// single-source is what makes the backends bit-identical by construction
/// — a backend can only change how a group of words is ANDed/XORed, never
/// which words are touched.
///
/// An `Ops` policy covers one lane group (`lane_group_words` words) and
/// provides:
///   * `words` — the group size in 64-bit words,
///   * `vec` — the group register type,
///   * `load` / `store` (unaligned), `broadcast`, `ones`, `band`, `bxor`,
///   * `and_xor(acc, v, m)` — `acc & (v ^ m)`, the fused control/fanin
///     step (AVX-512 implements it as one ternlog instruction).
///
/// The vector policies exist only in a TU compiled with their arch flag,
/// and they sit in an anonymous namespace: every such TU has its own
/// internal copy, so no out-of-line function built with an arch flag can
/// be shared with (and run by) the rest of the library.

#pragma once

#include <cstddef>
#include <cstdint>

#if defined( __AVX2__ ) || defined( __AVX512F__ )
#include <immintrin.h>
#endif

#include "simd.hpp"

namespace qsyn::simd_detail
{

/// Backend entry points of the slot-program walk and the masked AND.
/// `values` holds one lane group (`lane_group_words` consecutive words)
/// per slot.
struct slot_kernels
{
  /// Runs a live-slot program (`aig_slot_program::ands`, three words per
  /// AND) over one lane group per slot: the out slot gets
  /// `(v(a) ^ i_a) & (v(b) ^ i_b)`, both fanins loaded before the store.
  void ( *aig )( const std::uint32_t* program, std::size_t num_ands, std::uint64_t* values );
  /// dst[j] = (a[j] ^ invert_a) & (b[j] ^ invert_b), arbitrary word count.
  void ( *and2 )( std::uint64_t* dst, const std::uint64_t* a, std::uint64_t invert_a,
                  const std::uint64_t* b, std::uint64_t invert_b, std::size_t num_words );
};

/// The slot kernels of `backend` (as `active_simd_backend` returns it).
slot_kernels slot_kernels_for( simd_backend backend );

/// Portable lane-group policy: unrolled `uint64` lanes, a fixed-trip-count
/// inner loop for the compiler to unroll.
struct portable_ops
{
  static constexpr unsigned words = lane_group_words;

  struct vec
  {
    std::uint64_t w[words];
  };

  static vec load( const std::uint64_t* p )
  {
    vec v;
    for ( unsigned k = 0; k < words; ++k )
    {
      v.w[k] = p[k];
    }
    return v;
  }
  static void store( std::uint64_t* p, vec v )
  {
    for ( unsigned k = 0; k < words; ++k )
    {
      p[k] = v.w[k];
    }
  }
  static vec broadcast( std::uint64_t x )
  {
    vec v;
    for ( unsigned k = 0; k < words; ++k )
    {
      v.w[k] = x;
    }
    return v;
  }
  static vec ones() { return broadcast( ~std::uint64_t{ 0 } ); }
  static vec band( vec a, vec b )
  {
    vec v;
    for ( unsigned k = 0; k < words; ++k )
    {
      v.w[k] = a.w[k] & b.w[k];
    }
    return v;
  }
  static vec bxor( vec a, vec b )
  {
    vec v;
    for ( unsigned k = 0; k < words; ++k )
    {
      v.w[k] = a.w[k] ^ b.w[k];
    }
    return v;
  }
  static vec and_xor( vec acc, vec v, vec m ) { return band( acc, bxor( v, m ) ); }
};

/// Doubles a policy's group width by pairing two inner registers — how
/// AVX2 runs a lane group (two 256-bit halves per step).
template<typename Inner>
struct paired_ops
{
  static constexpr unsigned words = 2u * Inner::words;

  struct vec
  {
    typename Inner::vec lo, hi;
  };

  static vec load( const std::uint64_t* p )
  {
    return { Inner::load( p ), Inner::load( p + Inner::words ) };
  }
  static void store( std::uint64_t* p, vec v )
  {
    Inner::store( p, v.lo );
    Inner::store( p + Inner::words, v.hi );
  }
  static vec broadcast( std::uint64_t x )
  {
    const auto b = Inner::broadcast( x );
    return { b, b };
  }
  static vec ones()
  {
    const auto b = Inner::ones();
    return { b, b };
  }
  static vec band( vec a, vec b )
  {
    return { Inner::band( a.lo, b.lo ), Inner::band( a.hi, b.hi ) };
  }
  static vec bxor( vec a, vec b )
  {
    return { Inner::bxor( a.lo, b.lo ), Inner::bxor( a.hi, b.hi ) };
  }
  static vec and_xor( vec acc, vec v, vec m )
  {
    return { Inner::and_xor( acc.lo, v.lo, m.lo ), Inner::and_xor( acc.hi, v.hi, m.hi ) };
  }
};

namespace
{

#if defined( __AVX2__ )
/// One 256-bit word: half a lane group, paired into `avx2_ops8`.
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
#endif

#if defined( __AVX512F__ )
/// One 512-bit word per lane group.
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
#endif

} // namespace

template<typename Ops>
void aig_kernel( const std::uint32_t* program, std::size_t num_ands, std::uint64_t* values )
{
  constexpr unsigned W = Ops::words;
  for ( std::size_t n = 0; n < num_ands; ++n )
  {
    const auto* op = program + 3u * n;
    const auto a = op[1];
    const auto b = op[2];
    const auto v0 = Ops::bxor( Ops::load( values + std::size_t{ a >> 1 } * W ),
                               Ops::broadcast( std::uint64_t{ 0 } - ( a & 1u ) ) );
    const auto v = Ops::and_xor( v0, Ops::load( values + std::size_t{ b >> 1 } * W ),
                                 Ops::broadcast( std::uint64_t{ 0 } - ( b & 1u ) ) );
    Ops::store( values + std::size_t{ op[0] } * W, v );
  }
}

template<typename Ops>
void and2_kernel( std::uint64_t* dst, const std::uint64_t* a, std::uint64_t invert_a,
                  const std::uint64_t* b, std::uint64_t invert_b, std::size_t num_words )
{
  constexpr unsigned W = Ops::words;
  const auto ia = Ops::broadcast( invert_a );
  const auto ib = Ops::broadcast( invert_b );
  std::size_t j = 0;
  for ( ; j + W <= num_words; j += W )
  {
    Ops::store( dst + j, Ops::and_xor( Ops::bxor( Ops::load( a + j ), ia ), Ops::load( b + j ), ib ) );
  }
  for ( ; j < num_words; ++j )
  {
    dst[j] = ( a[j] ^ invert_a ) & ( b[j] ^ invert_b );
  }
}

template<typename Ops>
constexpr slot_kernels slot_kernels_of()
{
  static_assert( Ops::words == lane_group_words, "a policy covers one whole lane group" );
  return { &aig_kernel<Ops>, &and2_kernel<Ops> };
}

} // namespace qsyn::simd_detail
