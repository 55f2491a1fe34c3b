/// \file wide_sim_kernels.hpp
/// \brief Width-generic simulation kernels, shared by every backend TU.
///
/// The three hot loops of wide simulation — the reversible gate cascade,
/// the AIG slot-program walk, and the masked two-fanin AND — are written
/// once as templates over an `Ops` policy that supplies the lane-group
/// vector type and its word operations.  Each backend translation unit
/// (wide_sim.cpp for portable, wide_sim_avx2.cpp / wide_sim_avx512.cpp
/// compiled with their arch flags) instantiates the templates with its own
/// policy and exports a `kernel_table`; the dispatcher in wide_sim.cpp
/// picks a table at runtime.  Keeping the loop *structure* single-source is what makes
/// the backends bit-identical by construction — a backend can only change
/// how a group of words is ANDed/XORed, never which words are touched.
///
/// An `Ops` policy provides:
///   * `words` — group size in 64-bit words (compile-time constant),
///   * `vec` — the group register type,
///   * `load` / `store` (unaligned), `broadcast`, `ones`, `band`, `bxor`,
///   * `and_xor(acc, v, m)` — `acc & (v ^ m)`, the fused control/fanin
///     step (AVX-512 implements it as one ternlog instruction).

#pragma once

#include <cstddef>
#include <cstdint>

#include "circuit.hpp"

namespace qsyn::wide_detail
{

/// Backend entry points for one lane-group width.  `state` and `values`
/// hold one group (`W` consecutive words) per line / slot.
struct kernel_table
{
  /// Runs a circuit's whole gate cascade, read in place from its arrays
  /// (`reversible_circuit::targets`, `control_offsets`, `controls`), over
  /// one lane group per line: per gate, the control conjunction is a group
  /// AND over polarity-masked line groups, the target update a group XOR.
  void ( *gate )( const std::uint32_t* targets, const std::uint32_t* control_offsets,
                  std::size_t num_gates, const control* controls, std::uint64_t* state );
  /// Runs a live-slot program (`aig_slot_program::ands`, three words per
  /// AND) over one lane group per slot: the out slot gets
  /// `(v(a) ^ i_a) & (v(b) ^ i_b)`, both fanins loaded before the store.
  void ( *aig )( const std::uint32_t* program, std::size_t num_ands, std::uint64_t* values );
  /// dst[j] = (a[j] ^ invert_a) & (b[j] ^ invert_b), arbitrary word count.
  void ( *and2 )( std::uint64_t* dst, const std::uint64_t* a, std::uint64_t invert_a,
                  const std::uint64_t* b, std::uint64_t invert_b, std::size_t num_words );
};

/// Portable lane-group policy: `W` unrolled `uint64` lanes.  `W = 1` is
/// exactly the 64-bit scalar engine's word operations; `W = 4` / `W = 8`
/// give the compiler a fixed-trip-count inner loop to unroll.
template<unsigned W>
struct portable_ops
{
  static constexpr unsigned words = W;

  struct vec
  {
    std::uint64_t w[W];
  };

  static vec load( const std::uint64_t* p )
  {
    vec v;
    for ( unsigned k = 0; k < W; ++k )
    {
      v.w[k] = p[k];
    }
    return v;
  }
  static void store( std::uint64_t* p, vec v )
  {
    for ( unsigned k = 0; k < W; ++k )
    {
      p[k] = v.w[k];
    }
  }
  static vec broadcast( std::uint64_t x )
  {
    vec v;
    for ( unsigned k = 0; k < W; ++k )
    {
      v.w[k] = x;
    }
    return v;
  }
  static vec ones() { return broadcast( ~std::uint64_t{ 0 } ); }
  static vec band( vec a, vec b )
  {
    vec v;
    for ( unsigned k = 0; k < W; ++k )
    {
      v.w[k] = a.w[k] & b.w[k];
    }
    return v;
  }
  static vec bxor( vec a, vec b )
  {
    vec v;
    for ( unsigned k = 0; k < W; ++k )
    {
      v.w[k] = a.w[k] ^ b.w[k];
    }
    return v;
  }
  static vec and_xor( vec acc, vec v, vec m ) { return band( acc, bxor( v, m ) ); }
};

/// Doubles a policy's group width by pairing two inner registers — how an
/// AVX2-only machine runs w512 groups (two 256-bit halves per step).
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

template<typename Ops>
void gate_kernel( const std::uint32_t* targets, const std::uint32_t* control_offsets,
                  std::size_t num_gates, const control* controls, std::uint64_t* state )
{
  constexpr unsigned W = Ops::words;
  for ( std::size_t g = 0; g < num_gates; ++g )
  {
    auto acc = Ops::ones();
    const auto end = control_offsets[g + 1];
    for ( auto c = control_offsets[g]; c < end; ++c )
    {
      // A negative control's mask is all ones: it tests the line's complement.
      const auto invert = std::uint64_t{ 0 } - std::uint64_t{ !controls[c].positive };
      acc = Ops::and_xor( acc, Ops::load( state + std::size_t{ controls[c].line } * W ),
                          Ops::broadcast( invert ) );
    }
    std::uint64_t* t = state + std::size_t{ targets[g] } * W;
    Ops::store( t, Ops::bxor( Ops::load( t ), acc ) );
  }
}

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
constexpr kernel_table table_of()
{
  return { &gate_kernel<Ops>, &aig_kernel<Ops>, &and2_kernel<Ops> };
}

} // namespace qsyn::wide_detail
