/// \file bits.hpp
/// \brief Low-level bit manipulation helpers shared across the library.
///
/// All word-level helpers operate on 64-bit blocks, the unit used by
/// qsyn::truth_table and the pattern simulators.

#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>

namespace qsyn
{

/// Number of 64-bit blocks needed to store 2^num_vars bits.
inline constexpr std::size_t num_blocks_for( unsigned num_vars )
{
  return num_vars <= 6u ? 1u : ( std::size_t{ 1 } << ( num_vars - 6u ) );
}

/// Mask selecting the valid bits of the (single) block of a function with
/// fewer than 7 variables.
inline constexpr std::uint64_t block_mask( unsigned num_vars )
{
  return num_vars >= 6u ? ~std::uint64_t{ 0 }
                        : ( ( std::uint64_t{ 1 } << ( std::size_t{ 1 } << num_vars ) ) - 1u );
}

/// Precomputed truth tables of the first six projection variables within one
/// 64-bit block (x0 toggles every bit, x5 every 32 bits).
inline constexpr std::uint64_t projections[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull };

/// Cofactor of a six-variable table word with respect to `var` < 6: the
/// half where x_var == `polarity`, copied over the other half.
inline constexpr std::uint64_t cofactor_word( std::uint64_t w, unsigned var, bool polarity )
{
  const unsigned shift = 1u << var;
  if ( polarity )
  {
    const auto kept = w & projections[var];
    return kept | ( kept >> shift );
  }
  const auto kept = w & ~projections[var];
  return kept | ( kept << shift );
}

/// Population count over a 64-bit word.
inline int popcount64( std::uint64_t w )
{
  return std::popcount( w );
}

/// Index of the least significant set bit; undefined for w == 0.
inline int lsb_index( std::uint64_t w )
{
  return std::countr_zero( w );
}

/// Ceil(log2(v)) for v >= 1.
inline unsigned ceil_log2( std::uint64_t v )
{
  if ( v <= 1u )
  {
    return 0u;
  }
  return static_cast<unsigned>( 64 - std::countl_zero( v - 1u ) );
}

/// True if v is a power of two (v > 0).
inline bool is_power_of_two( std::uint64_t v )
{
  return v != 0u && ( v & ( v - 1u ) ) == 0u;
}

/// Combine two hash values (boost::hash_combine flavor).
inline std::size_t hash_combine( std::size_t seed, std::size_t v )
{
  return seed ^ ( v + 0x9e3779b97f4a7c15ull + ( seed << 6 ) + ( seed >> 2 ) );
}

} // namespace qsyn
