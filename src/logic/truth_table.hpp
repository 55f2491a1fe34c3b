/// \file truth_table.hpp
/// \brief Dynamic truth tables over up to ~26 variables.
///
/// Truth tables are the explicit function representation used by the
/// functional reversible synthesis flow (Sec. IV-A of the paper) and by the
/// small-function resynthesis engines (ISOP refactoring, PSDKRO ESOP
/// extraction, xmglut-style LUT resynthesis).  Bit i of the table stores
/// f(x) for the input assignment x whose binary encoding is i, with
/// variable 0 being the least significant input.

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "../common/bits.hpp"

namespace qsyn
{

/// A Boolean function of `num_vars()` variables stored as an explicit bit
/// vector of length 2^num_vars.
class truth_table
{
public:
  /// Constructs the constant-0 function over `num_vars` variables.
  explicit truth_table( unsigned num_vars = 0u );

  unsigned num_vars() const { return num_vars_; }
  std::uint64_t num_bits() const { return std::uint64_t{ 1 } << num_vars_; }

  /// Raw 64-bit blocks (LSB-first).  Unused high bits of the last block are
  /// kept zero by all operations.
  const std::vector<std::uint64_t>& blocks() const { return blocks_; }
  std::vector<std::uint64_t>& blocks() { return blocks_; }

  bool get_bit( std::uint64_t index ) const;
  void set_bit( std::uint64_t index, bool value );

  /// Number of ones in the table (the function's on-set size).
  std::uint64_t count_ones() const;

  bool is_const0() const;
  bool is_const1() const;

  /// --- constructions -----------------------------------------------------

  /// The i-th projection variable x_i as a function of `num_vars` variables.
  static truth_table projection( unsigned num_vars, unsigned var );
  /// Constant function.
  static truth_table constant( unsigned num_vars, bool value );
  /// Parses a binary string "1011..." with bit 0 rightmost; length must be a
  /// power of two.
  static truth_table from_binary_string( const std::string& s );
  /// Builds a table from a per-index predicate.  The predicate is invoked in
  /// ascending index order; each 64-bit block is assembled in a register and
  /// stored once.
  template<typename Fn>
  static truth_table from_function( unsigned num_vars, Fn&& fn )
  {
    truth_table tt( num_vars );
    const auto bits = tt.num_bits();
    for ( std::size_t blk = 0; blk < tt.blocks_.size(); ++blk )
    {
      const std::uint64_t base = std::uint64_t{ blk } << 6;
      const unsigned count = static_cast<unsigned>( std::min<std::uint64_t>( 64u, bits - base ) );
      std::uint64_t word = 0;
      for ( unsigned o = 0; o < count; ++o )
      {
        if ( fn( base + o ) )
        {
          word |= std::uint64_t{ 1 } << o;
        }
      }
      tt.blocks_[blk] = word;
    }
    return tt;
  }

  /// --- operations --------------------------------------------------------

  truth_table operator~() const;
  truth_table operator&( const truth_table& other ) const;
  truth_table operator|( const truth_table& other ) const;
  truth_table operator^( const truth_table& other ) const;
  bool operator==( const truth_table& other ) const;
  bool operator!=( const truth_table& other ) const { return !( *this == other ); }

  truth_table& operator&=( const truth_table& other );
  truth_table& operator|=( const truth_table& other );
  truth_table& operator^=( const truth_table& other );

  /// Positive/negative cofactor with respect to variable `var`; the result
  /// still has num_vars variables (the cofactored variable becomes don't
  /// care and is duplicated).
  truth_table cofactor( unsigned var, bool polarity ) const;

  /// True if the function depends on variable `var`.
  bool depends_on( unsigned var ) const;

  /// Support of the function as a list of variable indices.
  std::vector<unsigned> support() const;

  /// Shrinks the table to exactly its support variables (order preserved);
  /// `var_map`, if non-null, receives for each new variable the original
  /// variable index.
  truth_table shrink_to_support( std::vector<unsigned>* var_map = nullptr ) const;

  /// Evaluates the function on the given input assignment (bit i of `input`
  /// is variable i).
  bool evaluate( std::uint64_t input ) const { return get_bit( input ); }

  /// Hex string, most significant block first (kitty-style).
  std::string to_hex() const;
  /// Binary string, index 2^n-1 leftmost.
  std::string to_binary() const;

private:
  void mask_off_unused();

  unsigned num_vars_;
  std::vector<std::uint64_t> blocks_;
};

/// A function of at most `max_vars` = 8 variables in four fixed 64-bit words
/// (bit i = f(i)), for the small-cone kernels (ISOP, refactoring) that must
/// not allocate.  A function of fewer variables is stored replicated: as the
/// same function of eight variables that ignores the unused ones, so every
/// operation is plain word logic and constants are all-zero / all-one.
struct small_truth_table
{
  static constexpr unsigned max_vars = 8;

  std::array<std::uint64_t, 4> words{};

  /// The projection x_var (var < max_vars).
  static small_truth_table projection( unsigned var );
  /// The replicated form of `tt`; throws std::invalid_argument when `tt`
  /// has more than max_vars variables.
  static small_truth_table from( const truth_table& tt );

  /// Cofactor with respect to `var`; like truth_table::cofactor, the result
  /// keeps all variables (it no longer depends on `var`).
  small_truth_table cofactor( unsigned var, bool polarity ) const;
  bool depends_on( unsigned var ) const { return cofactor( var, false ) != cofactor( var, true ); }

  small_truth_table operator~() const
  {
    return { ~words[0], ~words[1], ~words[2], ~words[3] };
  }
  small_truth_table operator&( const small_truth_table& o ) const
  {
    return { words[0] & o.words[0], words[1] & o.words[1], words[2] & o.words[2],
             words[3] & o.words[3] };
  }
  small_truth_table operator|( const small_truth_table& o ) const
  {
    return { words[0] | o.words[0], words[1] | o.words[1], words[2] | o.words[2],
             words[3] | o.words[3] };
  }
  bool operator==( const small_truth_table& ) const = default;
};

} // namespace qsyn
