/// \file cube.hpp
/// \brief Product-term cubes and multi-output ESOP expressions.
///
/// A cube is a conjunction of literals over up to 64 variables.  ESOP
/// (exclusive sum of products) expressions are the 2-level representation
/// used by the ESOP-based reversible synthesis flow (Sec. IV-B): each cube
/// becomes one mixed-polarity multiple-controlled Toffoli gate.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "truth_table.hpp"

namespace qsyn
{

/// A product term over at most 64 Boolean variables.
///
/// `mask` has a 1 for every variable appearing in the cube; `polarity` has a
/// 1 for every positive literal (bits outside `mask` must be 0).  The empty
/// cube (mask == 0) is the constant-1 product term.
struct cube
{
  std::uint64_t mask = 0;
  std::uint64_t polarity = 0;

  cube() = default;
  cube( std::uint64_t mask_, std::uint64_t polarity_ ) : mask( mask_ ), polarity( polarity_ & mask_ ) {}

  /// Number of literals.
  int num_literals() const { return popcount64( mask ); }

  /// True if the cube contains variable `var`.
  bool has_var( unsigned var ) const { return ( mask >> var ) & 1u; }
  /// Polarity of variable `var` (true = positive literal); only meaningful
  /// if has_var(var).
  bool var_polarity( unsigned var ) const { return ( polarity >> var ) & 1u; }

  /// Adds literal `var` with the given polarity.
  void add_literal( unsigned var, bool positive )
  {
    mask |= std::uint64_t{ 1 } << var;
    if ( positive )
    {
      polarity |= std::uint64_t{ 1 } << var;
    }
    else
    {
      polarity &= ~( std::uint64_t{ 1 } << var );
    }
  }

  /// Removes variable `var` from the cube.
  void remove_literal( unsigned var )
  {
    mask &= ~( std::uint64_t{ 1 } << var );
    polarity &= ~( std::uint64_t{ 1 } << var );
  }

  /// Evaluates the cube on an input assignment.
  bool evaluate( std::uint64_t input ) const
  {
    return ( ( input ^ polarity ) & mask ) == 0u;
  }

  /// Bit-mask of the differing literal positions between two cubes:
  /// variables that appear in exactly one cube, or in both with opposite
  /// polarity.  Shared by distance() and the exorcism pair index.
  std::uint64_t difference_mask( const cube& other ) const
  {
    return ( mask ^ other.mask ) |
           ( ( polarity ^ other.polarity ) & ( mask & other.mask ) );
  }

  /// Number of differing literal positions between two cubes.
  int distance( const cube& other ) const
  {
    return popcount64( difference_mask( other ) );
  }

  bool operator==( const cube& other ) const
  {
    return mask == other.mask && polarity == other.polarity;
  }
  bool operator!=( const cube& other ) const { return !( *this == other ); }
  bool operator<( const cube& other ) const
  {
    return mask != other.mask ? mask < other.mask : polarity < other.polarity;
  }

  /// Truth table of the cube as a function of `num_vars` variables.
  truth_table to_truth_table( unsigned num_vars ) const;

  /// Readable string, e.g. "x0 !x2 x5" ("1" for the empty cube).
  std::string to_string( unsigned num_vars = 64u ) const;
};

/// One term of a multi-output ESOP: a cube and the set of outputs it feeds.
struct esop_term
{
  cube product;
  std::uint64_t output_mask = 0; ///< bit j set => cube is XOR-ed into output j

  bool operator==( const esop_term& other ) const
  {
    return product == other.product && output_mask == other.output_mask;
  }
};

/// A multi-output exclusive sum of products over `num_inputs` variables and
/// `num_outputs` functions (both at most 64).
struct esop
{
  /// Most outputs an ESOP holds: one bit of a term's `output_mask` each.
  static constexpr unsigned max_outputs = 64;

  unsigned num_inputs = 0;
  unsigned num_outputs = 0;
  std::vector<esop_term> terms;

  /// Total number of cubes (terms).
  std::size_t num_terms() const { return terms.size(); }

  /// Sum over all terms of (cube literal count) * (number of outputs fed).
  std::size_t num_literals() const;

  /// Evaluates output `output` on an input assignment.
  bool evaluate( std::uint64_t input, unsigned output ) const;

  /// Truth table of output `output`.
  truth_table output_truth_table( unsigned output ) const;

  /// Merges terms with identical cubes (XOR-ing their output masks) and
  /// drops terms with empty output masks.  Returns the number of removed
  /// terms.
  std::size_t merge_identical_cubes();
};

} // namespace qsyn
