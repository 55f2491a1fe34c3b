#include "isop.hpp"

#include <cassert>

namespace qsyn
{

namespace
{

/// Adds literal `var` to the cubes [first, last) of `cubes`.
void add_literal( std::vector<cube>& cubes, std::size_t first, std::size_t last, unsigned var,
                  bool positive )
{
  for ( auto i = first; i < last; ++i )
  {
    cubes[i].add_literal( var, positive );
  }
}

/// Minato-Morreale on one six-variable word: appends an ISOP of the
/// interval [lower, upper] to `cubes` and returns its cover.  Neither bound
/// depends on variables num_vars..5.  The cubes needing !var come first,
/// then those needing var, then those free of var.
std::uint64_t isop_word( std::uint64_t lower, std::uint64_t upper, unsigned num_vars,
                         std::vector<cube>& cubes )
{
  if ( lower == 0u )
  {
    return 0u;
  }
  if ( upper == ~std::uint64_t{ 0 } )
  {
    cubes.emplace_back();
    return upper;
  }
  // The highest variable in the support of either bound (one exists: the
  // bounds are not both constant).  A bound depends on var iff some bit
  // with x_var = 0 differs from its x_var = 1 partner 2^var above it.
  unsigned var = num_vars;
  do
  {
    assert( var > 0u );
    --var;
  } while ( ( ( ( lower ^ ( lower >> ( 1u << var ) ) ) | ( upper ^ ( upper >> ( 1u << var ) ) ) ) &
              ~projections[var] ) == 0u );

  const auto l0 = cofactor_word( lower, var, false );
  const auto l1 = cofactor_word( lower, var, true );
  const auto u0 = cofactor_word( upper, var, false );
  const auto u1 = cofactor_word( upper, var, true );

  // Minterms needed where x=0 but not allowed where x=1 need !var, and
  // vice versa; the rest can be covered without the variable.
  const auto first0 = cubes.size();
  const auto cover0 = isop_word( l0 & ~u1, u0, var, cubes );
  const auto first1 = cubes.size();
  const auto cover1 = isop_word( l1 & ~u0, u1, var, cubes );
  const auto first_rest = cubes.size();
  const auto cover_rest = isop_word( ( l0 & ~cover0 ) | ( l1 & ~cover1 ), u0 & u1, var, cubes );
  add_literal( cubes, first0, first1, var, false );
  add_literal( cubes, first1, first_rest, var, true );
  return ( cover0 & ~projections[var] ) | ( cover1 & projections[var] ) | cover_rest;
}

/// The same recursion on eight-variable tables: variables 7 and 6 select
/// words; below them the bounds are one-word tables handed to isop_word.
small_truth_table isop_rec( const small_truth_table& lower, const small_truth_table& upper,
                            unsigned num_vars, std::vector<cube>& cubes )
{
  unsigned var = num_vars;
  while ( var > 6u && !lower.depends_on( var - 1u ) && !upper.depends_on( var - 1u ) )
  {
    --var;
  }
  if ( var <= 6u )
  {
    const auto cover = isop_word( lower.words[0], upper.words[0], var, cubes );
    return { cover, cover, cover, cover };
  }
  --var;

  const auto l0 = lower.cofactor( var, false );
  const auto l1 = lower.cofactor( var, true );
  const auto u0 = upper.cofactor( var, false );
  const auto u1 = upper.cofactor( var, true );

  const auto first0 = cubes.size();
  const auto cover0 = isop_rec( l0 & ~u1, u0, var, cubes );
  const auto first1 = cubes.size();
  const auto cover1 = isop_rec( l1 & ~u0, u1, var, cubes );
  const auto first_rest = cubes.size();
  const auto cover_rest = isop_rec( ( l0 & ~cover0 ) | ( l1 & ~cover1 ), u0 & u1, var, cubes );
  add_literal( cubes, first0, first1, var, false );
  add_literal( cubes, first1, first_rest, var, true );
  const auto proj = small_truth_table::projection( var );
  return ( ~proj & cover0 ) | ( proj & cover1 ) | cover_rest;
}

} // namespace

std::vector<cube> isop( const truth_table& on, const truth_table& dc )
{
  assert( on.num_vars() == dc.num_vars() );
  std::vector<cube> cubes;
  isop_rec( small_truth_table::from( on ), small_truth_table::from( on | dc ),
            small_truth_table::max_vars, cubes );
  return cubes;
}

void isop( const small_truth_table& f, std::vector<cube>& cubes )
{
  cubes.clear();
  isop_rec( f, f, small_truth_table::max_vars, cubes );
}

truth_table sop_cover( const std::vector<cube>& cubes, unsigned num_vars )
{
  truth_table tt( num_vars );
  for ( const auto& c : cubes )
  {
    tt |= c.to_truth_table( num_vars );
  }
  return tt;
}

} // namespace qsyn
