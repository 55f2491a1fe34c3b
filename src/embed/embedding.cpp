#include "embedding.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "../common/bits.hpp"

namespace qsyn
{

namespace
{

/// Evaluates the output word for input x.
std::uint64_t output_word( const std::vector<truth_table>& outputs, std::uint64_t x )
{
  std::uint64_t y = 0;
  for ( std::size_t j = 0; j < outputs.size(); ++j )
  {
    if ( outputs[j].get_bit( x ) )
    {
      y |= std::uint64_t{ 1 } << j;
    }
  }
  return y;
}

} // namespace

std::uint64_t max_collisions_explicit( const std::vector<truth_table>& outputs )
{
  assert( !outputs.empty() );
  const auto n = outputs[0].num_vars();
  std::unordered_map<std::uint64_t, std::uint64_t> histogram;
  for ( std::uint64_t x = 0; x < ( std::uint64_t{ 1 } << n ); ++x )
  {
    ++histogram[output_word( outputs, x )];
  }
  std::uint64_t mu = 0;
  for ( const auto& [y, count] : histogram )
  {
    mu = std::max( mu, count );
  }
  return mu;
}

embedding embed_optimum( const std::vector<truth_table>& outputs )
{
  assert( !outputs.empty() );
  const auto n = outputs[0].num_vars();
  const auto m = static_cast<unsigned>( outputs.size() );
  const auto mu = max_collisions_explicit( outputs );
  const auto g = ceil_log2( mu );
  const auto r = std::max( n, m + g );
  if ( r > max_embedding_lines )
  {
    throw embedding_line_limit_error(
        "embed_optimum: " + std::to_string( m ) + " outputs and " + std::to_string( g ) +
        " garbage lines (max collisions " + std::to_string( mu ) + ") over " + std::to_string( n ) +
        " inputs need " + std::to_string( r ) + " lines, more than the " +
        std::to_string( max_embedding_lines ) + "-line limit of an explicit permutation" );
  }

  embedding result;
  result.num_inputs = n;
  result.num_outputs = m;
  result.num_lines = r;
  result.extra_lines = r - n;
  result.garbage_lines = r - m;
  result.max_collisions = mu;

  const std::uint64_t size = std::uint64_t{ 1 } << r;
  constexpr std::uint64_t unassigned = ~std::uint64_t{ 0 };
  result.permutation.assign( size, unassigned );

  // Valid inputs: (ancilla = 0, x); map to (f(x) << (r-m)) | garbage index
  // within the collision class of f(x).
  std::unordered_map<std::uint64_t, std::uint64_t> class_counter;
  std::vector<bool> output_used( size, false );
  for ( std::uint64_t x = 0; x < ( std::uint64_t{ 1 } << n ); ++x )
  {
    const auto y = output_word( outputs, x );
    const auto garbage = class_counter[y]++;
    assert( garbage < ( std::uint64_t{ 1 } << ( r - m ) ) );
    const auto image = ( y << ( r - m ) ) | garbage;
    result.permutation[x] = image;
    output_used[image] = true;
  }
  // Complete to a bijection: remaining inputs get the remaining outputs in
  // ascending order.
  std::uint64_t next_free = 0;
  for ( std::uint64_t v = 0; v < size; ++v )
  {
    if ( result.permutation[v] != unassigned )
    {
      continue;
    }
    while ( output_used[next_free] )
    {
      ++next_free;
    }
    result.permutation[v] = next_free;
    output_used[next_free] = true;
  }
  return result;
}

} // namespace qsyn
