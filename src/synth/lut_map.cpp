#include "lut_map.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace qsyn
{

std::vector<bool> lut_network::evaluate( const std::vector<bool>& inputs ) const
{
  assert( inputs.size() == num_pis );
  std::vector<bool> values( num_pis + luts.size() );
  for ( unsigned i = 0; i < num_pis; ++i )
  {
    values[i] = inputs[i];
  }
  for ( std::size_t l = 0; l < luts.size(); ++l )
  {
    std::uint64_t index = 0;
    for ( std::size_t f = 0; f < luts[l].fanins.size(); ++f )
    {
      if ( values[luts[l].fanins[f]] )
      {
        index |= std::uint64_t{ 1 } << f;
      }
    }
    values[num_pis + l] = luts[l].function.get_bit( index );
  }
  std::vector<bool> result;
  result.reserve( outputs.size() );
  for ( const auto& out : outputs )
  {
    result.push_back( values[out.signal] ^ out.complemented );
  }
  return result;
}

namespace
{

constexpr unsigned max_k = lut_map_params::max_cut_size;

/// A cut: sorted leaf nodes plus the cut function over those leaves.  The
/// function is a six-variable word stored replicated (it ignores variables
/// size..5), so complement and AND are single word operations.
struct cut
{
  std::array<std::uint32_t, max_k> leaves{};
  std::uint32_t size = 0;
  std::uint64_t function = 0;
  std::uint32_t depth = 0;
  double area_flow = 0.0;
};

/// Position of each leaf of a fanin cut within the merged cut.
using leaf_positions = std::array<std::uint8_t, max_k>;

/// Sorted union of the leaves of `a` and `b` into `out`; false when it has
/// more than `k` leaves.
bool merge_leaves( const cut& a, const cut& b, unsigned k, cut& out, leaf_positions& pos_a,
                   leaf_positions& pos_b )
{
  unsigned i = 0;
  unsigned j = 0;
  unsigned n = 0;
  while ( i < a.size || j < b.size )
  {
    if ( n == k )
    {
      return false;
    }
    const bool take_a = j == b.size || ( i < a.size && a.leaves[i] <= b.leaves[j] );
    const bool take_b = i == a.size || ( j < b.size && b.leaves[j] <= a.leaves[i] );
    out.leaves[n] = take_a ? a.leaves[i] : b.leaves[j];
    if ( take_a )
    {
      pos_a[i++] = static_cast<std::uint8_t>( n );
    }
    if ( take_b )
    {
      pos_b[j++] = static_cast<std::uint8_t>( n );
    }
    ++n;
  }
  out.size = n;
  return true;
}

/// Re-expresses `function` (over `size` leaves) on a superset of its leaves
/// where leaf i sits at position pos[i] (strictly increasing).  Moving the
/// leaves from the highest down, each target position is one the function
/// ignores, so every move is a swap of two variables.
std::uint64_t expand_tt( std::uint64_t function, const leaf_positions& pos, std::uint32_t size )
{
  for ( auto i = size; i-- > 0u; )
  {
    const unsigned to = pos[i];
    if ( to == i )
    {
      continue;
    }
    const auto up = projections[i] & ~projections[to];   // x_i = 1, x_to = 0
    const auto down = ~projections[i] & projections[to]; // x_i = 0, x_to = 1
    const unsigned shift = ( 1u << to ) - ( 1u << i );
    function = ( function & ~( up | down ) ) | ( ( function & up ) << shift ) |
               ( ( function & down ) >> shift );
  }
  return function;
}

/// The cut {n} with the function x0.
cut trivial_cut( std::uint32_t n )
{
  cut c;
  c.leaves[0] = n;
  c.size = 1;
  c.function = projections[0];
  return c;
}

} // namespace

lut_network lut_map( const aig_network& aig, const lut_map_params& params )
{
  const auto k = params.cut_size;
  if ( k < 2u || k > lut_map_params::max_cut_size )
  {
    // Every merged cut of an AND node has >= 2 leaves; k < 2 would leave
    // nodes without any candidate cut (and crash the cover extraction).
    // A cut function is one 64-bit word, so k <= 6.
    throw std::invalid_argument( "lut_map: cut_size must be in [2, " +
                                 std::to_string( lut_map_params::max_cut_size ) + "]" );
  }
  const auto fanouts = aig.fanout_counts();

  // Per node: list of candidate cuts (first entry is the best).  Cut lists
  // are freed once every fanout has consumed them (large designs would
  // otherwise hold gigabytes of cuts); the best cut survives in
  // `best_cuts` for the cover-extraction phase.
  std::vector<std::vector<cut>> cuts( aig.num_nodes() );
  std::vector<cut> best_cuts( aig.num_nodes() );
  std::vector<std::uint32_t> pending_fanouts( fanouts );
  // Mapped depth / area flow per node (PIs: 0), used to cost candidate cuts
  // from their *leaves* rather than from the structural merge path.
  std::vector<std::uint32_t> node_depth( aig.num_nodes(), 0u );
  std::vector<double> node_area_flow( aig.num_nodes(), 0.0 );

  for ( std::uint32_t n = 1; n <= aig.num_pis(); ++n )
  {
    cuts[n].push_back( trivial_cut( n ) );
  }
  // A constant fanin contributes one empty cut with the constant-0 function.
  const std::vector<cut> constant_cuts( 1u );

  std::vector<cut> candidates;
  leaf_positions pos0{};
  leaf_positions pos1{};
  for ( std::uint32_t n = aig.num_pis() + 1u; n < aig.num_nodes(); ++n )
  {
    const auto f0 = aig.fanin0( n );
    const auto f1 = aig.fanin1( n );
    const auto n0 = lit_node( f0 );
    const auto n1 = lit_node( f1 );
    const auto compl0 = lit_complemented( f0 ) ? ~std::uint64_t{ 0 } : 0u;
    const auto compl1 = lit_complemented( f1 ) ? ~std::uint64_t{ 0 } : 0u;
    candidates.clear();
    for ( const auto& c0 : n0 == 0u ? constant_cuts : cuts[n0] )
    {
      for ( const auto& c1 : n1 == 0u ? constant_cuts : cuts[n1] )
      {
        cut c;
        if ( !merge_leaves( c0, c1, k, c, pos0, pos1 ) )
        {
          continue;
        }
        c.function = ( expand_tt( c0.function, pos0, c0.size ) ^ compl0 ) &
                     ( expand_tt( c1.function, pos1, c1.size ) ^ compl1 );
        c.area_flow = 1.0;
        for ( std::uint32_t i = 0; i < c.size; ++i )
        {
          const auto leaf = c.leaves[i];
          c.depth = std::max( c.depth, node_depth[leaf] + 1u );
          c.area_flow += node_area_flow[leaf] / std::max( 1u, fanouts[leaf] );
        }
        candidates.push_back( c );
      }
    }
    std::sort( candidates.begin(), candidates.end(), []( const cut& a, const cut& b ) {
      if ( a.depth != b.depth )
      {
        return a.depth < b.depth;
      }
      if ( a.area_flow != b.area_flow )
      {
        return a.area_flow < b.area_flow;
      }
      return a.size < b.size;
    } );
    if ( candidates.size() > lut_map_params::cuts_per_node )
    {
      candidates.resize( lut_map_params::cuts_per_node );
    }
    assert( !candidates.empty() );
    const auto& best = candidates.front();
    best_cuts[n] = best;
    node_depth[n] = best.depth;
    node_area_flow[n] = best.area_flow;
    // The trivial cut (the node itself, at the node's mapped depth and area
    // flow) follows the real candidates; it participates in fanout merging
    // only.
    auto trivial = trivial_cut( n );
    trivial.depth = best.depth;
    trivial.area_flow = best.area_flow;
    candidates.push_back( trivial );
    cuts[n].assign( candidates.begin(), candidates.end() );
    // Release fanin cut lists that are no longer needed.
    for ( const auto m : { n0, n1 } )
    {
      if ( m > aig.num_pis() && pending_fanouts[m] > 0u && --pending_fanouts[m] == 0u )
      {
        cuts[m].clear();
        cuts[m].shrink_to_fit();
      }
    }
  }

  // Cover extraction from the POs using each required node's best cut: an
  // iterative post-order walk (deep AIGs would overflow a recursive one)
  // that emits each LUT after the LUTs of its leaves, in leaf order.
  lut_network net;
  net.num_pis = aig.num_pis();
  constexpr auto unmapped = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> node_to_signal( aig.num_nodes(), unmapped ); // AIG node -> LUT signal
  for ( std::uint32_t n = 1; n <= aig.num_pis(); ++n )
  {
    node_to_signal[n] = n - 1u;
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack; // node, next leaf index
  const auto build = [&]( std::uint32_t root ) {
    if ( node_to_signal[root] == unmapped )
    {
      stack.emplace_back( root, 0u );
    }
    while ( !stack.empty() )
    {
      const auto [n, next] = stack.back();
      const auto& best = best_cuts[n];
      if ( next < best.size )
      {
        ++stack.back().second;
        if ( node_to_signal[best.leaves[next]] == unmapped )
        {
          stack.emplace_back( best.leaves[next], 0u );
        }
        continue;
      }
      stack.pop_back();
      assert( aig.is_and( n ) );
      lut_network::lut l;
      l.fanins.reserve( best.size );
      for ( std::uint32_t i = 0; i < best.size; ++i )
      {
        l.fanins.push_back( node_to_signal[best.leaves[i]] );
      }
      l.function = truth_table( best.size );
      l.function.blocks()[0] = best.function & block_mask( best.size );
      node_to_signal[n] = net.signal_of_lut( net.luts.size() );
      net.luts.push_back( std::move( l ) );
    }
    return node_to_signal[root];
  };

  for ( const auto po : aig.pos() )
  {
    const auto n = lit_node( po );
    if ( n == 0u )
    {
      // Constant output: encode as a zero-input LUT.
      lut_network::lut l;
      l.function = truth_table( 0 );
      const auto signal = net.num_pis + static_cast<std::uint32_t>( net.luts.size() );
      net.luts.push_back( std::move( l ) );
      net.outputs.push_back( { signal, lit_complemented( po ) } );
      continue;
    }
    net.outputs.push_back( { build( n ), lit_complemented( po ) } );
  }
  return net;
}

} // namespace qsyn
