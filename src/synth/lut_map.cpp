#include "lut_map.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>
#include <span>
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
/// size..5), so complement and AND are single word operations.  The
/// signature has bit (leaf mod 64) set for every leaf: the popcount of two
/// cuts' OR is at most the size of their union.
struct cut
{
  std::array<std::uint32_t, max_k> leaves{};
  std::uint32_t size = 0;
  std::uint64_t function = 0;
  std::uint64_t signature = 0;
  double area_flow = 0.0;
};

/// What cover extraction needs of a node's best cut.
struct chosen_cut
{
  std::array<std::uint32_t, max_k> leaves{};
  std::uint32_t size = 0;
  std::uint64_t function = 0;
};

/// Position of each leaf of a fanin cut within the merged cut.
using leaf_positions = std::array<std::uint8_t, max_k>;

/// Sorted union of the leaves of `a` and `b` into `out`; false when it has
/// more than `k` leaves.  Forced inline: with the two copies of
/// `enumerate_cuts` it has two call sites, and GCC then stops inlining it
/// as it did into the single one.
[[gnu::always_inline]] inline bool merge_leaves( const cut& a, const cut& b, unsigned k, cut& out,
                                                 leaf_positions& pos_a, leaf_positions& pos_b )
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
  c.signature = std::uint64_t{ 1 } << ( n % 64u );
  return c;
}

/// Per-node cut lists in fixed blocks of `block_size` cuts, recycled
/// through a free list: a node's list lives from its enumeration until its
/// last fanout has merged it, so the pool stays as large as the widest
/// frontier of live lists.
class cut_pool
{
public:
  static constexpr std::uint32_t block_size = lut_map_params::cuts_per_node + 1u;

  explicit cut_pool( std::size_t num_nodes ) : block_( num_nodes, none ), count_( num_nodes, 0u ) {}

  std::span<const cut> cuts( std::uint32_t node ) const
  {
    return { cuts_.data() + std::size_t{ block_[node] } * block_size, count_[node] };
  }

  /// Makes room for the `count` <= block_size cuts of `node`'s list and
  /// returns it to be filled; valid until the next `assign`.
  std::span<cut> assign( std::uint32_t node, std::uint32_t count )
  {
    assert( count <= block_size );
    std::uint32_t block;
    if ( free_.empty() )
    {
      block = static_cast<std::uint32_t>( cuts_.size() / block_size );
      cuts_.resize( cuts_.size() + block_size );
    }
    else
    {
      block = free_.back();
      free_.pop_back();
    }
    block_[node] = block;
    count_[node] = static_cast<std::uint8_t>( count );
    return { cuts_.data() + std::size_t{ block } * block_size, count };
  }

  void release( std::uint32_t node )
  {
    free_.push_back( block_[node] );
    block_[node] = none;
    count_[node] = 0u;
  }

private:
  static constexpr std::uint32_t none = ~std::uint32_t{ 0 };

  std::vector<cut> cuts_;
  std::vector<std::uint32_t> block_;
  std::vector<std::uint8_t> count_;
  std::vector<std::uint32_t> free_;
};

/// The enumeration phase of `lut_map`: every AND node's best cut, ranked
/// by area flow, then by leaf count.  Inlined into both copies that
/// `lut_map` chooses between.
[[gnu::always_inline]] inline std::vector<chosen_cut> enumerate_cuts( const aig_network& aig,
                                                                     unsigned k )
{
  const auto fanouts = aig.fanout_counts();

  // Per node: its list of candidate cuts (best first, trivial cut last),
  // freed once every fanout has consumed it (large designs would otherwise
  // hold gigabytes of cuts); the best cut survives in `best_cuts` for the
  // cover-extraction phase.
  cut_pool cuts( aig.num_nodes() );
  std::vector<chosen_cut> best_cuts( aig.num_nodes() );
  std::vector<std::uint32_t> pending_fanouts( fanouts );
  // Area-flow share (area flow / fanouts) per node (PIs: 0), used to cost
  // candidate cuts from their *leaves* rather than from the structural
  // merge path.
  std::vector<double> node_flow_share( aig.num_nodes(), 0.0 );

  for ( std::uint32_t n = 1; n <= aig.num_pis(); ++n )
  {
    cuts.assign( n, 1u )[0] = trivial_cut( n );
  }
  // A constant fanin contributes one empty cut with the constant-0 function.
  const std::array<cut, 1> constant_cuts{};

  constexpr auto max_candidates = cut_pool::block_size * cut_pool::block_size;
  // `order` and the pool's list counts hold candidate indices in 8 bits.
  static_assert( max_candidates <= 256u );
  std::vector<cut> candidates( max_candidates );
  std::vector<std::uint8_t> order( max_candidates );
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
    const auto cuts0 = n0 == 0u ? std::span<const cut>( constant_cuts ) : cuts.cuts( n0 );
    const auto cuts1 = n1 == 0u ? std::span<const cut>( constant_cuts ) : cuts.cuts( n1 );
    std::uint32_t count = 0;
    for ( const auto& c0 : cuts0 )
    {
      for ( const auto& c1 : cuts1 )
      {
        // More than k signature bits means more than k leaves (one POPCNT
        // instruction in `enumerate_cuts_popcnt`).
        if ( static_cast<unsigned>( std::popcount( c0.signature | c1.signature ) ) > k )
        {
          continue;
        }
        auto& c = candidates[count];
        if ( !merge_leaves( c0, c1, k, c, pos0, pos1 ) )
        {
          continue;
        }
        c.signature = c0.signature | c1.signature;
        c.function = ( expand_tt( c0.function, pos0, c0.size ) ^ compl0 ) &
                     ( expand_tt( c1.function, pos1, c1.size ) ^ compl1 );
        c.area_flow = 1.0;
        for ( std::uint32_t i = 0; i < c.size; ++i )
        {
          c.area_flow += node_flow_share[c.leaves[i]];
        }
        order[count] = static_cast<std::uint8_t>( count );
        ++count;
      }
    }
    assert( count > 0u );
    std::sort( order.begin(), order.begin() + count, [&]( std::uint8_t i, std::uint8_t j ) {
      const auto& a = candidates[i];
      const auto& b = candidates[j];
      if ( a.area_flow != b.area_flow )
      {
        return a.area_flow < b.area_flow;
      }
      return a.size < b.size;
    } );
    const auto kept = std::min( count, lut_map_params::cuts_per_node );
    const auto& best = candidates[order[0]];
    best_cuts[n] = { best.leaves, best.size, best.function };
    node_flow_share[n] = best.area_flow / std::max( 1u, fanouts[n] );
    // The trivial cut (the node itself, at the node's area flow) follows
    // the real candidates; it participates in fanout merging only.
    auto list = cuts.assign( n, kept + 1u );
    for ( std::uint32_t i = 0; i < kept; ++i )
    {
      list[i] = candidates[order[i]];
    }
    list[kept] = trivial_cut( n );
    list[kept].area_flow = best.area_flow;
    // Release fanin cut lists that are no longer needed.
    for ( const auto m : { n0, n1 } )
    {
      if ( m > aig.num_pis() && pending_fanouts[m] > 0u && --pending_fanouts[m] == 0u )
      {
        cuts.release( m );
      }
    }
  }
  return best_cuts;
}

/// `enumerate_cuts` with the signature filter's popcount as one POPCNT
/// instruction.  The filter runs millions of times per map (5.3 M on
/// NEWTON(16)), and for the library's baseline x86-64 target
/// `std::popcount` is a libgcc call.  The two copies differ only in how
/// they count bits, so the chosen cuts are the same.  `lut_map` picks one
/// with a plain cpuid branch rather than GCC's `target_clones`: its ifunc
/// resolver runs while the program is loaded, before ThreadSanitizer is
/// initialized, and a TSan build then crashes at start-up.
[[gnu::target( "popcnt" )]] std::vector<chosen_cut> enumerate_cuts_popcnt( const aig_network& aig,
                                                                           unsigned k )
{
  return enumerate_cuts( aig, k );
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
  static const bool popcnt = __builtin_cpu_supports( "popcnt" ) != 0;
  const auto best_cuts = popcnt ? enumerate_cuts_popcnt( aig, k ) : enumerate_cuts( aig, k );

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
