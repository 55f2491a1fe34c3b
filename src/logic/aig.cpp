#include "aig.hpp"

#include "../common/balanced_reduce.hpp"
#include "../common/content_hash.hpp"
#include "../common/parallel_chunks.hpp"
#include "aig_slots.hpp"

#include <algorithm>
#include <cassert>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace qsyn
{

aig_network::aig_network( unsigned num_pis ) : num_pis_( num_pis )
{
  nodes_.resize( 1u + num_pis );
}

aig_lit aig_network::add_pi()
{
  if ( num_ands() != 0u )
  {
    throw std::logic_error( "aig_network::add_pi: cannot add PI after AND nodes exist" );
  }
  ++num_pis_;
  nodes_.emplace_back();
  hash_.forget();
  return make_lit( num_pis_ );
}

aig_lit aig_network::pi( unsigned index ) const
{
  assert( index < num_pis_ );
  return make_lit( index + 1u );
}

aig_lit aig_network::create_and( aig_lit a, aig_lit b )
{
  // Constant folding and trivial cases.
  if ( a == const0 || b == const0 )
  {
    return const0;
  }
  if ( a == const1 )
  {
    return b;
  }
  if ( b == const1 )
  {
    return a;
  }
  if ( a == b )
  {
    return a;
  }
  if ( a == lit_not( b ) )
  {
    return const0;
  }
  // Normalize fanin order for structural hashing.
  if ( a > b )
  {
    std::swap( a, b );
  }
  const auto [node, inserted] = strash_.insert(
      strash_key( a, b ), static_cast<std::uint32_t>( nodes_.size() ), strash_keys() );
  if ( inserted )
  {
    nodes_.push_back( { a, b } );
    hash_.forget();
  }
  return make_lit( node );
}

aig_lit aig_network::create_or( aig_lit a, aig_lit b )
{
  return lit_not( create_and( lit_not( a ), lit_not( b ) ) );
}

aig_lit aig_network::create_xor( aig_lit a, aig_lit b )
{
  // a ^ b = !(a & b) & !( !a & !b )
  const auto both = create_and( a, b );
  const auto neither = create_and( lit_not( a ), lit_not( b ) );
  return create_and( lit_not( both ), lit_not( neither ) );
}

aig_lit aig_network::create_mux( aig_lit sel, aig_lit t, aig_lit e )
{
  if ( t == e )
  {
    return t;
  }
  const auto on = create_and( sel, t );
  const auto off = create_and( lit_not( sel ), e );
  return create_or( on, off );
}

aig_lit aig_network::create_maj( aig_lit a, aig_lit b, aig_lit c )
{
  const auto ab = create_and( a, b );
  const auto ac = create_and( a, c );
  const auto bc = create_and( b, c );
  return create_or( create_or( ab, ac ), bc );
}

void aig_network::reserve( std::size_t num_ands )
{
  nodes_.reserve( 1u + num_pis_ + num_ands );
  strash_.reserve( num_ands, strash_keys() );
}

aig_lit aig_network::create_nary_and( std::vector<aig_lit> lits )
{
  if ( lits.empty() )
  {
    return const1;
  }
  return reduce_balanced( lits, [this]( aig_lit a, aig_lit b ) { return create_and( a, b ); } );
}

aig_lit aig_network::create_nary_or( std::vector<aig_lit> lits )
{
  for ( auto& l : lits )
  {
    l = lit_not( l );
  }
  return lit_not( create_nary_and( std::move( lits ) ) );
}

aig_lit aig_network::create_nary_xor( std::vector<aig_lit> lits )
{
  if ( lits.empty() )
  {
    return const0;
  }
  return reduce_balanced( lits, [this]( aig_lit a, aig_lit b ) { return create_xor( a, b ); } );
}

std::vector<std::uint32_t> aig_network::fanout_counts() const
{
  std::vector<std::uint32_t> counts( nodes_.size(), 0u );
  for ( std::uint32_t n = num_pis_ + 1u; n < nodes_.size(); ++n )
  {
    ++counts[lit_node( nodes_[n].fanin0 )];
    ++counts[lit_node( nodes_[n].fanin1 )];
  }
  for ( const auto po : pos_ )
  {
    ++counts[lit_node( po )];
  }
  return counts;
}

std::vector<std::uint32_t> aig_network::levels() const
{
  std::vector<std::uint32_t> level( nodes_.size(), 0u );
  for ( std::uint32_t n = num_pis_ + 1u; n < nodes_.size(); ++n )
  {
    level[n] = 1u + std::max( level[lit_node( nodes_[n].fanin0 )],
                              level[lit_node( nodes_[n].fanin1 )] );
  }
  return level;
}

std::uint32_t aig_network::depth() const
{
  const auto level = levels();
  std::uint32_t d = 0;
  for ( const auto po : pos_ )
  {
    d = std::max( d, level[lit_node( po )] );
  }
  return d;
}

std::vector<truth_table> aig_network::simulate_outputs() const
{
  if ( num_pis_ > max_simulation_inputs )
  {
    throw std::invalid_argument( "aig_network::simulate_outputs: " + std::to_string( num_pis_ ) +
                                 " inputs exceed the " + std::to_string( max_simulation_inputs ) +
                                 "-input limit of explicit simulation" );
  }
  // The input space is swept in lane groups of `width` consecutive table
  // words over the live-slot program, on the dispatched slot kernel
  // (aig_slots.hpp): a thread's one reused buffer holds the current group's
  // words of every *live* node, so memory is num_slots * width words per
  // thread however wide the tables are.  Every group is simulated at full
  // width; only the words that exist are copied out.  Groups are
  // independent, so chunks of them run in parallel (parallel_chunks.hpp)
  // and each writes its own words of the result tables.
  constexpr unsigned width = 8;
  const auto program = compile_slot_program( *this );
  const auto backend = active_simd_backend( width );
  const auto num_words = num_blocks_for( num_pis_ );
  const auto num_groups = ( num_words + width - 1u ) / width;
  // Lane groups per chunk: about 2^20 word-ANDs, so a chunk outweighs the
  // start of a thread.
  const auto groups_per_chunk =
      std::max<std::size_t>( 1u, ( std::size_t{ 1 } << 20 ) / ( program.num_ands() * width + 1u ) );
  const parallel_chunks chunks( ( num_groups + groups_per_chunk - 1u ) / groups_per_chunk );
  std::vector<std::vector<std::uint64_t>> buffers( chunks.width() );
  std::vector<truth_table> result( pos_.size(), truth_table( num_pis_ ) );
  chunks.run( [&]( std::size_t chunk, unsigned slot ) {
    auto& values = buffers[slot];
    if ( values.empty() )
    {
      values.assign( std::size_t{ program.num_slots } * width, 0u );
      for ( unsigned i = 0; i < std::min( num_pis_, 6u ); ++i )
      {
        std::fill_n( &values[( i + 1u ) * width], width, projections[i] );
      }
    }
    const auto end = std::min( num_groups, ( chunk + 1u ) * groups_per_chunk ) * width;
    for ( std::size_t base = chunk * groups_per_chunk * width; base < end; base += width )
    {
      // Word w of the table has x_i = bit (i - 6) of w for every i >= 6.
      for ( unsigned i = 6; i < num_pis_; ++i )
      {
        auto* v = &values[( i + 1u ) * width];
        for ( std::size_t k = 0; k < width; ++k )
        {
          v[k] = ( ( base + k ) >> ( i - 6u ) ) & 1u ? ~std::uint64_t{ 0 } : 0u;
        }
      }
      run_slot_program( program, width, backend, values.data() );
      const auto count = std::min<std::size_t>( width, num_words - base );
      for ( std::size_t o = 0; o < pos_.size(); ++o )
      {
        const auto p = program.pos[o];
        const auto* v = &values[std::size_t{ p >> 1 } * width];
        const std::uint64_t m = std::uint64_t{ 0 } - ( p & 1u );
        auto& blocks = result[o].blocks();
        for ( std::size_t k = 0; k < count; ++k )
        {
          blocks[base + k] = ( v[k] ^ m ) & block_mask( num_pis_ );
        }
      }
    }
  } );
  return result;
}

std::vector<std::uint64_t> aig_network::simulate_patterns( const std::vector<std::uint64_t>& pi_patterns ) const
{
  assert( pi_patterns.size() == num_pis_ );
  std::vector<std::uint64_t> values( nodes_.size(), 0u );
  for ( unsigned i = 0; i < num_pis_; ++i )
  {
    values[i + 1u] = pi_patterns[i];
  }
  for ( std::uint32_t n = num_pis_ + 1u; n < nodes_.size(); ++n )
  {
    const auto f0 = nodes_[n].fanin0;
    const auto f1 = nodes_[n].fanin1;
    const auto v0 = values[lit_node( f0 )] ^ ( lit_complemented( f0 ) ? ~std::uint64_t{ 0 } : 0u );
    const auto v1 = values[lit_node( f1 )] ^ ( lit_complemented( f1 ) ? ~std::uint64_t{ 0 } : 0u );
    values[n] = v0 & v1;
  }
  std::vector<std::uint64_t> result;
  result.reserve( pos_.size() );
  for ( const auto po : pos_ )
  {
    result.push_back( values[lit_node( po )] ^ ( lit_complemented( po ) ? ~std::uint64_t{ 0 } : 0u ) );
  }
  return result;
}

std::vector<bool> aig_network::evaluate( const std::vector<bool>& inputs ) const
{
  assert( inputs.size() == num_pis_ );
  std::vector<std::uint64_t> patterns( num_pis_ );
  for ( unsigned i = 0; i < num_pis_; ++i )
  {
    patterns[i] = inputs[i] ? ~std::uint64_t{ 0 } : 0u;
  }
  const auto out = simulate_patterns( patterns );
  std::vector<bool> result( out.size() );
  for ( std::size_t i = 0; i < out.size(); ++i )
  {
    result[i] = out[i] & 1u;
  }
  return result;
}

aig_network aig_network::cleanup( std::vector<aig_lit>* old_to_new ) const
{
  // Mark reachable nodes.
  std::vector<bool> reachable( nodes_.size(), false );
  std::vector<std::uint32_t> stack;
  for ( const auto po : pos_ )
  {
    stack.push_back( lit_node( po ) );
  }
  while ( !stack.empty() )
  {
    const auto n = stack.back();
    stack.pop_back();
    if ( reachable[n] || !is_and( n ) )
    {
      continue;
    }
    reachable[n] = true;
    stack.push_back( lit_node( nodes_[n].fanin0 ) );
    stack.push_back( lit_node( nodes_[n].fanin1 ) );
  }
  const auto num_reachable = static_cast<std::size_t>( std::count( reachable.begin(), reachable.end(), true ) );
  constexpr aig_lit unmapped = 0xffffffffu;
  std::vector<aig_lit> map( nodes_.size(), unmapped );
  map[0] = const0;
  aig_network result( num_pis_ );
  result.reserve( num_reachable );
  for ( unsigned i = 0; i < num_pis_; ++i )
  {
    map[i + 1u] = result.pi( i );
  }
  // Copy reachable AND nodes in (original, hence topological) order.
  for ( std::uint32_t n = num_pis_ + 1u; n < nodes_.size(); ++n )
  {
    if ( !reachable[n] )
    {
      continue;
    }
    const auto f0 = nodes_[n].fanin0;
    const auto f1 = nodes_[n].fanin1;
    const auto m0 = lit_not_cond( map[lit_node( f0 )], lit_complemented( f0 ) );
    const auto m1 = lit_not_cond( map[lit_node( f1 )], lit_complemented( f1 ) );
    map[n] = result.create_and( m0, m1 );
  }
  for ( const auto po : pos_ )
  {
    result.add_po( lit_not_cond( map[lit_node( po )], lit_complemented( po ) ) );
  }
  if ( old_to_new )
  {
    *old_to_new = std::move( map );
  }
  return result;
}

std::uint64_t aig_network::content_hash() const
{
  if ( const auto memo = hash_.value.load( std::memory_order_relaxed ); memo != 0u )
  {
    return memo;
  }
  content_hasher h;
  h.update_u32( num_pis_ );
  h.update_u32( static_cast<std::uint32_t>( nodes_.size() ) );
  for ( std::uint32_t n = num_pis_ + 1u; n < nodes_.size(); ++n )
  {
    h.update_u32( nodes_[n].fanin0 );
    h.update_u32( nodes_[n].fanin1 );
  }
  h.update_u32( static_cast<std::uint32_t>( pos_.size() ) );
  for ( const auto po : pos_ )
  {
    h.update_u32( po );
  }
  const auto digest = h.digest();
  hash_.value.store( digest, std::memory_order_relaxed );
  return digest;
}

aig_lit aig_network::append_raw_and( aig_lit fanin0, aig_lit fanin1 )
{
  if ( lit_node( fanin0 ) >= nodes_.size() || lit_node( fanin1 ) >= nodes_.size() )
  {
    throw std::invalid_argument( "aig_network::append_raw_and: fanin references a future node" );
  }
  const auto node = static_cast<std::uint32_t>( nodes_.size() );
  nodes_.push_back( { fanin0, fanin1 } );
  hash_.forget();
  // insert keeps the first node of a duplicate pair
  const auto key_of = strash_keys();
  strash_.insert( key_of( node ), node, key_of );
  return make_lit( node );
}

std::string aig_network::to_dot( const std::string& name ) const
{
  std::ostringstream os;
  os << "digraph " << name << " {\n  rankdir=BT;\n";
  for ( unsigned i = 0; i < num_pis_; ++i )
  {
    os << "  n" << ( i + 1u ) << " [shape=triangle,label=\"x" << i << "\"];\n";
  }
  for ( std::uint32_t n = num_pis_ + 1u; n < nodes_.size(); ++n )
  {
    os << "  n" << n << " [shape=circle,label=\"&\"];\n";
    for ( const auto f : { nodes_[n].fanin0, nodes_[n].fanin1 } )
    {
      os << "  n" << lit_node( f ) << " -> n" << n
         << ( lit_complemented( f ) ? " [style=dashed]" : "" ) << ";\n";
    }
  }
  for ( std::size_t i = 0; i < pos_.size(); ++i )
  {
    os << "  y" << i << " [shape=invtriangle,label=\"y" << i << "\"];\n";
    os << "  n" << lit_node( pos_[i] ) << " -> y" << i
       << ( lit_complemented( pos_[i] ) ? " [style=dashed]" : "" ) << ";\n";
  }
  os << "}\n";
  return os.str();
}

} // namespace qsyn
