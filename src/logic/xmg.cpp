#include "xmg.hpp"

#include "../common/balanced_reduce.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace qsyn
{

xmg_network::xmg_network( unsigned num_pis ) : num_pis_( num_pis )
{
  nodes_.resize( 1u + num_pis );
  nodes_[0].kind = node_kind::constant;
  for ( unsigned i = 0; i < num_pis; ++i )
  {
    nodes_[i + 1u].kind = node_kind::pi;
  }
}

xmg_lit xmg_network::pi( unsigned index ) const
{
  assert( index < num_pis_ );
  return ( index + 1u ) << 1;
}

std::size_t xmg_network::num_maj() const
{
  std::size_t count = 0;
  for ( const auto& n : nodes_ )
  {
    if ( n.kind == node_kind::maj )
    {
      ++count;
    }
  }
  return count;
}

std::size_t xmg_network::num_xor() const
{
  std::size_t count = 0;
  for ( const auto& n : nodes_ )
  {
    if ( n.kind == node_kind::xor2 )
    {
      ++count;
    }
  }
  return count;
}

xmg_lit xmg_network::create_maj( xmg_lit a, xmg_lit b, xmg_lit c )
{
  // Sort fanins to canonicalize.
  if ( a > b )
  {
    std::swap( a, b );
  }
  if ( b > c )
  {
    std::swap( b, c );
  }
  if ( a > b )
  {
    std::swap( a, b );
  }
  // Simplifications: duplicate / complementary fanins dominate.
  if ( a == b )
  {
    return a;
  }
  if ( b == c )
  {
    return b;
  }
  if ( a == ( b ^ 1u ) )
  {
    return c;
  }
  if ( b == ( c ^ 1u ) )
  {
    return a;
  }
  // Constant propagation: maj(0,b,c) = b&c, maj(1,b,c) = b|c are *kept* as
  // MAJ nodes (that is how XMGs represent AND/OR), but two constants fold.
  if ( a == const0 && b == const1 )
  {
    return c;
  }
  // Self-duality: maj(!a,!b,!c) = !maj(a,b,c); canonicalize so at most one
  // of the complement patterns is stored.
  bool output_compl = false;
  if ( ( ( a & 1u ) + ( b & 1u ) + ( c & 1u ) ) >= 2u )
  {
    a ^= 1u;
    b ^= 1u;
    c ^= 1u;
    output_compl = true;
    // Re-sort (complementing can change order only between equal nodes with
    // different polarities, which cannot happen here as equal nodes were
    // simplified; order by literal value is preserved per node).
    if ( a > b )
    {
      std::swap( a, b );
    }
    if ( b > c )
    {
      std::swap( b, c );
    }
    if ( a > b )
    {
      std::swap( a, b );
    }
  }
  return ( find_or_add( node_kind::maj, a, b, c ) << 1 ) | ( output_compl ? 1u : 0u );
}

xmg_lit xmg_network::create_xor( xmg_lit a, xmg_lit b )
{
  // Fold complements into the output phase.
  bool output_compl = ( a & 1u ) ^ ( b & 1u );
  a &= ~1u;
  b &= ~1u;
  if ( a == b )
  {
    return output_compl ? const1 : const0;
  }
  if ( a > b )
  {
    std::swap( a, b );
  }
  if ( a == const0 )
  {
    return b ^ ( output_compl ? 1u : 0u );
  }
  return ( find_or_add( node_kind::xor2, a, b, const0 ) << 1 ) | ( output_compl ? 1u : 0u );
}

std::uint32_t xmg_network::find_or_add( node_kind kind, xmg_lit a, xmg_lit b, xmg_lit c )
{
  const auto [node, inserted] = strash_.insert(
      strash_key( kind, a, b, c ), static_cast<std::uint32_t>( nodes_.size() ), strash_keys() );
  if ( inserted )
  {
    nodes_.push_back( { kind, { a, b, c } } );
  }
  return node;
}

xmg_lit xmg_network::create_mux( xmg_lit sel, xmg_lit t, xmg_lit e )
{
  // sel ? t : e == (sel & t) | (!sel & e) == maj(maj(sel,t,0), maj(!sel,e,0), 1)
  if ( t == e )
  {
    return t;
  }
  const auto on = create_and( sel, t );
  const auto off = create_and( sel ^ 1u, e );
  return create_or( on, off );
}

void xmg_network::reserve( std::size_t num_gates )
{
  nodes_.reserve( 1u + num_pis_ + num_gates );
  strash_.reserve( num_gates, strash_keys() );
}

xmg_lit xmg_network::create_nary_xor( std::vector<xmg_lit> lits )
{
  if ( lits.empty() )
  {
    return const0;
  }
  return reduce_balanced( lits, [this]( xmg_lit a, xmg_lit b ) { return create_xor( a, b ); } );
}

xmg_lit xmg_network::create_nary_and( std::vector<xmg_lit> lits )
{
  if ( lits.empty() )
  {
    return const1;
  }
  return reduce_balanced( lits, [this]( xmg_lit a, xmg_lit b ) { return create_and( a, b ); } );
}

std::vector<std::uint32_t> xmg_network::fanout_counts() const
{
  std::vector<std::uint32_t> counts( nodes_.size(), 0u );
  for ( std::uint32_t n = num_pis_ + 1u; n < nodes_.size(); ++n )
  {
    const unsigned arity = nodes_[n].kind == node_kind::maj ? 3u : 2u;
    for ( unsigned i = 0; i < arity; ++i )
    {
      ++counts[nodes_[n].fanin[i] >> 1];
    }
  }
  for ( const auto po : pos_ )
  {
    ++counts[po >> 1];
  }
  return counts;
}

std::vector<truth_table> xmg_network::simulate_outputs() const
{
  if ( num_pis_ > 20u )
  {
    throw std::invalid_argument( "xmg_network::simulate_outputs: too many inputs" );
  }
  std::vector<truth_table> tts( nodes_.size(), truth_table( num_pis_ ) );
  for ( unsigned i = 0; i < num_pis_; ++i )
  {
    tts[i + 1u] = truth_table::projection( num_pis_, i );
  }
  const auto lit_tt = [&]( xmg_lit lit ) {
    return ( lit & 1u ) ? ~tts[lit >> 1] : tts[lit >> 1];
  };
  for ( std::uint32_t n = num_pis_ + 1u; n < nodes_.size(); ++n )
  {
    const auto& fi = nodes_[n].fanin;
    if ( nodes_[n].kind == node_kind::maj )
    {
      const auto a = lit_tt( fi[0] );
      const auto b = lit_tt( fi[1] );
      const auto c = lit_tt( fi[2] );
      tts[n] = ( a & b ) | ( a & c ) | ( b & c );
    }
    else
    {
      tts[n] = lit_tt( fi[0] ) ^ lit_tt( fi[1] );
    }
  }
  std::vector<truth_table> result;
  result.reserve( pos_.size() );
  for ( const auto po : pos_ )
  {
    result.push_back( ( po & 1u ) ? ~tts[po >> 1] : tts[po >> 1] );
  }
  return result;
}

std::vector<std::uint64_t> xmg_network::simulate_patterns( const std::vector<std::uint64_t>& pi_patterns ) const
{
  assert( pi_patterns.size() == num_pis_ );
  std::vector<std::uint64_t> values( nodes_.size(), 0u );
  for ( unsigned i = 0; i < num_pis_; ++i )
  {
    values[i + 1u] = pi_patterns[i];
  }
  for ( std::uint32_t n = num_pis_ + 1u; n < nodes_.size(); ++n )
  {
    const auto& fi = nodes_[n].fanin;
    if ( nodes_[n].kind == node_kind::maj )
    {
      const auto a = pattern_of( fi[0], values );
      const auto b = pattern_of( fi[1], values );
      const auto c = pattern_of( fi[2], values );
      values[n] = ( a & b ) | ( a & c ) | ( b & c );
    }
    else
    {
      values[n] = pattern_of( fi[0], values ) ^ pattern_of( fi[1], values );
    }
  }
  std::vector<std::uint64_t> result;
  result.reserve( pos_.size() );
  for ( const auto po : pos_ )
  {
    result.push_back( pattern_of( po, values ) );
  }
  return result;
}

std::vector<bool> xmg_network::evaluate( const std::vector<bool>& inputs ) const
{
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

xmg_lit xmg_network::append_raw_node( node_kind kind, const std::array<xmg_lit, 3>& fanin )
{
  if ( kind != node_kind::maj && kind != node_kind::xor2 )
  {
    throw std::invalid_argument( "xmg_network::append_raw_node: kind must be maj or xor2" );
  }
  for ( const auto f : fanin )
  {
    if ( ( f >> 1 ) >= nodes_.size() )
    {
      throw std::invalid_argument( "xmg_network::append_raw_node: fanin references a future node" );
    }
  }
  const auto node = static_cast<std::uint32_t>( nodes_.size() );
  nodes_.push_back( { kind, fanin } );
  // Keyed like create_maj / create_xor so hash-consed construction keeps
  // working after a raw append.
  const auto key_of = strash_keys();
  strash_.insert( key_of( node ), node, key_of );
  return node << 1;
}

xmg_network xmg_network::cleanup() const
{
  std::vector<bool> reachable( nodes_.size(), false );
  std::vector<std::uint32_t> stack;
  for ( const auto po : pos_ )
  {
    stack.push_back( po >> 1 );
  }
  while ( !stack.empty() )
  {
    const auto n = stack.back();
    stack.pop_back();
    if ( reachable[n] || n <= num_pis_ )
    {
      continue;
    }
    reachable[n] = true;
    const unsigned arity = nodes_[n].kind == node_kind::maj ? 3u : 2u;
    for ( unsigned i = 0; i < arity; ++i )
    {
      stack.push_back( nodes_[n].fanin[i] >> 1 );
    }
  }
  xmg_network result( num_pis_ );
  std::vector<xmg_lit> map( nodes_.size(), 0u );
  for ( unsigned i = 0; i < num_pis_; ++i )
  {
    map[i + 1u] = result.pi( i );
  }
  const auto map_lit = [&]( xmg_lit lit ) { return map[lit >> 1] ^ ( lit & 1u ); };
  for ( std::uint32_t n = num_pis_ + 1u; n < nodes_.size(); ++n )
  {
    if ( !reachable[n] )
    {
      continue;
    }
    const auto& fi = nodes_[n].fanin;
    if ( nodes_[n].kind == node_kind::maj )
    {
      map[n] = result.create_maj( map_lit( fi[0] ), map_lit( fi[1] ), map_lit( fi[2] ) );
    }
    else
    {
      map[n] = result.create_xor( map_lit( fi[0] ), map_lit( fi[1] ) );
    }
  }
  for ( const auto po : pos_ )
  {
    result.add_po( map_lit( po ) );
  }
  return result;
}

std::string xmg_network::to_dot( const std::string& name ) const
{
  std::ostringstream os;
  os << "digraph " << name << " {\n  rankdir=BT;\n";
  for ( unsigned i = 0; i < num_pis_; ++i )
  {
    os << "  n" << ( i + 1u ) << " [shape=triangle,label=\"x" << i << "\"];\n";
  }
  for ( std::uint32_t n = num_pis_ + 1u; n < nodes_.size(); ++n )
  {
    const bool maj = nodes_[n].kind == node_kind::maj;
    os << "  n" << n << " [shape=circle,label=\"" << ( maj ? "MAJ" : "XOR" ) << "\"];\n";
    const unsigned arity = maj ? 3u : 2u;
    for ( unsigned i = 0; i < arity; ++i )
    {
      const auto f = nodes_[n].fanin[i];
      os << "  n" << ( f >> 1 ) << " -> n" << n
         << ( ( f & 1u ) ? " [style=dashed]" : "" ) << ";\n";
    }
  }
  for ( std::size_t i = 0; i < pos_.size(); ++i )
  {
    os << "  y" << i << " [shape=invtriangle,label=\"y" << i << "\"];\n";
    os << "  n" << ( pos_[i] >> 1 ) << " -> y" << i
       << ( ( pos_[i] & 1u ) ? " [style=dashed]" : "" ) << ";\n";
  }
  os << "}\n";
  return os.str();
}

} // namespace qsyn
