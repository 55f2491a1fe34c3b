#include "serialize.hpp"

#include <bit>
#include <limits>

namespace qsyn::store
{

// --- primitives --------------------------------------------------------------

void byte_writer::f64( double v )
{
  u64( std::bit_cast<std::uint64_t>( v ) );
}

void byte_reader::need( std::size_t n ) const
{
  if ( size_ - pos_ < n )
  {
    throw deserialize_error( "truncated payload" );
  }
}

std::uint8_t byte_reader::u8()
{
  need( 1 );
  return data_[pos_++];
}

std::uint32_t byte_reader::u32()
{
  need( 4 );
  std::uint32_t v = 0;
  for ( int i = 0; i < 4; ++i )
  {
    v |= static_cast<std::uint32_t>( data_[pos_++] ) << ( 8 * i );
  }
  return v;
}

std::uint64_t byte_reader::u64()
{
  need( 8 );
  std::uint64_t v = 0;
  for ( int i = 0; i < 8; ++i )
  {
    v |= static_cast<std::uint64_t>( data_[pos_++] ) << ( 8 * i );
  }
  return v;
}

double byte_reader::f64()
{
  return std::bit_cast<double>( u64() );
}

std::string byte_reader::str()
{
  const auto len = u32();
  need( len );
  std::string s( reinterpret_cast<const char*>( data_ + pos_ ), len );
  pos_ += len;
  return s;
}

void byte_reader::expect_end() const
{
  if ( pos_ != size_ )
  {
    throw deserialize_error( "trailing bytes after payload" );
  }
}

// --- AIG ---------------------------------------------------------------------

namespace
{

/// Cap on a graph's PI and PO counts.  A PI costs no bytes, so the bytes
/// left cannot bound it.
constexpr std::uint32_t max_interface_size = 1u << 24;

} // namespace

void write_aig( byte_writer& w, const aig_network& aig )
{
  w.u32( aig.num_pis() );
  w.u32( static_cast<std::uint32_t>( aig.num_nodes() ) );
  for ( std::uint32_t n = aig.num_pis() + 1u;
        n < static_cast<std::uint32_t>( aig.num_nodes() ); ++n )
  {
    w.u32( aig.fanin0( n ) );
    w.u32( aig.fanin1( n ) );
  }
  w.u32( aig.num_pos() );
  for ( const auto po : aig.pos() )
  {
    w.u32( po );
  }
}

aig_network read_aig( byte_reader& r )
{
  const auto num_pis = r.u32();
  const auto num_nodes = r.u32();
  // In 64 bits: 1 + 0xffffffff PIs must not wrap to an empty network.  A
  // PI costs no bytes, so its count has a fixed cap; each AND costs 8.
  if ( num_pis > max_interface_size || num_nodes < 1u + std::uint64_t{ num_pis } ||
       num_nodes - 1u - num_pis > r.remaining() / 8u )
  {
    throw deserialize_error( "aig: impossible node count" );
  }
  aig_network aig( num_pis );
  for ( std::uint32_t n = num_pis + 1u; n < num_nodes; ++n )
  {
    const auto f0 = r.u32();
    const auto f1 = r.u32();
    if ( lit_node( f0 ) >= n || lit_node( f1 ) >= n )
    {
      throw deserialize_error( "aig: fanin references a future node" );
    }
    aig.append_raw_and( f0, f1 );
  }
  const auto num_pos = r.u32();
  if ( num_pos > max_interface_size )
  {
    throw deserialize_error( "aig: impossible output count" );
  }
  for ( std::uint32_t i = 0; i < num_pos; ++i )
  {
    const auto po = r.u32();
    if ( lit_node( po ) >= num_nodes )
    {
      throw deserialize_error( "aig: output references a missing node" );
    }
    aig.add_po( po );
  }
  return aig;
}

// --- ESOP --------------------------------------------------------------------

void write_esop( byte_writer& w, const esop& expression )
{
  w.u32( expression.num_inputs );
  w.u32( expression.num_outputs );
  w.u32( static_cast<std::uint32_t>( expression.terms.size() ) );
  for ( const auto& term : expression.terms )
  {
    w.u64( term.product.mask );
    w.u64( term.product.polarity );
    w.u64( term.output_mask );
  }
}

esop read_esop( byte_reader& r )
{
  esop expression;
  expression.num_inputs = r.u32();
  expression.num_outputs = r.u32();
  if ( expression.num_inputs > 64u || expression.num_outputs > 64u )
  {
    throw deserialize_error( "esop: more than 64 inputs/outputs" );
  }
  const auto num_terms = r.u32();
  if ( num_terms > ( 1u << 28 ) )
  {
    throw deserialize_error( "esop: impossible term count" );
  }
  expression.terms.reserve( num_terms );
  const auto var_mask = expression.num_inputs == 64u
                            ? ~std::uint64_t{ 0 }
                            : ( ( std::uint64_t{ 1 } << expression.num_inputs ) - 1u );
  const auto out_mask = expression.num_outputs == 64u
                            ? ~std::uint64_t{ 0 }
                            : ( ( std::uint64_t{ 1 } << expression.num_outputs ) - 1u );
  for ( std::uint32_t i = 0; i < num_terms; ++i )
  {
    esop_term term;
    term.product.mask = r.u64();
    term.product.polarity = r.u64();
    term.output_mask = r.u64();
    if ( ( term.product.mask & ~var_mask ) != 0u ||
         ( term.product.polarity & ~term.product.mask ) != 0u ||
         ( term.output_mask & ~out_mask ) != 0u )
    {
      throw deserialize_error( "esop: term bits outside the declared variable range" );
    }
    expression.terms.push_back( term );
  }
  return expression;
}

// --- XMG ---------------------------------------------------------------------

void write_xmg( byte_writer& w, const xmg_network& graph )
{
  w.u32( graph.num_pis() );
  w.u32( static_cast<std::uint32_t>( graph.num_nodes() ) );
  for ( std::uint32_t n = graph.num_pis() + 1u;
        n < static_cast<std::uint32_t>( graph.num_nodes() ); ++n )
  {
    w.u8( graph.is_maj( n ) ? 0u : 1u );
    const auto& fanin = graph.fanins( n );
    w.u32( fanin[0] );
    w.u32( fanin[1] );
    w.u32( fanin[2] );
  }
  w.u32( graph.num_pos() );
  for ( const auto po : graph.pos() )
  {
    w.u32( po );
  }
}

xmg_network read_xmg( byte_reader& r )
{
  const auto num_pis = r.u32();
  const auto num_nodes = r.u32();
  // As in read_aig; a logic node costs 13 bytes (kind + three fanins).
  if ( num_pis > max_interface_size || num_nodes < 1u + std::uint64_t{ num_pis } ||
       num_nodes - 1u - num_pis > r.remaining() / 13u )
  {
    throw deserialize_error( "xmg: impossible node count" );
  }
  xmg_network graph( num_pis );
  for ( std::uint32_t n = num_pis + 1u; n < num_nodes; ++n )
  {
    const auto kind_tag = r.u8();
    if ( kind_tag > 1u )
    {
      throw deserialize_error( "xmg: unknown node kind" );
    }
    const std::array<xmg_lit, 3> fanin = { r.u32(), r.u32(), r.u32() };
    for ( const auto f : fanin )
    {
      if ( ( f >> 1 ) >= n )
      {
        throw deserialize_error( "xmg: fanin references a future node" );
      }
    }
    // Only the forms create_maj / create_xor store; consumers rely on
    // them (hierarchical synthesis maps only a MAJ's first fanin to the
    // constant).  A MAJ's literals strictly increase on three distinct
    // nodes; an XOR has two plain non-constant fanins in node order and a
    // zero third.
    const auto node = [&]( unsigned i ) { return fanin[i] >> 1; };
    const bool plain = ( ( fanin[0] | fanin[1] ) & 1u ) == 0u;
    const bool canonical = kind_tag == 0u
                               ? node( 0 ) < node( 1 ) && node( 1 ) < node( 2 )
                               : plain && 0u < node( 0 ) && node( 0 ) < node( 1 ) && fanin[2] == 0u;
    if ( !canonical )
    {
      throw deserialize_error( "xmg: node in a form the builder never stores" );
    }
    graph.append_raw_node( kind_tag == 0u ? xmg_network::node_kind::maj
                                          : xmg_network::node_kind::xor2,
                           fanin );
  }
  const auto num_pos = r.u32();
  if ( num_pos > max_interface_size )
  {
    throw deserialize_error( "xmg: impossible output count" );
  }
  for ( std::uint32_t i = 0; i < num_pos; ++i )
  {
    const auto po = r.u32();
    if ( ( po >> 1 ) >= num_nodes )
    {
      throw deserialize_error( "xmg: output references a missing node" );
    }
    graph.add_po( po );
  }
  return graph;
}

// --- reversible circuit ------------------------------------------------------

void write_circuit( byte_writer& w, const reversible_circuit& circuit )
{
  w.u32( circuit.num_lines() );
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    const auto& info = circuit.line( l );
    w.str( info.name );
    std::uint8_t flags = 0;
    flags |= info.is_primary_input ? 1u : 0u;
    flags |= info.is_constant_input ? 2u : 0u;
    flags |= info.constant_value ? 4u : 0u;
    flags |= info.is_garbage ? 8u : 0u;
    w.u8( flags );
    w.u32( static_cast<std::uint32_t>( info.output_index ) );
  }
  w.u32( static_cast<std::uint32_t>( circuit.num_gates() ) );
  for ( const auto gate : circuit.gates() )
  {
    w.u32( gate.target );
    w.u32( static_cast<std::uint32_t>( gate.controls.size() ) );
    for ( const auto& c : gate.controls )
    {
      w.u32( c.line );
      w.u8( c.positive ? 1u : 0u );
    }
  }
}

reversible_circuit read_circuit( byte_reader& r )
{
  // A line record takes at least 9 bytes (an empty name) and a gate at
  // least 8 (no controls), so the bytes left bound both counts.
  const auto num_lines = r.u32();
  if ( num_lines > r.remaining() / 9u )
  {
    throw deserialize_error( "circuit: impossible line count" );
  }
  reversible_circuit circuit( num_lines );
  std::vector<bool> output_taken( num_lines, false );
  for ( unsigned l = 0; l < num_lines; ++l )
  {
    auto& info = circuit.line( l );
    info.name = r.str();
    const auto flags = r.u8();
    info.is_primary_input = ( flags & 1u ) != 0u;
    info.is_constant_input = ( flags & 2u ) != 0u;
    info.constant_value = ( flags & 4u ) != 0u;
    info.is_garbage = ( flags & 8u ) != 0u;
    // At most one output per line, each index once: an index is -1 or
    // below num_lines, which also bounds what `output_lines_of` allocates.
    const auto output_index = r.u32();
    if ( output_index != 0xffffffffu )
    {
      if ( output_index >= num_lines )
      {
        throw deserialize_error( "circuit: output index outside the line range" );
      }
      if ( output_taken[output_index] )
      {
        throw deserialize_error( "circuit: output index on two lines" );
      }
      output_taken[output_index] = true;
    }
    info.output_index = static_cast<int>( output_index );
  }
  const auto num_gates = r.u32();
  if ( num_gates > r.remaining() / 8u )
  {
    throw deserialize_error( "circuit: impossible gate count" );
  }
  // Each control adds 5 bytes; the presize is exact when, as in every
  // record, the circuit comes last.
  circuit.reserve( num_gates, ( r.remaining() - 8u * std::size_t{ num_gates } ) / 5u );
  std::vector<control> controls;
  for ( std::uint32_t g = 0; g < num_gates; ++g )
  {
    const auto target = r.u32();
    if ( target >= num_lines )
    {
      throw deserialize_error( "circuit: gate target outside the line range" );
    }
    const auto num_controls = r.u32();
    if ( num_controls > num_lines )
    {
      throw deserialize_error( "circuit: more controls than lines" );
    }
    controls.clear();
    for ( std::uint32_t c = 0; c < num_controls; ++c )
    {
      const auto line = r.u32();
      const bool positive = r.u8() != 0u;
      if ( line >= num_lines )
      {
        throw deserialize_error( "circuit: control outside the line range" );
      }
      // x_t ^= x_t AND ... is not a bijection: no reversible gate has it.
      if ( line == target )
      {
        throw deserialize_error( "circuit: control on the gate's own target" );
      }
      controls.push_back( { line, positive } );
    }
    circuit.add_gate( controls, target );
  }
  return circuit;
}

// --- one-shot wrappers -------------------------------------------------------

namespace
{

template<typename WriteFn>
std::vector<std::uint8_t> serialize_with( WriteFn&& write )
{
  byte_writer w;
  write( w );
  return w.take();
}

template<typename ReadFn>
auto deserialize_with( const std::vector<std::uint8_t>& bytes, ReadFn&& read )
{
  byte_reader r( bytes );
  auto value = read( r );
  r.expect_end();
  return value;
}

} // namespace

std::vector<std::uint8_t> serialize_aig( const aig_network& aig )
{
  return serialize_with( [&]( byte_writer& w ) { write_aig( w, aig ); } );
}

aig_network deserialize_aig( const std::vector<std::uint8_t>& bytes )
{
  return deserialize_with( bytes, []( byte_reader& r ) { return read_aig( r ); } );
}

std::vector<std::uint8_t> serialize_esop( const esop& expression )
{
  return serialize_with( [&]( byte_writer& w ) { write_esop( w, expression ); } );
}

esop deserialize_esop( const std::vector<std::uint8_t>& bytes )
{
  return deserialize_with( bytes, []( byte_reader& r ) { return read_esop( r ); } );
}

std::vector<std::uint8_t> serialize_xmg( const xmg_network& graph )
{
  return serialize_with( [&]( byte_writer& w ) { write_xmg( w, graph ); } );
}

xmg_network deserialize_xmg( const std::vector<std::uint8_t>& bytes )
{
  return deserialize_with( bytes, []( byte_reader& r ) { return read_xmg( r ); } );
}

std::vector<std::uint8_t> serialize_circuit( const reversible_circuit& circuit )
{
  return serialize_with( [&]( byte_writer& w ) { write_circuit( w, circuit ); } );
}

reversible_circuit deserialize_circuit( const std::vector<std::uint8_t>& bytes )
{
  return deserialize_with( bytes, []( byte_reader& r ) { return read_circuit( r ); } );
}

} // namespace qsyn::store
