/// Persistent artifact store: serialization round trips, corruption
/// tolerance, concurrency, cross-process reuse, and the cache's disk tier
/// (including the ESOP budget-upgrade path).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/content_hash.hpp"
#include "core/dse.hpp"
#include "core/flows.hpp"
#include "reversible/cost.hpp"
#include "reversible/verify.hpp"
#include "rsynth/esop_synth.hpp"
#include "rsynth/hierarchical.hpp"
#include "store/artifact_store.hpp"
#include "store/daemon.hpp"
#include "store/serialize.hpp"
#include "synth/aig_optimize.hpp"
#include "synth/esop_extract.hpp"
#include "synth/exorcism.hpp"
#include "synth/lut_map.hpp"
#include "synth/xmg_resynth.hpp"
#include "verilog/elaborator.hpp"

using namespace qsyn;

namespace
{

/// Self-deleting store root.
struct temp_dir
{
  std::string path;
  temp_dir()
  {
    char pattern[] = "/tmp/qsyn-store-test-XXXXXX";
    path = ::mkdtemp( pattern );
  }
  ~temp_dir()
  {
    std::error_code ec;
    std::filesystem::remove_all( path, ec );
  }
};

/// A deadline that has already expired: one nanosecond, spun out.
deadline expired_deadline()
{
  const auto d = deadline::in( 1e-9 );
  while ( !d.expired() )
  {
  }
  return d;
}

aig_network elaborated_intdiv( unsigned n )
{
  return verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, n ) ).aig;
}

esop sample_esop()
{
  esop e;
  e.num_inputs = 5;
  e.num_outputs = 3;
  for ( std::uint64_t i = 0; i < 6; ++i )
  {
    esop_term term;
    term.product.mask = ( i * 7u + 1u ) & 0x1fu;
    term.product.polarity = term.product.mask & ( i + 3u );
    term.output_mask = ( i % 7u ) & 0x7u;
    e.terms.push_back( term );
  }
  return e;
}

} // namespace

// --- serialization round trips -----------------------------------------------

TEST( store_serialize, aig_round_trip_is_node_identical )
{
  const auto aig = elaborated_intdiv( 5 );
  const auto restored = store::deserialize_aig( store::serialize_aig( aig ) );
  EXPECT_EQ( restored.num_pis(), aig.num_pis() );
  EXPECT_EQ( restored.num_pos(), aig.num_pos() );
  EXPECT_EQ( restored.num_nodes(), aig.num_nodes() );
  EXPECT_EQ( restored.content_hash(), aig.content_hash() );
  // Strash stays live after raw reconstruction: re-creating an existing
  // AND must hash-cons, not append.
  auto mutated = restored;
  const auto nodes_before = mutated.num_nodes();
  mutated.create_and( mutated.fanin0( static_cast<std::uint32_t>( nodes_before ) - 1u ),
                      mutated.fanin1( static_cast<std::uint32_t>( nodes_before ) - 1u ) );
  EXPECT_EQ( mutated.num_nodes(), nodes_before );
}

TEST( store_serialize, esop_round_trip )
{
  const auto e = sample_esop();
  const auto restored = store::deserialize_esop( store::serialize_esop( e ) );
  EXPECT_EQ( restored.num_inputs, e.num_inputs );
  EXPECT_EQ( restored.num_outputs, e.num_outputs );
  ASSERT_EQ( restored.terms.size(), e.terms.size() );
  for ( std::size_t i = 0; i < e.terms.size(); ++i )
  {
    EXPECT_TRUE( restored.terms[i] == e.terms[i] ) << "term " << i;
  }
}

TEST( store_serialize, xmg_round_trip_is_node_identical )
{
  xmg_network g( 3 );
  const auto m = g.create_maj( g.pi( 0 ), g.pi( 1 ), g.pi( 2 ) );
  const auto x = g.create_xor( m, g.pi( 0 ) );
  g.add_po( g.create_maj( m, x, xmg_network::const1 ) );
  g.add_po( x ^ 1u );

  const auto restored = store::deserialize_xmg( store::serialize_xmg( g ) );
  ASSERT_EQ( restored.num_nodes(), g.num_nodes() );
  EXPECT_EQ( restored.num_maj(), g.num_maj() );
  EXPECT_EQ( restored.num_xor(), g.num_xor() );
  ASSERT_EQ( restored.pos().size(), g.pos().size() );
  EXPECT_EQ( restored.pos(), g.pos() );
  for ( std::uint32_t n = g.num_pis() + 1u; n < g.num_nodes(); ++n )
  {
    EXPECT_EQ( restored.kind( n ), g.kind( n ) ) << "node " << n;
    EXPECT_EQ( restored.fanins( n ), g.fanins( n ) ) << "node " << n;
  }
}

TEST( store_serialize, circuit_round_trip_preserves_gates_and_costs )
{
  flow_params params;
  params.kind = flow_kind::esop_based;
  params.esop_p = 1;
  const auto result = run_reciprocal_flow( reciprocal_design::intdiv, 4, params );
  const auto& circuit = result.circuit;

  const auto restored = store::deserialize_circuit( store::serialize_circuit( circuit ) );
  ASSERT_EQ( restored.num_lines(), circuit.num_lines() );
  ASSERT_EQ( restored.num_gates(), circuit.num_gates() );
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    const auto& a = restored.line( l );
    const auto& b = circuit.line( l );
    EXPECT_EQ( a.name, b.name );
    EXPECT_EQ( a.is_primary_input, b.is_primary_input );
    EXPECT_EQ( a.is_constant_input, b.is_constant_input );
    EXPECT_EQ( a.constant_value, b.constant_value );
    EXPECT_EQ( a.is_garbage, b.is_garbage );
    EXPECT_EQ( a.output_index, b.output_index );
  }
  for ( std::size_t g = 0; g < circuit.num_gates(); ++g )
  {
    const auto& a = restored.gates()[g];
    const auto& b = circuit.gates()[g];
    EXPECT_EQ( a.target, b.target );
    ASSERT_EQ( a.controls.size(), b.controls.size() );
    for ( std::size_t c = 0; c < b.controls.size(); ++c )
    {
      EXPECT_EQ( a.controls[c].line, b.controls[c].line );
      EXPECT_EQ( a.controls[c].positive, b.controls[c].positive );
    }
  }
  const auto costs = report_costs( restored );
  EXPECT_EQ( costs.qubits, result.costs.qubits );
  EXPECT_EQ( costs.t_count, result.costs.t_count );
  EXPECT_EQ( costs.depth, result.costs.depth );
}

TEST( store_serialize, circuit_bytes_are_pinned )
{
  // Digests of the stored bytes of flow circuits, the hierarchical ones on
  // the area-flow LUT cover: the in-memory layout may change, the gates
  // and their byte encoding may not.
  struct pin
  {
    const char* what;
    reciprocal_design design;
    unsigned n;
    flow_kind kind;
    cleanup_strategy cleanup;
    unsigned esop_p;
    std::uint64_t digest;
  };
  const pin pins[] = {
      { "NEWTON(8) keep_garbage", reciprocal_design::newton, 8, flow_kind::hierarchical,
        cleanup_strategy::keep_garbage, 0, 0xab0fadba761eca98ull },
      { "NEWTON(8) bennett", reciprocal_design::newton, 8, flow_kind::hierarchical,
        cleanup_strategy::bennett, 0, 0xb8f3c52d63973090ull },
      { "INTDIV(8) esop p=2", reciprocal_design::intdiv, 8, flow_kind::esop_based,
        cleanup_strategy::keep_garbage, 2, 0xb617f1c3352c0987ull },
      { "INTDIV(6) functional", reciprocal_design::intdiv, 6, flow_kind::functional,
        cleanup_strategy::keep_garbage, 0, 0xcc2d2926945b91a2ull },
  };
  for ( const auto& p : pins )
  {
    flow_params params;
    params.kind = p.kind;
    params.cleanup = p.cleanup;
    params.esop_p = p.esop_p;
    params.verify = false;
    const auto bytes =
        store::serialize_circuit( run_reciprocal_flow( p.design, p.n, params ).circuit );
    const auto digest = content_hash_bytes( std::string( bytes.begin(), bytes.end() ) );
    EXPECT_EQ( digest, p.digest ) << p.what << ": 0x" << std::hex << digest;
  }
}

TEST( store_serialize, readers_reject_malformed_payloads )
{
  // Truncation anywhere must throw, never read out of bounds.
  const auto aig_bytes = store::serialize_aig( elaborated_intdiv( 4 ) );
  for ( const std::size_t keep : { std::size_t{ 0 }, std::size_t{ 3 }, std::size_t{ 9 },
                                   aig_bytes.size() - 1u } )
  {
    const std::vector<std::uint8_t> cut( aig_bytes.begin(),
                                         aig_bytes.begin() + static_cast<long>( keep ) );
    EXPECT_THROW( store::deserialize_aig( cut ), store::deserialize_error ) << keep;
  }
  // Trailing garbage is corruption, not silently ignored.
  auto padded = aig_bytes;
  padded.push_back( 0x5a );
  EXPECT_THROW( store::deserialize_aig( padded ), store::deserialize_error );

  // AIG whose node references a future node.
  store::byte_writer w;
  w.u32( 1 );  // pis
  w.u32( 3 );  // nodes: const, pi, one and
  w.u32( 2 );  // fanin0 = pi 1
  w.u32( 90 ); // fanin1 = node 45: out of range
  w.u32( 0 );  // pos
  EXPECT_THROW( store::deserialize_aig( w.take() ), store::deserialize_error );

  // ESOP term with bits outside the declared variable range.
  store::byte_writer we;
  we.u32( 2 ); // inputs
  we.u32( 1 ); // outputs
  we.u32( 1 ); // terms
  we.u64( 0xff ); // mask beyond 2 variables
  we.u64( 0x1 );
  we.u64( 0x1 );
  EXPECT_THROW( store::deserialize_esop( we.take() ), store::deserialize_error );

  // 12-byte graph headers.  0xffffffff PIs once wrapped `1 + num_pis` to
  // 0, passed the node-count check and built a network without its
  // constant node (the XMG constructor then wrote past it); 2^30 - 1 PIs
  // with 2^30 nodes once allocated gigabytes and threw std::bad_alloc,
  // which the artifact cache does not treat as a corrupt entry.
  for ( const auto& [num_pis, num_nodes] : { std::pair{ 0xffffffffu, 0u },
                                             std::pair{ ( 1u << 30 ) - 1u, 1u << 30 },
                                             std::pair{ 1u << 24, 1u << 30 } } )
  {
    store::byte_writer header;
    header.u32( num_pis );
    header.u32( num_nodes );
    header.u32( 0 ); // pos
    const auto bytes = header.take();
    EXPECT_THROW( store::deserialize_aig( bytes ), store::deserialize_error ) << num_pis;
    EXPECT_THROW( store::deserialize_xmg( bytes ), store::deserialize_error ) << num_pis;
  }

  // A 2-PI XMG of one node with the given kind and fanins, as its output.
  const auto one_node_xmg = []( std::uint8_t kind, std::array<std::uint32_t, 3> fanin ) {
    store::byte_writer wx;
    wx.u32( 2 ); // pis
    wx.u32( 4 ); // nodes: const, two pis, one gate
    wx.u8( kind );
    for ( const auto f : fanin )
    {
      wx.u32( f );
    }
    wx.u32( 1 ); // pos
    wx.u32( 6 );
    return wx.take();
  };
  // Forms the builder never stores: hierarchical synthesis mapped a
  // constant fanin that is not a MAJ's first to line 0xffffffff.
  for ( const auto& [kind, fanin] : {
            std::pair{ std::uint8_t{ 0 }, std::array<std::uint32_t, 3>{ 2, 4, 0 } }, // const last
            std::pair{ std::uint8_t{ 0 }, std::array<std::uint32_t, 3>{ 0, 2, 3 } }, // node twice
            std::pair{ std::uint8_t{ 1 }, std::array<std::uint32_t, 3>{ 0, 2, 0 } }, // const fanin
            std::pair{ std::uint8_t{ 1 }, std::array<std::uint32_t, 3>{ 3, 4, 0 } }, // complement
            std::pair{ std::uint8_t{ 1 }, std::array<std::uint32_t, 3>{ 4, 2, 0 } }, // order
            std::pair{ std::uint8_t{ 1 }, std::array<std::uint32_t, 3>{ 2, 4, 2 } } } ) // third
  {
    EXPECT_THROW( store::deserialize_xmg( one_node_xmg( kind, fanin ) ), store::deserialize_error )
        << int{ kind } << ": " << fanin[0] << " " << fanin[1] << " " << fanin[2];
  }
  // The forms create_maj / create_xor store still load.
  EXPECT_EQ( store::deserialize_xmg( one_node_xmg( 0, { 1, 2, 4 } ) ).num_maj(), 1u );
  EXPECT_EQ( store::deserialize_xmg( one_node_xmg( 1, { 2, 4, 0 } ) ).num_xor(), 1u );
}

TEST( store_serialize, circuit_gate_on_its_own_target_is_corrupt )
{
  // x1 ^= x0 AND x1 is not a bijection, so no reversible circuit holds it:
  // bytes that say so are corrupt, even with every line in range.
  const auto bytes = []( std::uint32_t second_control ) {
    store::byte_writer w;
    w.u32( 2 ); // lines
    for ( const char* name : { "a", "b" } )
    {
      w.str( name );
      w.u8( 1 );  // primary input
      w.u32( static_cast<std::uint32_t>( -1 ) ); // no output
    }
    w.u32( 1 ); // gates
    w.u32( 1 ); // target
    w.u32( 2 ); // controls
    w.u32( 0 );
    w.u8( 1 );
    w.u32( second_control );
    w.u8( 0 );
    return w.take();
  };
  EXPECT_THROW( store::deserialize_circuit( bytes( 1 ) ), store::deserialize_error );
  // The same bytes with a repeated control line are a valid gate.
  const auto valid = store::deserialize_circuit( bytes( 0 ) );
  ASSERT_EQ( valid.num_gates(), 1u );
  EXPECT_EQ( valid.gate( 0 ).target, 1u );
  EXPECT_EQ( valid.gate( 0 ).num_controls(), 2u );
}

TEST( store_serialize, circuit_output_indices_are_checked )
{
  // Two input lines with the given output indices (-1 = none), no gates.
  const auto bytes = []( std::uint32_t out0, std::uint32_t out1 ) {
    store::byte_writer w;
    w.u32( 2 ); // lines
    for ( const auto [name, index] : { std::pair{ "a", out0 }, std::pair{ "b", out1 } } )
    {
      w.str( name );
      w.u8( 1 ); // primary input
      w.u32( index );
    }
    w.u32( 0 ); // gates
    return w.take();
  };
  const auto none = static_cast<std::uint32_t>( -1 );
  // An index past the lines: 0x7fffffff once made every later output
  // lookup allocate 2^31 entries.
  EXPECT_THROW( store::deserialize_circuit( bytes( 0x7fffffffu, none ) ), store::deserialize_error );
  EXPECT_THROW( store::deserialize_circuit( bytes( none, 2 ) ), store::deserialize_error );
  EXPECT_THROW( store::deserialize_circuit( bytes( none, none - 1u ) ), store::deserialize_error );
  // One index on two lines.
  EXPECT_THROW( store::deserialize_circuit( bytes( 0, 0 ) ), store::deserialize_error );
  // Outputs in any line order, or none at all, are valid.
  const auto swapped = store::deserialize_circuit( bytes( 1, 0 ) );
  EXPECT_EQ( swapped.line( 0 ).output_index, 1 );
  EXPECT_EQ( swapped.line( 1 ).output_index, 0 );
  const auto no_outputs = store::deserialize_circuit( bytes( none, none ) );
  EXPECT_EQ( no_outputs.line( 0 ).output_index, -1 );
  EXPECT_EQ( no_outputs.line( 1 ).output_index, -1 );
}

TEST( store_serialize, circuit_line_count_is_bounded_by_its_bytes_only )
{
  // Hierarchical synthesis of a 10^6-node chain yields over 2^20 lines;
  // the store must read back what it writes.
  const std::uint32_t wide = ( 1u << 20 ) + 1u;
  reversible_circuit circuit( wide );
  circuit.add_toffoli( 0, wide / 2u, wide - 1u );
  circuit.add_cnot( wide - 1u, 1 );
  const auto restored = store::deserialize_circuit( store::serialize_circuit( circuit ) );
  ASSERT_EQ( restored.num_lines(), wide );
  ASSERT_EQ( restored.num_gates(), 2u );
  EXPECT_EQ( restored.gate( 0 ).target, wide - 1u );
  EXPECT_EQ( restored.gate( 0 ).controls[1].line, wide / 2u );
  EXPECT_EQ( restored.gate( 1 ).controls[0].line, wide - 1u );

  // A header claiming more lines (or gates) than the bytes can hold is
  // corrupt.
  store::byte_writer lines;
  lines.u32( 1000 ); // lines, each at least 9 bytes
  lines.u32( 0 );    // gates
  EXPECT_THROW( store::deserialize_circuit( lines.take() ), store::deserialize_error );
  store::byte_writer gates;
  gates.u32( 1 ); // lines
  gates.str( "a" );
  gates.u8( 1 );
  gates.u32( static_cast<std::uint32_t>( -1 ) );
  gates.u32( 1000 ); // gates, each at least 8 bytes
  gates.u32( 0 );
  EXPECT_THROW( store::deserialize_circuit( gates.take() ), store::deserialize_error );
}

// --- seeded mutation fuzzing of the decoders ---------------------------------
//
// Store entries and request lines are untrusted bytes.  Each input below
// (NEWTON(5)'s artifacts, one request line) is mutated a few thousand times
// from a fixed seed.  Every mutant must be rejected by its decoder, or
// decode into a value that the next pipeline stage processes.
// scripts/run_bench.sh runs this suite under ASan and UBSan too, where a
// wild read or line index fails loudly.

namespace
{

constexpr unsigned mutants_per_input = 2000;

/// One seeded mutation of a non-empty input: bit flips, byte overwrites,
/// a truncation, an insertion, a run of 0xff bytes, or a boundary value
/// written as a little-endian 32-bit field (a count or a fanin literal).
std::vector<std::uint8_t> mutate( std::vector<std::uint8_t> bytes, std::mt19937_64& rng )
{
  const auto position = [&]( std::size_t end ) { return static_cast<std::size_t>( rng() % end ); };
  const auto count = 1u + static_cast<unsigned>( rng() % 4u );
  switch ( rng() % 6u )
  {
  case 0:
    for ( unsigned i = 0; i < count; ++i )
    {
      bytes[position( bytes.size() )] ^= static_cast<std::uint8_t>( 1u << ( rng() % 8u ) );
    }
    break;
  case 1:
    for ( unsigned i = 0; i < count; ++i )
    {
      bytes[position( bytes.size() )] = static_cast<std::uint8_t>( rng() );
    }
    break;
  case 2:
    bytes.resize( position( bytes.size() ) );
    break;
  case 3:
  {
    const auto at = bytes.begin() + static_cast<long>( position( bytes.size() + 1u ) );
    bytes.insert( at, count, static_cast<std::uint8_t>( rng() ) );
    break;
  }
  case 4:
  {
    const auto at = position( bytes.size() );
    const auto end = std::min( bytes.size(), at + 2u * count );
    std::fill( bytes.begin() + static_cast<long>( at ), bytes.begin() + static_cast<long>( end ),
               std::uint8_t{ 0xff } );
    break;
  }
  default:
  {
    constexpr std::uint32_t boundary[] = { 0u, 1u, 2u, 3u, 1u << 24, 1u << 30, 0x7fffffffu,
                                           0xffffffffu };
    const auto value = boundary[rng() % std::size( boundary )];
    const auto at = position( bytes.size() );
    for ( unsigned k = 0; k < 4u && at + k < bytes.size(); ++k )
    {
      bytes[at + k] = static_cast<std::uint8_t>( value >> ( 8u * k ) );
    }
    break;
  }
  }
  return bytes;
}

/// Runs `decode` on each mutant of `input`.  A mutant may throw
/// `Rejected`; a decoded value goes to `use`, which must not throw.
/// Returns the number of mutants that decoded, so that a fuzzer which
/// only ever reaches the reject path shows.
template<typename Rejected, typename Decode, typename Use>
unsigned fuzz_decoder( const std::vector<std::uint8_t>& input, std::uint64_t seed, Decode decode,
                       Use use )
{
  std::mt19937_64 rng( seed );
  unsigned decoded = 0;
  for ( unsigned i = 0; i < mutants_per_input; ++i )
  {
    const auto bytes = mutate( input, rng );
    const auto before = decoded;
    try
    {
      auto value = decode( bytes );
      ++decoded;
      use( value );
    }
    catch ( const Rejected& e )
    {
      EXPECT_EQ( decoded, before ) << "mutant " << i << " (seed " << seed
                                   << ") decoded, then a stage threw: " << e.what();
    }
    catch ( const std::exception& e )
    {
      ADD_FAILURE() << "mutant " << i << " (seed " << seed << "): " << e.what();
    }
  }
  return decoded;
}

struct newton5_artifacts
{
  aig_network aig;
  esop expression;
  xmg_network xmg;
  reversible_circuit circuit;
};

newton5_artifacts newton5()
{
  newton5_artifacts a;
  a.aig = optimize(
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::newton, 5 ) ).aig );
  a.expression = esop_from_aig( a.aig );
  exorcism( a.expression );
  a.xmg = xmg_from_luts( lut_map( a.aig ) );
  a.circuit = hierarchical_synthesize( a.xmg );
  return a;
}

} // namespace

TEST( store_fuzz, mutated_aigs_are_rejected_or_synthesize )
{
  const auto decoded = fuzz_decoder<store::deserialize_error>(
      store::serialize_aig( newton5().aig ), 11, store::deserialize_aig,
      []( const aig_network& aig ) {
        report_costs( hierarchical_synthesize( xmg_from_luts( lut_map( optimize( aig ) ) ) ) );
      } );
  EXPECT_GT( decoded, 0u );
}

TEST( store_fuzz, mutated_esops_are_rejected_or_synthesize )
{
  const auto decoded = fuzz_decoder<store::deserialize_error>(
      store::serialize_esop( newton5().expression ), 12, store::deserialize_esop,
      []( const esop& expression ) { report_costs( esop_synthesize( expression ) ); } );
  EXPECT_GT( decoded, 0u );
}

TEST( store_fuzz, mutated_xmgs_are_rejected_or_synthesize )
{
  const auto decoded = fuzz_decoder<store::deserialize_error>(
      store::serialize_xmg( newton5().xmg ), 13, store::deserialize_xmg,
      []( const xmg_network& xmg ) { report_costs( hierarchical_synthesize( xmg ) ); } );
  EXPECT_GT( decoded, 0u );
}

TEST( store_fuzz, mutated_circuits_are_rejected_or_verify )
{
  const auto spec = newton5().aig;
  unsigned verified = 0;
  const auto decoded = fuzz_decoder<store::deserialize_error>(
      store::serialize_circuit( newton5().circuit ), 14, store::deserialize_circuit,
      [&]( const reversible_circuit& circuit ) {
        report_costs( circuit );
        try
        {
          verify_against_aig_exhaustive( circuit, spec );
          ++verified;
        }
        catch ( const std::invalid_argument& )
        {
          // the mutant's inputs or outputs no longer match the spec's
        }
      } );
  EXPECT_GT( decoded, 0u );
  EXPECT_GT( verified, 0u );
}

TEST( store_fuzz, mutated_request_lines_are_rejected_or_parse )
{
  const std::string line =
      R"({"cmd":"synthesize","design":"newton","bitwidth":5,"flow":"hierarchical","deadline":2.5,"fast":true})";
  const auto decoded = fuzz_decoder<std::runtime_error>(
      std::vector<std::uint8_t>( line.begin(), line.end() ), 15,
      []( const std::vector<std::uint8_t>& bytes ) {
        return store::parse_flat_json( std::string( bytes.begin(), bytes.end() ) );
      },
      []( const std::map<std::string, std::string>& ) {} );
  EXPECT_GT( decoded, 0u );
}

// --- artifact store ----------------------------------------------------------

TEST( artifact_store, save_load_round_trip_and_stats )
{
  temp_dir dir;
  store::artifact_store s( dir.path + "/store" );
  const store::store_key key{ 0x1234abcdu, store::payload_kind::esop, "esop[r=2,exo=1]" };
  const std::vector<std::uint8_t> payload = { 1, 2, 3, 4, 5, 200, 0, 7 };

  EXPECT_FALSE( s.load( key ).has_value() ); // absent: plain miss
  EXPECT_TRUE( s.save( key, payload ) );
  const auto loaded = s.load( key );
  ASSERT_TRUE( loaded.has_value() );
  EXPECT_EQ( *loaded, payload );

  // A different key (same design, other params) does not alias.
  store::store_key other = key;
  other.param_key = "esop[r=3,exo=1]";
  EXPECT_FALSE( s.load( other ).has_value() );

  const auto stats = s.stats();
  EXPECT_EQ( stats.writes, 1u );
  EXPECT_EQ( stats.hits, 1u );
  EXPECT_EQ( stats.misses, 2u );
  EXPECT_EQ( stats.corrupt_entries, 0u );
}

TEST( artifact_store, corrupted_entries_degrade_to_miss )
{
  temp_dir dir;
  store::artifact_store s( dir.path + "/store" );
  const store::store_key key{ 42u, store::payload_kind::aig, "optimize[r=2]" };
  const std::vector<std::uint8_t> payload( 64, 0xab );
  ASSERT_TRUE( s.save( key, payload ) );
  const auto path = s.entry_path( key );

  const auto read_file = [&path] {
    std::ifstream in( path, std::ios::binary );
    return std::vector<char>( ( std::istreambuf_iterator<char>( in ) ),
                              std::istreambuf_iterator<char>() );
  };
  const auto write_file = [&path]( const std::vector<char>& bytes ) {
    std::ofstream out( path, std::ios::binary | std::ios::trunc );
    out.write( bytes.data(), static_cast<std::streamsize>( bytes.size() ) );
  };
  const auto original = read_file();

  // Truncated entry (header cut mid-field).
  write_file( std::vector<char>( original.begin(), original.begin() + 10 ) );
  EXPECT_FALSE( s.load( key ).has_value() );

  // Flipped payload byte fails the checksum.
  auto flipped = original;
  flipped.back() = static_cast<char>( flipped.back() ^ 0x40 );
  write_file( flipped );
  EXPECT_FALSE( s.load( key ).has_value() );

  // Mis-versioned entries (format_version is bytes 4..7, little-endian):
  // the next version, and version 3, whose budget record held four fields.
  static_assert( store::artifact_store::format_version == 4 );
  auto reversioned = original;
  reversioned[4] = static_cast<char>( reversioned[4] + 1 );
  write_file( reversioned );
  EXPECT_FALSE( s.load( key ).has_value() );
  reversioned[4] = 3;
  write_file( reversioned );
  EXPECT_FALSE( s.load( key ).has_value() );

  // Arbitrary garbage.
  write_file( std::vector<char>( 37, 'x' ) );
  EXPECT_FALSE( s.load( key ).has_value() );

  // Empty file.
  write_file( {} );
  EXPECT_FALSE( s.load( key ).has_value() );

  const auto stats = s.stats();
  EXPECT_EQ( stats.corrupt_entries, 6u );

  // The intact entry still loads after restoring it.
  write_file( original );
  const auto loaded = s.load( key );
  ASSERT_TRUE( loaded.has_value() );
  EXPECT_EQ( *loaded, payload );
}

TEST( artifact_store, wrong_kind_or_design_hash_is_a_miss )
{
  temp_dir dir;
  store::artifact_store s( dir.path + "/store" );
  const store::store_key key{ 7u, store::payload_kind::xmg, "xmg[r=2,k=4]" };
  ASSERT_TRUE( s.save( key, { 1, 2, 3 } ) );

  // Copy the entry onto the path of a key with a different kind: the
  // header check must reject it instead of handing xmg bytes to an aig
  // reader.
  store::store_key wrong_kind = key;
  wrong_kind.kind = store::payload_kind::aig;
  std::filesystem::copy_file( s.entry_path( key ), s.entry_path( wrong_kind ) );
  EXPECT_FALSE( s.load( wrong_kind ).has_value() );

  store::store_key wrong_design = key;
  wrong_design.design_hash = 8u;
  std::filesystem::create_directories(
      std::filesystem::path( s.entry_path( wrong_design ) ).parent_path() );
  std::filesystem::copy_file( s.entry_path( key ), s.entry_path( wrong_design ) );
  EXPECT_FALSE( s.load( wrong_design ).has_value() );
  EXPECT_EQ( s.stats().corrupt_entries, 2u );
}

TEST( artifact_store, concurrent_writers_of_one_key_stay_consistent )
{
  temp_dir dir;
  store::artifact_store s( dir.path + "/store" );
  const store::store_key shared_key{ 99u, store::payload_kind::esop, "esop[r=1,exo=1]" };

  constexpr unsigned num_threads = 8;
  constexpr unsigned rounds = 40;
  std::vector<std::thread> threads;
  for ( unsigned t = 0; t < num_threads; ++t )
  {
    threads.emplace_back( [&s, &shared_key, t] {
      // Same-key writers race benignly; per-thread keys must never mix.
      const std::vector<std::uint8_t> shared_payload( 256, 0x77 );
      const store::store_key own_key{ 99u, store::payload_kind::esop,
                                      "esop[r=" + std::to_string( t + 2 ) + ",exo=1]" };
      const std::vector<std::uint8_t> own_payload( 64, static_cast<std::uint8_t>( t ) );
      for ( unsigned i = 0; i < rounds; ++i )
      {
        s.save( shared_key, shared_payload );
        s.save( own_key, own_payload );
        const auto got = s.load( own_key );
        if ( got )
        {
          ASSERT_EQ( *got, own_payload );
        }
        const auto sh = s.load( shared_key );
        if ( sh )
        {
          ASSERT_EQ( *sh, shared_payload );
        }
      }
    } );
  }
  for ( auto& t : threads )
  {
    t.join();
  }
  EXPECT_EQ( s.stats().corrupt_entries, 0u );
  EXPECT_EQ( s.stats().write_failures, 0u );
  // No temp files left behind.
  std::size_t leftovers = 0;
  for ( const auto& entry : std::filesystem::recursive_directory_iterator( dir.path ) )
  {
    if ( entry.is_regular_file() && entry.path().filename().string().rfind( ".tmp-", 0 ) == 0 )
    {
      ++leftovers;
    }
  }
  EXPECT_EQ( leftovers, 0u );
}

TEST( artifact_store, cross_process_round_trip )
{
  temp_dir dir;
  const auto root = dir.path + "/store";
  const store::store_key key{ 0xfeedfaceu, store::payload_kind::circuit, "flow[tbs]" };
  const std::vector<std::uint8_t> payload = { 9, 8, 7, 6, 5, 4, 3, 2, 1, 0 };

  // The writing process: a fork'd child with its own store instance.
  const pid_t pid = fork();
  ASSERT_GE( pid, 0 );
  if ( pid == 0 )
  {
    store::artifact_store writer( root );
    const bool ok = writer.save( key, payload );
    _exit( ok ? 0 : 1 );
  }
  int status = 0;
  ASSERT_EQ( waitpid( pid, &status, 0 ), pid );
  ASSERT_TRUE( WIFEXITED( status ) );
  ASSERT_EQ( WEXITSTATUS( status ), 0 );

  // A fresh store in this process hits what the other process wrote.
  store::artifact_store reader( root );
  const auto loaded = reader.load( key );
  ASSERT_TRUE( loaded.has_value() );
  EXPECT_EQ( *loaded, payload );
  EXPECT_EQ( reader.stats().hits, 1u );
}

// --- the cache's disk tier ---------------------------------------------------

TEST( cache_store_tier, warm_cache_recomputes_nothing_and_is_bit_identical )
{
  temp_dir dir;
  const auto root = dir.path + "/store";
  const auto aig = elaborated_intdiv( 5 );

  flow_params esop_params;
  esop_params.kind = flow_kind::esop_based;
  esop_params.esop_p = 1;
  flow_params hier_params;
  hier_params.kind = flow_kind::hierarchical;
  hier_params.cleanup = cleanup_strategy::bennett;

  // Cold: compute everything, write the store.
  flow_artifact_cache cold;
  cold.attach_store( std::make_shared<store::artifact_store>( root ) );
  const auto cold_esop = run_flow_staged( aig, esop_params, cold );
  const auto cold_hier = run_flow_staged( aig, hier_params, cold );
  const auto cold_stats = cold.stats();
  EXPECT_EQ( cold_stats.misses, 3u ); // optimize, esop, xmg
  EXPECT_EQ( cold_stats.store_hits, 0u );

  // Warm: a fresh cache and a fresh store instance on the same root — the
  // simulated "second process".  Every stage artifact must come from
  // disk; nothing recomputes.
  flow_artifact_cache warm;
  warm.attach_store( std::make_shared<store::artifact_store>( root ) );
  const auto warm_esop = run_flow_staged( aig, esop_params, warm );
  const auto warm_hier = run_flow_staged( aig, hier_params, warm );
  const auto warm_stats = warm.stats();
  EXPECT_EQ( warm_stats.misses, 0u );
  EXPECT_EQ( warm_stats.store_hits, cold_stats.misses );

  // Bit-identical synthesis results.
  EXPECT_EQ( warm_esop.costs.qubits, cold_esop.costs.qubits );
  EXPECT_EQ( warm_esop.costs.t_count, cold_esop.costs.t_count );
  EXPECT_EQ( warm_esop.costs.gates, cold_esop.costs.gates );
  EXPECT_EQ( warm_esop.costs.depth, cold_esop.costs.depth );
  EXPECT_EQ( warm_esop.esop_terms, cold_esop.esop_terms );
  EXPECT_EQ( warm_hier.costs.qubits, cold_hier.costs.qubits );
  EXPECT_EQ( warm_hier.costs.t_count, cold_hier.costs.t_count );
  EXPECT_EQ( warm_hier.costs.gates, cold_hier.costs.gates );
  EXPECT_EQ( warm_hier.xmg_maj, cold_hier.xmg_maj );
  EXPECT_EQ( warm_hier.xmg_xor, cold_hier.xmg_xor );
  EXPECT_TRUE( warm_esop.verified );
  EXPECT_TRUE( warm_hier.verified );
}

TEST( cache_store_tier, corrupt_store_entry_recomputes_silently )
{
  temp_dir dir;
  const auto root = dir.path + "/store";
  const auto aig = elaborated_intdiv( 4 );

  auto disk = std::make_shared<store::artifact_store>( root );
  flow_artifact_cache cold;
  cold.attach_store( disk );
  cold.optimized( aig, 2 );

  // Vandalize the optimized-AIG entry.
  const store::store_key key{ aig.content_hash(), store::payload_kind::aig, "optimize[r=2]" };
  {
    std::ofstream out( disk->entry_path( key ), std::ios::binary | std::ios::trunc );
    out << "not an artifact";
  }

  flow_artifact_cache warm;
  warm.attach_store( std::make_shared<store::artifact_store>( root ) );
  const auto& recomputed = warm.optimized( aig, 2 );
  EXPECT_EQ( warm.stats().misses, 1u ); // corrupt entry degraded to recompute
  EXPECT_EQ( warm.stats().store_hits, 0u );

  // ... and the recomputation repaired the entry on disk.
  flow_artifact_cache repaired;
  repaired.attach_store( std::make_shared<store::artifact_store>( root ) );
  const auto& reloaded = repaired.optimized( aig, 2 );
  EXPECT_EQ( repaired.stats().store_hits, 1u );
  EXPECT_EQ( reloaded.content_hash(), recomputed.content_hash() );
}

TEST( cache_store_tier, budget_exhausted_esop_upgrades_on_later_budget )
{
  const auto aig = elaborated_intdiv( 5 );

  // In-memory upgrade: a finite deadline that expired before EXORCISM
  // started leaves an unminimized cube list; a later unlimited requester
  // re-minimizes instead of reusing it.
  flow_artifact_cache cache;
  const budget tight{ 60.0 };
  const auto& first = cache.esop_intermediate( aig, 2, true, tight, expired_deadline() );
  ASSERT_TRUE( first.budget_exhausted );
  const auto first_terms = first.terms;

  const auto& upgraded = cache.esop_intermediate( aig, 2, true, budget{} );
  EXPECT_FALSE( upgraded.budget_exhausted );
  EXPECT_LE( upgraded.terms, first_terms );
  // The reference handed out before the upgrade is retired, not destroyed.
  EXPECT_EQ( first.terms, first_terms );
  EXPECT_TRUE( first.budget_exhausted );

  // An already-minimized artifact is not re-minimized again (same object).
  const auto& again = cache.esop_intermediate( aig, 2, true, budget{} );
  EXPECT_EQ( &again, &upgraded );

  // An equal budget entitles a requester to nothing more: the repeat is a
  // plain hit on the same object and writes nothing.
  temp_dir dir;
  const auto disk = std::make_shared<store::artifact_store>( dir.path + "/store" );
  flow_artifact_cache equal;
  equal.attach_store( disk );
  const auto& starved = equal.esop_intermediate( aig, 2, true, tight, expired_deadline() );
  ASSERT_TRUE( starved.budget_exhausted );
  const auto writes = disk->stats().writes;
  const auto& repeat = equal.esop_intermediate( aig, 2, true, tight );
  EXPECT_EQ( &repeat, &starved );
  EXPECT_EQ( disk->stats().writes, writes );
  EXPECT_EQ( equal.stats().upgrades, 0u );

  // Out of time under an unlimited budget means cut short by an
  // externally armed deadline alone: served, but neither cached nor saved.
  const auto swept_disk = std::make_shared<store::artifact_store>( dir.path + "/swept" );
  flow_artifact_cache swept;
  swept.attach_store( swept_disk );
  const auto& cut = swept.esop_intermediate( aig, 2, true, budget{}, expired_deadline() );
  ASSERT_TRUE( cut.budget_exhausted );
  EXPECT_FALSE(
      swept_disk->load( { aig.content_hash(), store::payload_kind::esop, "esop[r=2,exo=1]" } ) );
  const auto& full = swept.esop_intermediate( aig, 2, true );
  EXPECT_FALSE( full.budget_exhausted );
  EXPECT_NE( &full, &cut );
  EXPECT_TRUE( cut.budget_exhausted ); // the served value stays valid
  EXPECT_EQ( swept.stats().misses, 3u ); // optimize + both ESOP computations
}

TEST( cache_store_tier, budget_exhausted_store_entry_upgrades_across_processes )
{
  temp_dir dir;
  const auto root = dir.path + "/store";
  const auto aig = elaborated_intdiv( 5 );

  // "Process 1" runs out of time under a finite deadline and persists the
  // exhausted entry.
  {
    flow_artifact_cache cache;
    cache.attach_store( std::make_shared<store::artifact_store>( root ) );
    const auto& art = cache.esop_intermediate( aig, 2, true, budget{ 60.0 }, expired_deadline() );
    ASSERT_TRUE( art.budget_exhausted );
  }

  // "Process 2" warm-starts from the store with budget to spare: the
  // entry is served from disk, upgraded, and written back.
  {
    flow_artifact_cache cache;
    cache.attach_store( std::make_shared<store::artifact_store>( root ) );
    const auto& art = cache.esop_intermediate( aig, 2, true, budget{} );
    EXPECT_FALSE( art.budget_exhausted );
    EXPECT_EQ( cache.stats().store_hits, 1u );
    EXPECT_EQ( cache.stats().misses, 0u );
  }

  // "Process 3" reads the upgraded entry directly.
  {
    flow_artifact_cache cache;
    cache.attach_store( std::make_shared<store::artifact_store>( root ) );
    const auto& art = cache.esop_intermediate( aig, 2, true, budget{} );
    EXPECT_FALSE( art.budget_exhausted );
    EXPECT_EQ( cache.stats().store_hits, 1u );
  }
}

TEST( cache_store_tier, explore_options_store_warm_starts_a_sweep )
{
  temp_dir dir;
  const auto root = dir.path + "/store";

  explore_options options;
  options.num_threads = 2;
  options.verification = verify_mode::sampled;
  options.functional_max_bitwidth = 0; // esop + hierarchical only (disk-backed stages)
  options.store = std::make_shared<store::artifact_store>( root );
  const auto cold = explore_designs( { reciprocal_design::intdiv }, 4, 4, options );
  ASSERT_EQ( cold.size(), 1u );
  EXPECT_GT( cold[0].cache.misses, 0u );
  EXPECT_EQ( cold[0].cache.store_hits, 0u );

  explore_options warm_options = options;
  warm_options.store = std::make_shared<store::artifact_store>( root );
  const auto warm = explore_designs( { reciprocal_design::intdiv }, 4, 4, warm_options );
  ASSERT_EQ( warm.size(), 1u );
  EXPECT_EQ( warm[0].cache.misses, 0u );
  EXPECT_EQ( warm[0].cache.store_hits, cold[0].cache.misses );
  ASSERT_EQ( warm[0].points.size(), cold[0].points.size() );
  for ( std::size_t i = 0; i < cold[0].points.size(); ++i )
  {
    EXPECT_EQ( warm[0].points[i].result.costs.qubits, cold[0].points[i].result.costs.qubits );
    EXPECT_EQ( warm[0].points[i].result.costs.t_count, cold[0].points[i].result.costs.t_count );
    EXPECT_EQ( warm[0].points[i].result.costs.gates, cold[0].points[i].result.costs.gates );
  }
}
