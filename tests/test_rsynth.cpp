#include <gtest/gtest.h>

#include <random>

#include "rsynth/esop_synth.hpp"
#include "rsynth/hierarchical.hpp"
#include "reversible/cost.hpp"
#include "reversible/verify.hpp"
#include "synth/esop_extract.hpp"
#include "synth/xmg_resynth.hpp"
#include "verilog/elaborator.hpp"
#include "verilog/generators.hpp"

using namespace qsyn;

namespace
{

truth_table random_tt( unsigned n, std::uint64_t seed )
{
  std::mt19937_64 rng( seed );
  auto tt = truth_table::from_function( n, [&]( std::uint64_t ) { return rng() & 1u; } );
  return tt;
}

esop random_esop( unsigned n, unsigned m, std::uint64_t seed )
{
  esop e;
  e.num_inputs = n;
  e.num_outputs = m;
  for ( unsigned o = 0; o < m; ++o )
  {
    const auto cubes = esop_from_truth_table( random_tt( n, seed + o * 1000u ) );
    for ( const auto& c : cubes )
    {
      e.terms.push_back( { c, std::uint64_t{ 1 } << o } );
    }
  }
  e.merge_identical_cubes();
  return e;
}

bool circuit_matches_esop( const reversible_circuit& circuit, const esop& e )
{
  std::vector<truth_table> tts;
  for ( unsigned o = 0; o < e.num_outputs; ++o )
  {
    tts.push_back( e.output_truth_table( o ) );
  }
  return verify_against_truth_tables( circuit, tts );
}

} // namespace

/// --- ESOP-based synthesis ----------------------------------------------------

TEST( esop_synth, single_output_basic )
{
  esop e;
  e.num_inputs = 3;
  e.num_outputs = 1;
  cube c1;
  c1.add_literal( 0, true );
  c1.add_literal( 1, false );
  e.terms.push_back( { c1, 1u } );
  e.terms.push_back( { cube{}, 1u } ); // constant-1 term
  const auto circuit = esop_synthesize( e );
  EXPECT_EQ( circuit.num_lines(), 4u );
  EXPECT_TRUE( circuit_matches_esop( circuit, e ) );
}

TEST( esop_synth, uses_exactly_n_plus_m_lines_at_p0 )
{
  const auto e = random_esop( 5, 4, 11 );
  const auto circuit = esop_synthesize( e );
  EXPECT_EQ( circuit.num_lines(), 9u );
  EXPECT_TRUE( circuit_matches_esop( circuit, e ) );
}

TEST( esop_synth, shared_cubes_copied_with_cnots )
{
  esop e;
  e.num_inputs = 2;
  e.num_outputs = 3;
  cube c;
  c.add_literal( 0, true );
  c.add_literal( 1, true );
  e.terms.push_back( { c, 0b111u } ); // one cube feeding all three outputs
  const auto circuit = esop_synthesize( e );
  EXPECT_TRUE( circuit_matches_esop( circuit, e ) );
  // One Toffoli + two CNOT copies is the expected sharing pattern.
  EXPECT_EQ( circuit.num_toffoli_gates(), 1u );
}

class esop_synth_random : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P( esop_synth_random, all_p_values_verify )
{
  const auto [n, m] = GetParam();
  for ( std::uint64_t seed = 1; seed <= 4; ++seed )
  {
    const auto e = random_esop( n, m, seed * 7919u );
    for ( const unsigned p : { 0u, 1u, 2u, 3u } )
    {
      esop_synth_params params;
      params.p = p;
      esop_synth_stats stats;
      const auto circuit = esop_synthesize( e, params, &stats );
      EXPECT_TRUE( circuit_matches_esop( circuit, e ) )
          << "n=" << n << " m=" << m << " p=" << p << " seed=" << seed;
      EXPECT_EQ( circuit.num_lines(), n + m + stats.ancilla_lines );
    }
  }
}

INSTANTIATE_TEST_SUITE_P( sweep, esop_synth_random,
                          ::testing::Combine( ::testing::Values( 3u, 4u, 5u ),
                                              ::testing::Values( 1u, 2u, 3u ) ) );

TEST( esop_synth, ancillas_return_to_zero )
{
  const auto e = random_esop( 4, 2, 23 );
  esop_synth_params params;
  params.p = 2;
  esop_synth_stats stats;
  const auto circuit = esop_synthesize( e, params, &stats );
  if ( stats.ancilla_lines == 0u )
  {
    GTEST_SKIP() << "no factor extracted on this instance";
  }
  for ( std::uint64_t x = 0; x < 16u; ++x )
  {
    std::vector<bool> state( circuit.num_lines(), false );
    for ( unsigned b = 0; b < 4; ++b )
    {
      state[b] = ( x >> b ) & 1u;
    }
    circuit.apply( state );
    for ( unsigned a = 6; a < circuit.num_lines(); ++a )
    {
      EXPECT_FALSE( state[a] ) << "ancilla " << a << " dirty for x=" << x;
    }
  }
}

TEST( esop_synth, factoring_reduces_control_counts )
{
  // Many cubes sharing the pair (x0, x1): p=1 should reduce the summed
  // control count (and typically the T-count).
  esop e;
  e.num_inputs = 9;
  e.num_outputs = 1;
  for ( unsigned extra = 2; extra < 9; ++extra )
  {
    cube c;
    c.add_literal( 0, true );
    c.add_literal( 1, true );
    c.add_literal( extra, true );
    e.terms.push_back( { c, 1u } );
  }
  const auto c0 = esop_synthesize( e, { 0, 2 } );
  const auto c1 = esop_synthesize( e, { 1, 2 } );
  EXPECT_TRUE( circuit_matches_esop( c0, e ) );
  EXPECT_TRUE( circuit_matches_esop( c1, e ) );
  const auto controls_of = []( const reversible_circuit& c ) {
    std::size_t total = 0;
    for ( const auto& g : c.gates() )
    {
      total += g.num_controls();
    }
    return total;
  };
  EXPECT_LT( controls_of( c1 ), controls_of( c0 ) );
}

TEST( esop_synth, intdiv_end_to_end )
{
  const auto mod = verilog::elaborate_verilog( verilog::generate_intdiv( 4 ) );
  const auto e = esop_from_aig( mod.aig );
  const auto circuit = esop_synthesize( e );
  EXPECT_EQ( circuit.num_lines(), 8u ); // 2n, the Table III p=0 column
  EXPECT_FALSE( verify_against_aig_sampled( circuit, mod.aig ).has_value() );
}

/// --- hierarchical synthesis ---------------------------------------------------

namespace
{

xmg_network random_xmg( unsigned num_pis, unsigned num_gates, std::uint64_t seed )
{
  std::mt19937_64 rng( seed );
  xmg_network xmg( num_pis );
  std::vector<xmg_lit> pool;
  for ( unsigned i = 0; i < num_pis; ++i )
  {
    pool.push_back( xmg.pi( i ) );
  }
  for ( unsigned g = 0; g < num_gates; ++g )
  {
    const auto pick = [&]() { return pool[rng() % pool.size()] ^ static_cast<xmg_lit>( rng() & 1u ); };
    if ( rng() & 1u )
    {
      pool.push_back( xmg.create_maj( pick(), pick(), pick() ) );
    }
    else
    {
      pool.push_back( xmg.create_xor( pick(), pick() ) );
    }
  }
  xmg.add_po( pool.back() );
  xmg.add_po( pool[pool.size() / 2u] ^ 1u );
  return xmg;
}

bool hierarchical_matches( const xmg_network& xmg, cleanup_strategy cleanup )
{
  hierarchical_params params;
  params.cleanup = cleanup;
  const auto circuit = hierarchical_synthesize( xmg, params );
  const auto tts = xmg.simulate_outputs();
  return verify_against_truth_tables( circuit, tts );
}

} // namespace

TEST( hierarchical, single_and_gate )
{
  xmg_network xmg( 2 );
  xmg.add_po( xmg.create_and( xmg.pi( 0 ), xmg.pi( 1 ) ) );
  const auto circuit = hierarchical_synthesize( xmg );
  EXPECT_TRUE( verify_against_truth_tables( circuit, xmg.simulate_outputs() ) );
  EXPECT_EQ( circuit.num_toffoli_gates(), 1u );
}

TEST( hierarchical, or_gate_with_complements )
{
  xmg_network xmg( 2 );
  xmg.add_po( xmg.create_or( xmg.pi( 0 ) ^ 1u, xmg.pi( 1 ) ) );
  const auto circuit = hierarchical_synthesize( xmg );
  EXPECT_TRUE( verify_against_truth_tables( circuit, xmg.simulate_outputs() ) );
}

TEST( hierarchical, xor_costs_no_toffoli )
{
  xmg_network xmg( 3 );
  xmg.add_po( xmg.create_xor( xmg.create_xor( xmg.pi( 0 ), xmg.pi( 1 ) ), xmg.pi( 2 ) ) );
  const auto circuit = hierarchical_synthesize( xmg );
  EXPECT_TRUE( verify_against_truth_tables( circuit, xmg.simulate_outputs() ) );
  EXPECT_EQ( circuit.num_toffoli_gates(), 0u );
  EXPECT_EQ( circuit_t_count( circuit ), 0u );
}

TEST( hierarchical, general_maj_uses_single_toffoli )
{
  xmg_network xmg( 3 );
  xmg.add_po( xmg.create_maj( xmg.pi( 0 ), xmg.pi( 1 ), xmg.pi( 2 ) ) );
  const auto circuit = hierarchical_synthesize( xmg );
  EXPECT_TRUE( verify_against_truth_tables( circuit, xmg.simulate_outputs() ) );
  EXPECT_EQ( circuit.num_toffoli_gates(), 1u ); // the paper's key property
}

TEST( hierarchical, maj_with_complemented_operands )
{
  for ( unsigned mask = 0; mask < 8; ++mask )
  {
    xmg_network xmg( 3 );
    xmg.add_po( xmg.create_maj( xmg.pi( 0 ) ^ ( mask & 1u ), xmg.pi( 1 ) ^ ( ( mask >> 1 ) & 1u ),
                                xmg.pi( 2 ) ^ ( ( mask >> 2 ) & 1u ) ) );
    const auto circuit = hierarchical_synthesize( xmg );
    EXPECT_TRUE( verify_against_truth_tables( circuit, xmg.simulate_outputs() ) )
        << "mask=" << mask;
  }
}

class hierarchical_random
    : public ::testing::TestWithParam<std::tuple<unsigned, cleanup_strategy>>
{
};

TEST_P( hierarchical_random, verifies_on_random_xmgs )
{
  const auto [seed, cleanup] = GetParam();
  const auto xmg = random_xmg( 5, 25, seed * 101u );
  EXPECT_TRUE( hierarchical_matches( xmg, cleanup ) );
}

INSTANTIATE_TEST_SUITE_P(
    sweep, hierarchical_random,
    ::testing::Combine( ::testing::Range( 1u, 9u ),
                        ::testing::Values( cleanup_strategy::keep_garbage,
                                           cleanup_strategy::bennett ) ) );

TEST( hierarchical, bennett_restores_ancillae )
{
  const auto xmg = random_xmg( 4, 15, 55 );
  hierarchical_params params;
  params.cleanup = cleanup_strategy::bennett;
  const auto circuit = hierarchical_synthesize( xmg, params );
  for ( std::uint64_t x = 0; x < 16u; ++x )
  {
    std::vector<bool> state( circuit.num_lines(), false );
    for ( unsigned b = 0; b < 4; ++b )
    {
      state[b] = ( x >> b ) & 1u;
    }
    circuit.apply( state );
    for ( unsigned l = 4; l < circuit.num_lines(); ++l )
    {
      if ( circuit.line( l ).output_index < 0 )
      {
        EXPECT_FALSE( state[l] ) << "ancilla " << l << " dirty for x=" << x;
      }
    }
  }
}

TEST( hierarchical, bennett_doubles_t_count )
{
  const auto xmg = random_xmg( 5, 30, 77 );
  hierarchical_params garbage;
  garbage.cleanup = cleanup_strategy::keep_garbage;
  hierarchical_params bennett;
  bennett.cleanup = cleanup_strategy::bennett;
  const auto tg = circuit_t_count( hierarchical_synthesize( xmg, garbage ) );
  const auto tb = circuit_t_count( hierarchical_synthesize( xmg, bennett ) );
  EXPECT_GE( tb, 2u * tg ); // uncompute at least doubles the Toffolis
  EXPECT_LE( tb, 2u * tg + 14u );
}

TEST( hierarchical, intdiv_via_xmg_end_to_end )
{
  const auto mod = verilog::elaborate_verilog( verilog::generate_intdiv( 4 ) );
  const auto xmg = xmg_from_aig( mod.aig );
  for ( const auto cleanup : { cleanup_strategy::keep_garbage, cleanup_strategy::bennett } )
  {
    hierarchical_params params;
    params.cleanup = cleanup;
    const auto circuit = hierarchical_synthesize( xmg, params );
    EXPECT_FALSE( verify_against_aig_sampled( circuit, mod.aig ).has_value() );
  }
}

TEST( hierarchical, output_complement_handled )
{
  xmg_network xmg( 2 );
  xmg.add_po( xmg.create_and( xmg.pi( 0 ), xmg.pi( 1 ) ) ^ 1u ); // NAND
  const auto circuit = hierarchical_synthesize( xmg );
  EXPECT_TRUE( verify_against_truth_tables( circuit, xmg.simulate_outputs() ) );
}

TEST( hierarchical, constant_output )
{
  xmg_network xmg( 1 );
  xmg.add_po( xmg_network::const1 );
  xmg.add_po( xmg.pi( 0 ) );
  const auto circuit = hierarchical_synthesize( xmg );
  EXPECT_TRUE( verify_against_truth_tables( circuit, xmg.simulate_outputs() ) );
}
