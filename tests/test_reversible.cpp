#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "reversible/circuit.hpp"
#include "reversible/cost.hpp"
#include "reversible/verify.hpp"

using namespace qsyn;

TEST( circuit, not_cnot_toffoli_semantics )
{
  reversible_circuit c( 3 );
  c.add_not( 0 );
  c.add_cnot( 0, 1 );
  c.add_toffoli( 0, 1, 2 );
  std::vector<bool> state = { false, false, false };
  c.apply( state );
  EXPECT_EQ( state, ( std::vector<bool>{ true, true, true } ) );
}

TEST( circuit, negative_controls )
{
  reversible_circuit c( 2 );
  c.add_mct( { { 0, false } }, 1 ); // fires when line 0 is 0
  std::vector<bool> s0 = { false, false };
  c.apply( s0 );
  EXPECT_TRUE( s0[1] );
  std::vector<bool> s1 = { true, false };
  c.apply( s1 );
  EXPECT_FALSE( s1[1] );
}

TEST( circuit, fredkin_is_controlled_swap )
{
  reversible_circuit c( 3 );
  c.add_fredkin( 0, 1, 2 );
  for ( const bool ctrl : { false, true } )
  {
    std::vector<bool> state = { ctrl, true, false };
    c.apply( state );
    if ( ctrl )
    {
      EXPECT_EQ( state, ( std::vector<bool>{ true, false, true } ) );
    }
    else
    {
      EXPECT_EQ( state, ( std::vector<bool>{ false, true, false } ) );
    }
  }
}

TEST( circuit, permutation_of_cnot )
{
  reversible_circuit c( 2 );
  c.add_cnot( 0, 1 );
  const auto perm = c.permutation();
  EXPECT_EQ( perm, ( std::vector<std::uint64_t>{ 0, 3, 2, 1 } ) );
}

TEST( circuit, self_inverse_roundtrip )
{
  reversible_circuit c( 4 );
  c.add_toffoli( 0, 1, 2 );
  c.add_cnot( 2, 3 );
  c.add_mct( { { 0, true }, { 3, false } }, 1 );
  reversible_circuit forward_backward( 4 );
  forward_backward.append( c );
  forward_backward.append_reversed( c );
  const auto perm = forward_backward.permutation();
  for ( std::uint64_t i = 0; i < perm.size(); ++i )
  {
    EXPECT_EQ( perm[i], i );
  }
}

TEST( circuit, append_reversed_window )
{
  reversible_circuit c( 3 );
  c.add_not( 0 );        // gate 0 (outside window)
  c.add_toffoli( 0, 1, 2 );
  c.add_cnot( 0, 1 );
  c.append_reversed_window( 1, 3 );
  // Gates 1..2 then reversed: net effect only the NOT.
  std::vector<bool> state = { false, true, false };
  c.apply( state );
  EXPECT_EQ( state, ( std::vector<bool>{ true, true, false } ) );
}

TEST( circuit, gate_validation )
{
  reversible_circuit c( 3 );
  c.add_cnot( 0, 1 );
  EXPECT_EQ( c.num_gates(), 1u );
  EXPECT_EQ( c.num_toffoli_gates(), 0u );
  c.add_toffoli( 0, 1, 2 ); // fine: target distinct from both controls
  EXPECT_EQ( c.num_gates(), 2u );
  EXPECT_EQ( c.num_toffoli_gates(), 1u );
}

namespace
{

/// Reference gate list: one heap vector of controls per gate.
using reference_gates = std::vector<std::pair<std::vector<control>, std::uint32_t>>;

void expect_same_gates( const reversible_circuit& circuit, const reference_gates& reference )
{
  ASSERT_EQ( circuit.num_gates(), reference.size() );
  std::size_t toffolis = 0;
  std::size_t g = 0;
  for ( const auto gate : circuit.gates() )
  {
    const auto& [controls, target] = reference[g];
    ASSERT_EQ( gate.target, target ) << "gate " << g;
    ASSERT_TRUE( std::equal( gate.controls.begin(), gate.controls.end(), controls.begin(),
                             controls.end() ) )
        << "gate " << g;
    toffolis += controls.size() >= 2u ? 1u : 0u;
    ++g;
  }
  EXPECT_EQ( circuit.num_toffoli_gates(), toffolis );
}

/// A random gate over `num_lines` lines: up to 4 distinct controls of
/// random polarity, none on the target.
std::pair<std::vector<control>, std::uint32_t> random_gate( std::mt19937& rng, unsigned num_lines )
{
  const auto target = static_cast<std::uint32_t>( rng() % num_lines );
  std::vector<control> controls;
  const auto wanted = rng() % 5u;
  for ( std::uint32_t line = 0; line < num_lines && controls.size() < wanted; ++line )
  {
    if ( line != target && rng() % 2u == 0u )
    {
      controls.push_back( { line, rng() % 2u == 0u } );
    }
  }
  std::shuffle( controls.begin(), controls.end(), rng );
  return { std::move( controls ), target };
}

} // namespace

TEST( circuit, flat_gate_arrays_match_a_per_gate_reference )
{
  constexpr unsigned num_lines = 8;
  for ( const unsigned seed : { 1u, 2u, 3u } )
  {
    std::mt19937 rng( seed );
    reversible_circuit circuit( num_lines );
    reference_gates reference;
    for ( unsigned step = 0; step < 3000u; ++step )
    {
      const bool may_grow = reference.size() < 4000u;
      switch ( rng() % 9u )
      {
      case 0u:
      {
        const auto t = static_cast<std::uint32_t>( rng() % num_lines );
        circuit.add_not( t );
        reference.push_back( { {}, t } );
        break;
      }
      case 1u:
      {
        const auto t = static_cast<std::uint32_t>( rng() % num_lines );
        const auto c = static_cast<std::uint32_t>( ( t + 1u + rng() % ( num_lines - 1u ) ) % num_lines );
        circuit.add_cnot( c, t );
        reference.push_back( { { { c, true } }, t } );
        break;
      }
      case 2u:
      {
        const auto t = static_cast<std::uint32_t>( rng() % num_lines );
        const auto c0 = ( t + 1u ) % num_lines;
        const auto c1 = static_cast<std::uint32_t>( ( t + 2u + rng() % ( num_lines - 2u ) ) % num_lines );
        circuit.add_toffoli( c0, c1, t );
        reference.push_back( { { { c0, true }, { c1, true } }, t } );
        break;
      }
      case 3u:
      {
        auto [controls, target] = random_gate( rng, num_lines );
        circuit.add_mct( controls, target );
        reference.push_back( { std::move( controls ), target } );
        break;
      }
      case 4u:
      case 5u:
      {
        const bool reversed = step % 2u == 0u;
        reversible_circuit other( num_lines );
        reference_gates other_reference;
        for ( auto n = rng() % 6u; n > 0u; --n )
        {
          auto [controls, target] = random_gate( rng, num_lines );
          other.add_gate( controls, target );
          other_reference.push_back( { std::move( controls ), target } );
        }
        if ( reversed )
        {
          circuit.append_reversed( other );
          reference.insert( reference.end(), other_reference.rbegin(), other_reference.rend() );
        }
        else
        {
          circuit.append( other );
          reference.insert( reference.end(), other_reference.begin(), other_reference.end() );
        }
        break;
      }
      case 6u:
      {
        if ( !may_grow )
        {
          break;
        }
        const auto end = rng() % ( reference.size() + 1u );
        const auto begin = end - std::min<std::size_t>( end, rng() % 20u );
        circuit.append_reversed_window( begin, end );
        for ( auto i = end; i > begin; --i )
        {
          reference.push_back( reference[i - 1u] );
        }
        break;
      }
      case 7u:
      {
        if ( reference.empty() )
        {
          break;
        }
        const auto g = rng() % reference.size();
        const auto& controls = reference[g].first;
        const auto t = static_cast<std::uint32_t>( rng() % num_lines );
        if ( std::none_of( controls.begin(), controls.end(),
                           [t]( const control& c ) { return c.line == t; } ) )
        {
          circuit.set_target( g, t );
          reference[g].second = t;
        }
        break;
      }
      default:
      {
        reversible_circuit copy = circuit;
        expect_same_gates( copy, reference );
        reversible_circuit moved( std::move( copy ) );
        circuit = reversible_circuit( num_lines );
        circuit = std::move( moved );
        break;
      }
      }
      if ( step % 100u == 0u )
      {
        expect_same_gates( circuit, reference );
      }
    }
    expect_same_gates( circuit, reference );
    // The flat arrays agree with the gate view they back.
    const auto offsets = circuit.control_offsets();
    ASSERT_EQ( offsets.size(), circuit.num_gates() + 1u );
    EXPECT_EQ( offsets.front(), 0u );
    EXPECT_EQ( offsets.back(), circuit.controls().size() );
    EXPECT_TRUE( std::is_sorted( offsets.begin(), offsets.end() ) );
  }
}

TEST( circuit, empty_circuit_has_no_gate_arrays )
{
  reversible_circuit empty( 3 );
  EXPECT_EQ( empty.num_gates(), 0u );
  EXPECT_TRUE( empty.gates().empty() );
  EXPECT_TRUE( empty.control_offsets().empty() );
  reversible_circuit copy( 3 );
  copy.append( empty );
  copy.append_reversed( empty );
  copy.append_reversed_window( 0, 0 );
  EXPECT_EQ( copy.num_gates(), 0u );
  copy.add_not( 2 );
  EXPECT_EQ( copy.control_offsets().size(), 2u );
  EXPECT_EQ( copy.gate( 0 ).num_controls(), 0u );
}

TEST( cost_model, small_gate_costs )
{
  EXPECT_EQ( toffoli_t_count( 0, 5 ), 0u );
  EXPECT_EQ( toffoli_t_count( 1, 5 ), 0u );
  EXPECT_EQ( toffoli_t_count( 2, 0 ), 7u );
  EXPECT_EQ( toffoli_t_count( 2, 10 ), 7u );
}

TEST( cost_model, linear_regime_with_ancillas )
{
  // 8k - 9 with enough dirty ancillae.
  EXPECT_EQ( toffoli_t_count( 3, 1 ), 15u );
  EXPECT_EQ( toffoli_t_count( 5, 3 ), 31u );
  EXPECT_EQ( toffoli_t_count( 10, 8 ), 71u );
}

TEST( cost_model, halving_regime_with_one_ancilla )
{
  const auto k = 10u;
  const auto cost = toffoli_t_count( k, 1 );
  // More than linear, far less than quadratic.
  EXPECT_GT( cost, toffoli_t_count( k, 8 ) );
  EXPECT_LT( cost, toffoli_t_count( k, 0 ) );
}

TEST( cost_model, quadratic_regime_without_ancilla )
{
  EXPECT_EQ( toffoli_t_count( 3, 0 ), 16u * 2u * 1u + 7u );
  EXPECT_EQ( toffoli_t_count( 6, 0 ), 16u * 5u * 4u + 7u );
  // Monotone in k.
  for ( unsigned k = 3; k < 20; ++k )
  {
    EXPECT_GT( toffoli_t_count( k + 1, 0 ), toffoli_t_count( k, 0 ) );
  }
}

TEST( cost_model, circuit_t_count_accounts_free_lines )
{
  // Same gate, different circuit widths: wider circuit = more ancillae =
  // cheaper multi-controlled gates.
  reversible_circuit narrow( 5 );
  narrow.add_mct( { { 0, true }, { 1, true }, { 2, true }, { 3, true } }, 4 );
  reversible_circuit wide( 10 );
  wide.add_mct( { { 0, true }, { 1, true }, { 2, true }, { 3, true } }, 4 );
  EXPECT_GT( circuit_t_count( narrow ), circuit_t_count( wide ) );
}

TEST( cost_model, depth_sequential_vs_parallel )
{
  reversible_circuit sequential( 2 );
  sequential.add_not( 0 );
  sequential.add_cnot( 0, 1 );
  EXPECT_EQ( circuit_depth( sequential ), 2u );
  reversible_circuit parallel( 4 );
  parallel.add_not( 0 );
  parallel.add_not( 2 );
  parallel.add_cnot( 0, 1 );
  parallel.add_cnot( 2, 3 );
  EXPECT_EQ( circuit_depth( parallel ), 2u );
}

TEST( verify_helpers, evaluate_circuit_uses_metadata )
{
  // 2-input AND onto a constant ancilla that is the output.
  reversible_circuit c( 3 );
  c.line( 0 ).is_primary_input = true;
  c.line( 1 ).is_primary_input = true;
  c.line( 2 ).is_constant_input = true;
  c.line( 2 ).output_index = 0;
  c.add_toffoli( 0, 1, 2 );
  EXPECT_EQ( evaluate_circuit( c, { true, true } ), std::vector<bool>{ true } );
  EXPECT_EQ( evaluate_circuit( c, { true, false } ), std::vector<bool>{ false } );
}

TEST( verify_helpers, constant_one_ancilla )
{
  reversible_circuit c( 2 );
  c.line( 0 ).is_primary_input = true;
  c.line( 1 ).is_constant_input = true;
  c.line( 1 ).constant_value = true;
  c.line( 1 ).output_index = 0;
  c.add_cnot( 0, 1 ); // y = !x
  EXPECT_EQ( evaluate_circuit( c, { true } ), std::vector<bool>{ false } );
  EXPECT_EQ( evaluate_circuit( c, { false } ), std::vector<bool>{ true } );
}

TEST( verify_helpers, verify_against_truth_tables )
{
  reversible_circuit c( 3 );
  c.line( 0 ).is_primary_input = true;
  c.line( 1 ).is_primary_input = true;
  c.line( 2 ).is_constant_input = true;
  c.line( 2 ).output_index = 0;
  c.add_toffoli( 0, 1, 2 );
  const auto and_tt = truth_table::projection( 2, 0 ) & truth_table::projection( 2, 1 );
  EXPECT_TRUE( verify_against_truth_tables( c, { and_tt } ) );
  const auto or_tt = truth_table::projection( 2, 0 ) | truth_table::projection( 2, 1 );
  EXPECT_FALSE( verify_against_truth_tables( c, { or_tt } ) );
}

TEST( verify_helpers, sampled_aig_check_finds_mismatch )
{
  aig_network aig( 2 );
  aig.add_po( aig.create_or( aig.pi( 0 ), aig.pi( 1 ) ) );
  reversible_circuit c( 3 );
  c.line( 0 ).is_primary_input = true;
  c.line( 1 ).is_primary_input = true;
  c.line( 2 ).is_constant_input = true;
  c.line( 2 ).output_index = 0;
  c.add_toffoli( 0, 1, 2 ); // AND, not OR
  const auto cex = verify_against_aig_sampled( c, aig, 32 );
  ASSERT_TRUE( cex.has_value() );
  EXPECT_NE( aig.evaluate( *cex ), std::vector<bool>{ false } );
}

TEST( report, cost_report_fields )
{
  reversible_circuit c( 4 );
  c.add_toffoli( 0, 1, 2 );
  c.add_cnot( 2, 3 );
  const auto rep = report_costs( c );
  EXPECT_EQ( rep.qubits, 4u );
  EXPECT_EQ( rep.gates, 2u );
  EXPECT_EQ( rep.toffoli_gates, 1u );
  EXPECT_EQ( rep.t_count, 7u );
  EXPECT_EQ( rep.depth, 2u );
}
