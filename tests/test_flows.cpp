#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "core/dse.hpp"
#include "core/flows.hpp"
#include "sat/incremental.hpp"
#include "reversible/verify.hpp"
#include "synth/aig_optimize.hpp"
#include "verilog/elaborator.hpp"

using namespace qsyn;

TEST( flows, functional_flow_verifies_and_is_line_optimum )
{
  flow_params params;
  params.kind = flow_kind::functional;
  for ( const unsigned n : { 3u, 4u, 5u } )
  {
    const auto result = run_reciprocal_flow( reciprocal_design::intdiv, n, params );
    EXPECT_TRUE( result.verified ) << "n=" << n;
    // The Table II observation: optimum embedding uses 2n-1 qubits.
    EXPECT_EQ( result.costs.qubits, 2u * n - 1u ) << "n=" << n;
    EXPECT_EQ( result.embedding_lines, 2u * n - 1u );
  }
}

TEST( flows, esop_flow_uses_2n_qubits_at_p0 )
{
  flow_params params;
  params.kind = flow_kind::esop_based;
  for ( const unsigned n : { 3u, 4u, 5u } )
  {
    const auto result = run_reciprocal_flow( reciprocal_design::intdiv, n, params );
    EXPECT_TRUE( result.verified ) << "n=" << n;
    EXPECT_EQ( result.costs.qubits, 2u * n ) << "n=" << n; // Table III, p = 0
  }
}

TEST( flows, esop_p1_adds_lines )
{
  flow_params p0;
  p0.kind = flow_kind::esop_based;
  p0.esop_p = 0;
  flow_params p1 = p0;
  p1.esop_p = 2;
  const auto r0 = run_reciprocal_flow( reciprocal_design::intdiv, 5, p0 );
  const auto r1 = run_reciprocal_flow( reciprocal_design::intdiv, 5, p1 );
  EXPECT_TRUE( r0.verified );
  EXPECT_TRUE( r1.verified );
  EXPECT_GE( r1.costs.qubits, r0.costs.qubits ); // factoring costs lines
}

TEST( flows, hierarchical_flow_all_cleanups_verify )
{
  for ( const auto cleanup : { cleanup_strategy::keep_garbage, cleanup_strategy::bennett } )
  {
    flow_params params;
    params.kind = flow_kind::hierarchical;
    params.cleanup = cleanup;
    const auto result = run_reciprocal_flow( reciprocal_design::intdiv, 4, params );
    EXPECT_TRUE( result.verified );
    EXPECT_GT( result.xmg_maj + result.xmg_xor, 0u );
  }
}

TEST( flows, garbage_free_strategies_restore_their_ancillae )
{
  // bennett and factored ESOP synthesis promise clean ancillae: every line
  // that is neither an input, an output nor flagged garbage ends every
  // input assignment at its constant value.
  flow_params bennett;
  bennett.kind = flow_kind::hierarchical;
  bennett.cleanup = cleanup_strategy::bennett;
  flow_params esop_p1;
  esop_p1.kind = flow_kind::esop_based;
  esop_p1.esop_p = 1;
  flow_params esop_p2 = esop_p1;
  esop_p2.esop_p = 2;
  for ( const auto design : { reciprocal_design::intdiv, reciprocal_design::newton } )
  {
    for ( auto params : { bennett, esop_p1, esop_p2 } )
    {
      params.verify = false;
      const auto circuit = run_reciprocal_flow( design, 5, params ).circuit;
      const auto context =
          ( design == reciprocal_design::intdiv ? "INTDIV(5) " : "NEWTON(5) " ) + dse_label( params );
      std::vector<std::uint32_t> inputs;
      std::vector<std::uint32_t> ancillae;
      for ( std::uint32_t l = 0; l < circuit.num_lines(); ++l )
      {
        const auto& info = circuit.line( l );
        if ( info.is_primary_input )
        {
          inputs.push_back( l );
        }
        else if ( info.output_index < 0 && !info.is_garbage )
        {
          ancillae.push_back( l );
        }
      }
      ASSERT_EQ( inputs.size(), 5u ) << context;
      ASSERT_FALSE( ancillae.empty() ) << context;
      for ( std::uint64_t x = 0; x < 32u; ++x )
      {
        std::vector<bool> state( circuit.num_lines() );
        for ( std::uint32_t l = 0; l < circuit.num_lines(); ++l )
        {
          state[l] = circuit.line( l ).constant_value;
        }
        for ( std::size_t i = 0; i < inputs.size(); ++i )
        {
          state[inputs[i]] = ( x >> i ) & 1u;
        }
        circuit.apply( state );
        for ( const auto l : ancillae )
        {
          EXPECT_EQ( state[l], circuit.line( l ).constant_value )
              << context << ": ancilla " << l << " dirty for x=" << x;
        }
      }
    }
  }
}

TEST( flows, newton_design_through_flows )
{
  for ( const auto kind : { flow_kind::functional, flow_kind::esop_based,
                            flow_kind::hierarchical } )
  {
    flow_params params;
    params.kind = kind;
    const auto result = run_reciprocal_flow( reciprocal_design::newton, 4, params );
    EXPECT_TRUE( result.verified );
  }
}

TEST( flows, qubit_t_count_ordering_matches_paper )
{
  // Sec. V: functional has fewest qubits but by far the largest T-count;
  // ESOP sits between the flows on qubits; hierarchical pays the most
  // qubits.  (ESOP vs. hierarchical T-count flips with n — Table III/IV —
  // so only the functional flow's extremes are asserted.)
  const unsigned n = 5;
  flow_params functional;
  functional.kind = flow_kind::functional;
  flow_params esop;
  esop.kind = flow_kind::esop_based;
  flow_params hier;
  hier.kind = flow_kind::hierarchical;
  const auto rf = run_reciprocal_flow( reciprocal_design::intdiv, n, functional );
  const auto re = run_reciprocal_flow( reciprocal_design::intdiv, n, esop );
  const auto rh = run_reciprocal_flow( reciprocal_design::intdiv, n, hier );
  EXPECT_LT( rf.costs.qubits, re.costs.qubits );
  EXPECT_LT( re.costs.qubits, rh.costs.qubits );
  EXPECT_GT( rf.costs.t_count, re.costs.t_count );
  EXPECT_GT( rf.costs.t_count, rh.costs.t_count );
}

TEST( flows, hierarchical_intdiv16_meets_the_paper )
{
  // Table IV of the paper: hierarchical INTDIV(16) with 892 qubits and
  // 5 607 T gates.  The area-flow LUT cover is what brings it there.
  flow_params params;
  params.kind = flow_kind::hierarchical;
  params.cleanup = cleanup_strategy::keep_garbage;
  const auto result = run_reciprocal_flow( reciprocal_design::intdiv, 16, params );
  EXPECT_TRUE( result.verified );
  EXPECT_LE( result.costs.qubits, 892u );
  EXPECT_LE( result.costs.t_count, 5607u );
}

TEST( flows, optimization_reduces_aig )
{
  flow_params params;
  params.kind = flow_kind::esop_based;
  const auto result = run_reciprocal_flow( reciprocal_design::intdiv, 5, params );
  EXPECT_LE( result.aig_nodes_optimized, result.aig_nodes_initial );
}

TEST( flows, custom_verilog_through_flow )
{
  const std::string source = R"(
    module popcount(input [4:0] x, output [2:0] y);
      assign y = {1'b0, {1'b0, x[0]} + {1'b0, x[1]}} + {1'b0, {1'b0, x[2]} + {1'b0, x[3]}} + {2'b00, x[4]};
    endmodule
  )";
  for ( const auto kind : { flow_kind::functional, flow_kind::esop_based,
                            flow_kind::hierarchical } )
  {
    flow_params params;
    params.kind = kind;
    const auto result = run_flow_on_verilog( source, params );
    EXPECT_TRUE( result.verified );
  }
}

TEST( dse, exploration_produces_all_points )
{
  const auto mod = verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 4 ) );
  const auto configs = default_dse_configurations( true );
  const auto points = explore( mod.aig, configs );
  EXPECT_EQ( points.size(), configs.size() );
  for ( const auto& p : points )
  {
    EXPECT_TRUE( p.result.verified ) << p.label;
  }
}

TEST( dse, pareto_front_contains_extremes )
{
  const auto mod = verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 4 ) );
  const auto points = explore( mod.aig, default_dse_configurations( true ) );
  const auto front = pareto_front( points );
  EXPECT_GE( front.size(), 2u ); // at least the two extremes of the tradeoff
  // The minimum-qubit and minimum-T points must be on the frontier.
  std::size_t min_q = 0;
  std::size_t min_t = 0;
  for ( std::size_t i = 1; i < points.size(); ++i )
  {
    if ( points[i].result.costs.qubits < points[min_q].result.costs.qubits )
    {
      min_q = i;
    }
    if ( points[i].result.costs.t_count < points[min_t].result.costs.t_count )
    {
      min_t = i;
    }
  }
  EXPECT_NE( std::find( front.begin(), front.end(), min_q ), front.end() );
  EXPECT_NE( std::find( front.begin(), front.end(), min_t ), front.end() );
}

TEST( dse, table_formatting )
{
  const auto mod = verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 3 ) );
  std::vector<flow_params> configs;
  flow_params esop;
  esop.kind = flow_kind::esop_based;
  configs.push_back( esop );
  const auto points = explore( mod.aig, configs );
  const auto table = format_dse_table( points );
  EXPECT_NE( table.find( "esop(p=0)" ), std::string::npos );
  EXPECT_NE( table.find( "qubits" ), std::string::npos );
}

TEST( flows, verification_tiers_agree_on_accept_for_every_flow )
{
  // Each tier is a different engine (64-way simulation on truth
  // tables/samples, 64-way counter enumeration, SAT miter); a correct
  // synthesis result must pass all of them, with verified_with recording
  // the tier that ran.
  for ( const auto kind : { flow_kind::functional, flow_kind::esop_based,
                            flow_kind::hierarchical } )
  {
    for ( const auto mode :
          { verify_mode::sampled, verify_mode::exhaustive, verify_mode::sat } )
    {
      flow_params params;
      params.kind = kind;
      params.verification = mode;
      const auto result = run_reciprocal_flow( reciprocal_design::intdiv, 4, params );
      EXPECT_TRUE( result.verified )
          << "kind=" << static_cast<int>( kind ) << " mode=" << verify_mode_name( mode );
      EXPECT_EQ( result.verified_with, mode );
      EXPECT_FALSE( result.counterexample.has_value() );
    }
  }
}

TEST( flows, verify_mode_none_and_legacy_toggle_skip_verification )
{
  flow_params params;
  params.kind = flow_kind::esop_based;
  params.verification = verify_mode::none;
  const auto none = run_reciprocal_flow( reciprocal_design::intdiv, 4, params );
  EXPECT_FALSE( none.verified );
  EXPECT_EQ( none.verified_with, verify_mode::none );
  EXPECT_EQ( none.verify_seconds, 0.0 );

  params.verification = verify_mode::sat;
  params.verify = false; // the legacy master toggle wins
  const auto off = run_reciprocal_flow( reciprocal_design::intdiv, 4, params );
  EXPECT_FALSE( off.verified );
  EXPECT_EQ( off.verified_with, verify_mode::none );
}

TEST( flows, corrupted_circuit_is_rejected_by_every_tier_with_a_valid_counterexample )
{
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 4 ) );
  for ( const auto kind : { flow_kind::functional, flow_kind::esop_based,
                            flow_kind::hierarchical } )
  {
    flow_params params;
    params.kind = kind;
    params.verify = false;
    const auto result = run_flow_on_aig( mod.aig, params );
    const auto spec = optimize( mod.aig, params.optimization_rounds );

    const auto corrupted = corrupt_circuit( result.circuit, spec );

    const auto check_cex = [&]( const std::optional<std::vector<bool>>& cex,
                                const char* tier ) {
      ASSERT_TRUE( cex.has_value() ) << tier << " kind=" << static_cast<int>( kind );
      EXPECT_NE( evaluate_circuit( corrupted, *cex ), spec.evaluate( *cex ) )
          << tier << " kind=" << static_cast<int>( kind );
    };
    check_cex( verify_against_aig_sampled( corrupted, spec ), "sampled" );
    check_cex( verify_against_aig_exhaustive( corrupted, spec ), "exhaustive" );
    check_cex( verify_against_aig_sat( corrupted, spec ), "sat" );
  }
}

TEST( dse, explore_designs_threads_the_verification_mode )
{
  explore_options options;
  options.functional_max_bitwidth = 0; // keep the sweep small
  options.verification = verify_mode::sat;
  const auto explorations =
      explore_designs( { reciprocal_design::intdiv }, 4, 4, options );
  ASSERT_EQ( explorations.size(), 1u );
  for ( const auto& p : explorations[0].points )
  {
    EXPECT_TRUE( p.result.verified ) << p.label;
    EXPECT_EQ( p.result.verified_with, verify_mode::sat ) << p.label;
  }

  options.verification = verify_mode::none;
  const auto unverified = explore_designs( { reciprocal_design::intdiv }, 4, 4, options );
  for ( const auto& p : unverified[0].points )
  {
    EXPECT_EQ( p.result.verified_with, verify_mode::none ) << p.label;
    EXPECT_EQ( p.result.verify_seconds, 0.0 ) << p.label;
  }
}

TEST( flows, verify_mode_names_round_trip )
{
  for ( const auto mode : { verify_mode::none, verify_mode::sampled, verify_mode::exhaustive,
                            verify_mode::sat } )
  {
    EXPECT_EQ( verify_mode_from_name( verify_mode_name( mode ) ), mode );
  }
  EXPECT_FALSE( verify_mode_from_name( "bogus" ).has_value() );
}

TEST( flows, tbs_unidirectional_option )
{
  flow_params params;
  params.kind = flow_kind::functional;
  params.bidirectional_tbs = false;
  const auto result = run_reciprocal_flow( reciprocal_design::intdiv, 4, params );
  EXPECT_TRUE( result.verified );
}

TEST( flows, exorcism_toggle )
{
  flow_params with;
  with.kind = flow_kind::esop_based;
  with.run_exorcism = true;
  flow_params without = with;
  without.run_exorcism = false;
  const auto r_with = run_reciprocal_flow( reciprocal_design::intdiv, 5, with );
  const auto r_without = run_reciprocal_flow( reciprocal_design::intdiv, 5, without );
  EXPECT_TRUE( r_with.verified );
  EXPECT_TRUE( r_without.verified );
  EXPECT_LE( r_with.esop_terms, r_without.esop_terms );
}

TEST( flows, cut_size_is_a_flow_param_and_cache_axis )
{
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 5 ) );
  flow_params k4;
  k4.kind = flow_kind::hierarchical;
  k4.verification = verify_mode::exhaustive;
  flow_params k3 = k4;
  k3.cut_size = 3;

  flow_artifact_cache cache;
  const auto r4 = run_flow_staged( mod.aig, k4, cache );
  const auto misses_after_k4 = cache.stats().misses;
  const auto r3 = run_flow_staged( mod.aig, k3, cache );
  const auto misses_after_k3 = cache.stats().misses;
  // Different cut sizes are distinct XMG artifacts (a fresh miss)...
  EXPECT_GT( misses_after_k3, misses_after_k4 );
  // ...while re-running an already-seen cut size only hits.
  const auto r4_again = run_flow_staged( mod.aig, k4, cache );
  EXPECT_EQ( cache.stats().misses, misses_after_k3 );
  // Both mappings synthesize correct circuits with their own structure.
  EXPECT_TRUE( r4.verified );
  EXPECT_TRUE( r3.verified );
  EXPECT_TRUE( r4_again.verified );
  EXPECT_EQ( r4.costs.t_count, r4_again.costs.t_count );
  // Labels expose the non-default axis only.
  EXPECT_EQ( dse_label( k4 ), "hierarchical(garbage)" );
  EXPECT_EQ( dse_label( k3 ), "hierarchical(garbage,k=3)" );
}

namespace
{

/// Runs the hierarchical flow under every cleanup strategy with `sat`
/// verification on one cache and expects each result proven by the SAT tier.
void run_sat_sweep( const aig_network& aig, flow_artifact_cache& cache )
{
  for ( const auto cleanup : { cleanup_strategy::keep_garbage, cleanup_strategy::bennett } )
  {
    flow_params params;
    params.kind = flow_kind::hierarchical;
    params.cleanup = cleanup;
    params.verification = verify_mode::sat;
    const auto result = run_flow_staged( aig, params, cache );
    EXPECT_TRUE( result.verified );
    EXPECT_EQ( result.verified_with, verify_mode::sat );
    EXPECT_EQ( result.status, flow_status::ok );
  }
}

/// A 9+8-bit adder: 17 inputs, one above the SAT tier's enumeration bound.
verilog::elaborated_module wide_adder()
{
  auto mod = verilog::elaborate_verilog( "module add(a, b, s);\n"
                                         "  input [8:0] a;\n"
                                         "  input [7:0] b;\n"
                                         "  output [9:0] s;\n"
                                         "  assign s = a + b;\n"
                                         "endmodule\n" );
  EXPECT_EQ( mod.aig.num_pis(), sat_tier_max_enumerated_pis + 1u );
  return mod;
}

} // namespace

TEST( flows, sat_tier_reuses_one_engine_across_a_sweep )
{
  // Every sat-mode verification of a design wider than the enumeration
  // bound goes through the cache's persistent incremental engine: one
  // check per cleanup strategy.
  const auto mod = wide_adder();
  flow_artifact_cache cache;
  run_sat_sweep( mod.aig, cache );
  EXPECT_EQ( cache.sat_engine().stats().checks, 2u );
}

TEST( flows, sat_tier_refutes_a_corrupted_wide_design_through_the_engine )
{
  const auto mod = wide_adder();
  flow_artifact_cache cache;
  flow_params params;
  params.kind = flow_kind::hierarchical;
  params.verify = false;
  const auto result = run_flow_staged( mod.aig, params, cache );
  const auto& spec = cache.optimized( mod.aig, params.optimization_rounds );
  const auto corrupted = corrupt_circuit( result.circuit, spec );
  const auto outcome =
      verify_against_aig_sat_budgeted( corrupted, spec, cache.sat_engine(), sat::check_limits{} );
  EXPECT_TRUE( outcome.resolved );
  EXPECT_FALSE( outcome.equivalent );
  ASSERT_TRUE( outcome.counterexample.has_value() );
  EXPECT_NE( evaluate_circuit( corrupted, *outcome.counterexample ),
             spec.evaluate( *outcome.counterexample ) );
  EXPECT_EQ( cache.sat_engine().stats().checks, 1u );
}

TEST( flows, sat_tier_enumerates_narrow_designs_without_the_engine )
{
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 4 ) );
  flow_artifact_cache cache;
  run_sat_sweep( mod.aig, cache );
  EXPECT_EQ( cache.sat_engine().stats().checks, 0u );
}

TEST( flows, narrow_sat_verdicts_equal_the_exhaustive_tier_on_corrupted_circuits )
{
  // Up to the enumeration bound the SAT tier IS the exhaustive tier: the
  // same verdict and the same first failing assignment in counter order.
  for ( const auto design : { reciprocal_design::intdiv, reciprocal_design::newton } )
  {
    for ( unsigned n = 4; n <= 8; ++n )
    {
      const auto mod = verilog::elaborate_verilog( reciprocal_verilog( design, n ) );
      flow_artifact_cache cache;
      for ( const auto kind :
            { flow_kind::functional, flow_kind::esop_based, flow_kind::hierarchical } )
      {
        flow_params params;
        params.kind = kind;
        params.verify = false;
        const auto result = run_flow_staged( mod.aig, params, cache );
        const auto& spec = cache.optimized( mod.aig, params.optimization_rounds );
        const auto corrupted = corrupt_circuit( result.circuit, spec );
        const auto outcome = verify_against_aig_sat_budgeted( corrupted, spec, cache.sat_engine(),
                                                              sat::check_limits{} );
        const auto expected = verify_against_aig_exhaustive( corrupted, spec );
        const auto context =
            std::string( design == reciprocal_design::intdiv ? "intdiv " : "newton " ) +
            std::to_string( n ) + " kind " + std::to_string( static_cast<int>( kind ) );
        ASSERT_TRUE( expected.has_value() ) << context;
        EXPECT_TRUE( outcome.resolved ) << context;
        EXPECT_FALSE( outcome.equivalent ) << context;
        EXPECT_EQ( outcome.counterexample, expected ) << context;
      }
      EXPECT_EQ( cache.sat_engine().stats().checks, 0u );
    }
  }
}

TEST( flows, cut_size_below_two_is_rejected )
{
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 4 ) );
  // Also above the largest supported cut (one 64-bit cut function).
  for ( const unsigned k : { 1u, 7u } )
  {
    flow_params params;
    params.kind = flow_kind::hierarchical;
    params.cut_size = k;
    EXPECT_THROW( run_flow_on_aig( mod.aig, params ), std::invalid_argument ) << "k = " << k;
  }
}

TEST( flows, explicit_table_flows_fail_at_entry_over_the_input_limit )
{
  // One input past the 20-input limit of the explicit output tables.
  aig_network wide( aig_network::max_simulation_inputs + 1u );
  wide.add_po( wide.create_and( wide.pi( 0 ), wide.pi( 20 ) ) );
  for ( const auto kind : { flow_kind::esop_based, flow_kind::functional } )
  {
    flow_params params;
    params.kind = kind;
    const auto direct = run_flow_on_aig( wide, params );
    EXPECT_EQ( direct.status, flow_status::failed );
    EXPECT_NE( direct.status_detail.find( "21 inputs exceed the 20-input limit" ), std::string::npos )
        << direct.status_detail;
    // A sweep's stage task hits the same limit.
    const auto swept = explore( wide, { params } );
    ASSERT_EQ( swept.size(), 1u );
    EXPECT_EQ( swept[0].result.status, flow_status::failed );
    EXPECT_NE( swept[0].result.status_detail.find( "21 inputs exceed the 20-input limit" ),
               std::string::npos )
        << swept[0].result.status_detail;
  }
  // The hierarchical flow builds no explicit tables.
  flow_params params;
  params.kind = flow_kind::hierarchical;
  const auto result = run_flow_on_aig( wide, params );
  EXPECT_EQ( result.status, flow_status::ok ) << result.status_detail;
  EXPECT_TRUE( result.verified );
}

TEST( flows, esop_flow_fails_at_entry_over_the_output_limit )
{
  // 70 outputs over 2 inputs: an ESOP term's output mask has 64 bits, and
  // a functional embedding has at most 28 lines.
  const std::string verilog = "module wide_out(a, y);\n"
                              "  input [1:0] a;\n"
                              "  output [69:0] y;\n"
                              "  assign y = {35{a}};\n"
                              "endmodule\n";
  const auto mod = verilog::elaborate_verilog( verilog );
  ASSERT_EQ( mod.aig.num_pos(), 70u );
  flow_params params;
  params.kind = flow_kind::esop_based;
  const auto direct = run_flow_on_verilog( verilog, params );
  EXPECT_EQ( direct.status, flow_status::failed );
  EXPECT_NE( direct.status_detail.find( "70 outputs exceed the 64-output limit" ), std::string::npos )
      << direct.status_detail;
  // A sweep's stage task hits the same limit.
  const auto swept = explore( mod.aig, { params } );
  ASSERT_EQ( swept.size(), 1u );
  EXPECT_EQ( swept[0].result.status, flow_status::failed );
  EXPECT_NE( swept[0].result.status_detail.find( "70 outputs exceed the 64-output limit" ),
             std::string::npos )
      << swept[0].result.status_detail;
  // The functional flow embeds into at least one line per output.
  params.kind = flow_kind::functional;
  const auto functional = run_flow_on_verilog( verilog, params );
  EXPECT_EQ( functional.status, flow_status::failed );
  EXPECT_NE( functional.status_detail.find( "70 outputs exceed the 28-line limit" ), std::string::npos )
      << functional.status_detail;
  const auto functional_swept = explore( mod.aig, { params } );
  ASSERT_EQ( functional_swept.size(), 1u );
  EXPECT_EQ( functional_swept[0].result.status, flow_status::failed );
  EXPECT_NE( functional_swept[0].result.status_detail.find( "28-line limit" ), std::string::npos )
      << functional_swept[0].result.status_detail;
  // The hierarchical flow keeps no output masks.
  params.kind = flow_kind::hierarchical;
  const auto result = run_flow_on_verilog( verilog, params );
  EXPECT_EQ( result.status, flow_status::ok ) << result.status_detail;
  EXPECT_TRUE( result.verified );
}

TEST( flows, functional_flow_fails_when_the_embedding_exceeds_the_line_limit )
{
  // 9 constant outputs over 20 inputs: every input collides, so the
  // embedding needs 9 + ceil(log2 2^20) = 29 lines, one over the limit,
  // although the output count alone passes the entry check.
  aig_network aig( 20 );
  for ( unsigned o = 0; o < 9u; ++o )
  {
    aig.add_po( aig_network::const0 );
  }
  flow_params params;
  params.kind = flow_kind::functional;
  ASSERT_TRUE( flow_input_limit_error( aig.num_pis(), aig.num_pos(), params ).empty() );
  const auto direct = run_flow_on_aig( aig, params );
  EXPECT_EQ( direct.status, flow_status::failed );
  EXPECT_NE( direct.status_detail.find( "need 29 lines, more than the 28-line limit" ), std::string::npos )
      << direct.status_detail;
  const auto swept = explore( aig, { params } );
  ASSERT_EQ( swept.size(), 1u );
  EXPECT_EQ( swept[0].result.status, flow_status::failed );
  EXPECT_NE( swept[0].result.status_detail.find( "28-line limit" ), std::string::npos )
      << swept[0].result.status_detail;
}

TEST( flows, hierarchical_flow_takes_designs_wider_than_table_iv )
{
  // The hierarchical flow builds no explicit table, so user designs wider
  // than INTDIV(128), the daemon's largest bitwidth, still compile.
  constexpr unsigned num_inputs = 130;
  aig_network wide( num_inputs );
  wide.add_po( wide.create_and( wide.pi( 0 ), wide.pi( num_inputs - 1u ) ) );
  wide.add_po( wide.create_xor( wide.pi( 64 ), wide.pi( 65 ) ) );
  flow_params params;
  params.kind = flow_kind::hierarchical;
  const auto result = run_flow_on_aig( wide, params );
  EXPECT_EQ( result.status, flow_status::ok ) << result.status_detail;
  EXPECT_GT( result.circuit.num_gates(), 0u );
}

TEST( flows, cache_rejects_same_size_different_function_design )
{
  // Regression for the size-only design fingerprint: `a AND b` and
  // `a AND NOT b` have identical (pis, pos, ands) shapes but different
  // functions.  The old fingerprint silently served the first design's
  // artifacts for the second; the content hash must reject the alias.
  aig_network and_ab( 2 );
  and_ab.add_po( and_ab.create_and( and_ab.pi( 0 ), and_ab.pi( 1 ) ) );
  aig_network and_anb( 2 );
  and_anb.add_po( and_anb.create_and( and_anb.pi( 0 ), lit_not( and_anb.pi( 1 ) ) ) );
  ASSERT_EQ( and_ab.num_nodes(), and_anb.num_nodes() );
  ASSERT_NE( and_ab.content_hash(), and_anb.content_hash() );

  flow_params params;
  params.kind = flow_kind::esop_based;
  flow_artifact_cache cache;
  const auto first = run_flow_staged( and_ab, params, cache );
  EXPECT_TRUE( first.verified );
  EXPECT_THROW( run_flow_staged( and_anb, params, cache ), std::invalid_argument );

  // A structurally identical copy is the same design and is accepted.
  aig_network copy( 2 );
  copy.add_po( copy.create_and( copy.pi( 0 ), copy.pi( 1 ) ) );
  const auto again = run_flow_staged( copy, params, cache );
  EXPECT_TRUE( again.verified );
  EXPECT_EQ( again.costs.t_count, first.costs.t_count );
  EXPECT_GT( cache.stats().hits, 0u ); // the copy reused the first run's artifacts
  EXPECT_EQ( cache.design_hash(), and_ab.content_hash() );

  // Rewriting the bound object in place makes it another design: the
  // memoized hash must not let it through.
  and_ab.set_po( 0, lit_not( and_ab.po( 0 ) ) );
  EXPECT_THROW( run_flow_staged( and_ab, params, cache ), std::invalid_argument );
}

// --- per-key cache slots -------------------------------------------------------

TEST( flow_cache, memory_hit_does_not_wait_for_another_keys_computation )
{
  // Head-of-line regression: a cold artifact computing on one thread must
  // not stall a memory hit on a different key of the same design (the
  // daemon serves every request of a design from one cache).  NEWTON(10)'s
  // XMG takes tens of milliseconds in Release, far longer than a hit.
  struct disarm_guard
  {
    ~disarm_guard() { fault_injection::disarm_all(); }
  } guard;
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::newton, 10 ) );
  flow_artifact_cache cache;
  const auto& prewarmed = cache.optimized( mod.aig, 2 );
  // An `after_hits` that is never reached: the site only counts polls, and
  // its one poll marks the start of the XMG computation.
  fault_injection::arm( "flow.xmg", fault_injection::kind::trip, 1u << 30 );

  std::atomic<bool> done{ false };
  std::chrono::steady_clock::time_point done_at;
  std::thread worker( [&] {
    cache.xmg_intermediate( mod.aig, 2, 4 );
    done_at = std::chrono::steady_clock::now();
    done = true;
  } );
  while ( fault_injection::hits( "flow.xmg" ) == 0u )
  {
    std::this_thread::yield();
  }
  const auto& hit = cache.optimized( mod.aig, 2 );
  const auto hit_at = std::chrono::steady_clock::now();
  const bool hit_returned_first = !done;
  worker.join();

  // A hit queued behind the computation returns within microseconds of
  // the computing thread; a free one returns while the XMG still computes.
  EXPECT_TRUE( hit_returned_first ) << "the optimize hit waited for the xmg computation";
  EXPECT_GT( done_at - hit_at, std::chrono::milliseconds( 5 ) )
      << "the optimize hit waited for the xmg computation";
  EXPECT_EQ( &hit, &prewarmed );
  EXPECT_EQ( cache.stats().misses, 2u ); // optimize (prewarm) + xmg
}

TEST( flow_cache, concurrent_first_requests_of_one_key_compute_it_once )
{
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 8 ) );
  flow_artifact_cache cache;
  constexpr std::size_t num_threads = 8;
  std::vector<const flow_artifact_cache::esop_artifact*> got( num_threads, nullptr );
  std::atomic<bool> go{ false };
  std::vector<std::thread> threads;
  for ( std::size_t i = 0; i < num_threads; ++i )
  {
    threads.emplace_back( [&, i] {
      while ( !go )
      {
        std::this_thread::yield();
      }
      got[i] = &cache.esop_intermediate( mod.aig, 2, true );
    } );
  }
  go = true;
  for ( auto& thread : threads )
  {
    thread.join();
  }

  for ( std::size_t i = 0; i < num_threads; ++i )
  {
    EXPECT_EQ( got[i], got[0] ) << i;
  }
  // Exactly the esop artifact and the optimized AIG it derives from were
  // computed; every other request waited on the slot and hit.
  EXPECT_EQ( cache.stats().misses, 2u );
  EXPECT_EQ( cache.stats().hits, num_threads - 1u );
}
