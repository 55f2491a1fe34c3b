/// Robustness suite: budgets, cooperative cancellation, verify-tier
/// degradation, per-design failure isolation, and deterministic fault
/// injection.  The central invariants:
///
///   * unlimited budgets are bit-identical to the unbudgeted engine,
///   * anytime kernels (EXORCISM, sampling) stop gracefully with honest
///     partial-result accounting; kernels without a partial result (TBS,
///     a mid-flight CDCL search) report `budget_exhausted` / `unknown`,
///   * one failing or hanging configuration/design never takes down a
///     sweep — it becomes a status record, everything else is unaffected.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/budget.hpp"
#include "common/fault_injection.hpp"
#include "core/dse.hpp"
#include "reversible/verify.hpp"
#include "rsynth/hierarchical.hpp"
#include "rsynth/tbs.hpp"
#include "sat/incremental.hpp"
#include "sat/solver.hpp"
#include "synth/exorcism.hpp"
#include "verilog/elaborator.hpp"
#include "verilog/parser.hpp"

using namespace qsyn;

namespace
{

/// A deadline that has already expired: one nanosecond, spun out.
deadline expired_deadline()
{
  const auto d = deadline::in( 1e-9 );
  while ( !d.expired() )
  {
  }
  return d;
}

/// XOR spec plus a correct CNOT-CNOT realization of it, the minimal
/// fixture for the verification tiers.
struct xor_fixture
{
  aig_network aig{ 2 };
  reversible_circuit circuit{ 3 };

  xor_fixture()
  {
    aig.add_po( aig.create_xor( aig.pi( 0 ), aig.pi( 1 ) ) );
    circuit.line( 0 ).is_primary_input = true;
    circuit.line( 1 ).is_primary_input = true;
    circuit.line( 2 ).is_constant_input = true;
    circuit.line( 2 ).output_index = 0;
    circuit.line( 2 ).is_garbage = false;
    circuit.add_cnot( 0, 2 );
    circuit.add_cnot( 1, 2 );
  }
};

std::string tiny_xor_verilog()
{
  return "module f(a, b, y);\n"
         "  input a, b;\n"
         "  output y;\n"
         "  assign y = a ^ b;\n"
         "endmodule\n";
}

/// RAII disarm so an assertion failure cannot leak an armed site into
/// later tests.
struct fault_guard
{
  ~fault_guard() { fault_injection::disarm_all(); }
};

bool costs_equal( const dse_point& a, const dse_point& b )
{
  return a.label == b.label && a.result.costs.qubits == b.result.costs.qubits &&
         a.result.costs.t_count == b.result.costs.t_count &&
         a.result.costs.gates == b.result.costs.gates;
}

} // namespace

// --- deadline primitives -----------------------------------------------------

TEST( robustness_deadline, default_is_unlimited_and_never_expires )
{
  const deadline d;
  EXPECT_TRUE( d.unlimited() );
  EXPECT_FALSE( d.expired() );
  EXPECT_GT( d.remaining_seconds(), 1e12 );
}

TEST( robustness_deadline, nonpositive_seconds_mean_unlimited )
{
  EXPECT_TRUE( deadline::in( 0.0 ).unlimited() );
  EXPECT_TRUE( deadline::in( -1.0 ).unlimited() );
  EXPECT_TRUE( deadline::in( std::numeric_limits<double>::quiet_NaN() ).unlimited() );
  EXPECT_FALSE( deadline::in( 3600.0 ).unlimited() );
  EXPECT_FALSE( deadline::in( 3600.0 ).expired() );
  // Limits past the clock's range clamp to its end instead of overflowing
  // into an expiry in the past.
  for ( const double huge : { 1e10, 1e300, std::numeric_limits<double>::infinity() } )
  {
    const auto d = deadline::in( huge );
    EXPECT_FALSE( d.expired() ) << huge;
    EXPECT_GT( d.remaining_seconds(), 1e9 ) << huge;
  }
}

TEST( robustness_deadline, is_a_trivially_copyable_time_limit )
{
  static_assert( std::is_trivially_copyable_v<deadline> );
  const auto d = expired_deadline();
  const auto copy = d;
  EXPECT_FALSE( d.unlimited() );
  EXPECT_TRUE( copy.expired() );
  EXPECT_EQ( copy.remaining_seconds(), 0.0 );
}

TEST( robustness_deadline, tightened_takes_the_tighter_limit )
{
  const auto loose = deadline::in( 3600.0 );
  const auto tight = loose.tightened( 0.5 );
  EXPECT_LT( tight.remaining_seconds(), 1.0 );
  // Tightening with a looser limit keeps the original.
  const auto kept = tight.tightened( 3600.0 );
  EXPECT_LT( kept.remaining_seconds(), 1.0 );
  // Nonpositive seconds leave the deadline unchanged (still unlimited here).
  EXPECT_TRUE( deadline{}.tightened( 0.0 ).unlimited() );
  EXPECT_TRUE( deadline{}.tightened( std::numeric_limits<double>::quiet_NaN() ).unlimited() );
  EXPECT_FALSE( deadline{}.tightened( 1.0 ).unlimited() );
  // Limits past the clock's range neither expire nor loosen a tighter one.
  for ( const double huge : { 1e10, 1e300, std::numeric_limits<double>::infinity() } )
  {
    EXPECT_FALSE( deadline{}.tightened( huge ).expired() ) << huge;
    EXPECT_GT( deadline{}.tightened( huge ).remaining_seconds(), 1e9 ) << huge;
    EXPECT_LT( tight.tightened( huge ).remaining_seconds(), 1.0 ) << huge;
  }
}

// --- SAT solver: cooperative deadline ----------------------------------------

TEST( robustness_solver, expired_deadline_returns_unknown )
{
  sat::solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  s.add_clause( { sat::pos_lit( a ), sat::pos_lit( b ) } );
  s.set_deadline( expired_deadline() );
  EXPECT_EQ( s.solve(), sat::result::unknown );
  // Clearing the deadline restores the verdict.
  s.set_deadline( deadline{} );
  EXPECT_EQ( s.solve(), sat::result::satisfiable );
}

// --- incremental CEC: unresolved outcomes instead of asserts -----------------

TEST( robustness_incremental, budget_exhaustion_reports_unresolved )
{
  // A 16-input XOR chain against a balanced XOR tree: fraiging merges the
  // small subtrees, but the engine's fixed 64-way window (depth 8, at most
  // twelve free classes) cannot prove the outputs equal, so only the
  // solver could settle the miter.
  constexpr unsigned n = 16;
  aig_network a( n );
  auto chain = a.pi( 0 );
  for ( unsigned i = 1; i < n; ++i )
  {
    chain = a.create_xor( chain, a.pi( i ) );
  }
  a.add_po( chain );
  aig_network b( n );
  std::vector<aig_lit> level;
  for ( unsigned i = 0; i < n; ++i )
  {
    level.push_back( b.pi( i ) );
  }
  while ( level.size() > 1u )
  {
    std::vector<aig_lit> next;
    for ( std::size_t i = 0; i < level.size(); i += 2 )
    {
      next.push_back( b.create_xor( level[i], level[i + 1u] ) );
    }
    level = std::move( next );
  }
  b.add_po( level[0] );

  sat::incremental_cec engine;
  sat::check_limits limits;
  limits.stop = expired_deadline();
  const auto outcome = engine.check( a, b, limits );
  EXPECT_FALSE( outcome.resolved );
  EXPECT_EQ( engine.stats().sat_proven_outputs, 0u );

  // The same engine resolves the pair once the limits are lifted.
  const auto settled = engine.check( a, b );
  EXPECT_TRUE( settled.resolved );
  EXPECT_TRUE( settled.equivalent );
  EXPECT_EQ( engine.stats().sat_proven_outputs, 1u );
}

// --- TBS: no partial result, so expiry throws --------------------------------

TEST( robustness_tbs, expired_deadline_throws_budget_exhausted )
{
  std::vector<std::uint64_t> perm( 8 );
  for ( std::uint64_t i = 0; i < 8; ++i )
  {
    perm[i] = i ^ 5u; // any nontrivial permutation
  }
  tbs_params params;
  params.stop = expired_deadline();
  EXPECT_THROW( tbs_synthesize( perm, params ), budget_exhausted );
  // Unlimited deadline: same call succeeds.
  EXPECT_NO_THROW( tbs_synthesize( perm, tbs_params{} ) );
}

// --- EXORCISM: anytime, graceful stop ----------------------------------------

TEST( robustness_exorcism, pair_budget_stops_gracefully_and_preserves_function )
{
  std::mt19937_64 rng( 7 );
  esop expression;
  expression.num_inputs = 6;
  expression.num_outputs = 2;
  for ( int t = 0; t < 24; ++t )
  {
    const std::uint64_t mask = rng() & 0x3Fu;
    expression.terms.push_back( { cube{ mask, rng() & mask }, 1u + ( rng() & 1u ) } );
  }
  const auto reference = expression;

  exorcism_params params;
  params.pair_budget = 1;
  auto limited = expression;
  const auto stats = exorcism( limited, params );
  EXPECT_TRUE( stats.budget_exhausted );
  EXPECT_LE( stats.pairs_attempted, params.pair_budget + 1 );
  for ( unsigned output = 0; output < reference.num_outputs; ++output )
  {
    for ( std::uint64_t input = 0; input < ( 1u << reference.num_inputs ); ++input )
    {
      ASSERT_EQ( limited.evaluate( input, output ), reference.evaluate( input, output ) );
    }
  }
}

TEST( robustness_exorcism, expired_deadline_stops_on_the_first_attempt )
{
  std::mt19937_64 rng( 11 );
  esop expression;
  expression.num_inputs = 5;
  expression.num_outputs = 1;
  for ( int t = 0; t < 16; ++t )
  {
    const std::uint64_t mask = rng() & 0x1Fu;
    expression.terms.push_back( { cube{ mask, rng() & mask }, 1u } );
  }
  exorcism_params params;
  params.stop = expired_deadline();
  const auto stats = exorcism( expression, params );
  EXPECT_TRUE( stats.budget_exhausted );
}

TEST( robustness_exorcism, unlimited_params_match_the_plain_overload )
{
  std::mt19937_64 rng( 13 );
  esop a;
  a.num_inputs = 6;
  a.num_outputs = 2;
  for ( int t = 0; t < 20; ++t )
  {
    const std::uint64_t mask = rng() & 0x3Fu;
    a.terms.push_back( { cube{ mask, rng() & mask }, 1u + ( rng() & 1u ) } );
  }
  auto b = a;
  const auto plain = exorcism( a );
  const auto limited = exorcism( b, exorcism_params{} );
  EXPECT_FALSE( limited.budget_exhausted );
  EXPECT_EQ( plain.final_terms, limited.final_terms );
  EXPECT_EQ( plain.final_literals, limited.final_literals );
  EXPECT_EQ( a.terms.size(), b.terms.size() );
}

// --- budgeted simulation tiers: honest partial coverage ----------------------

TEST( robustness_verify, expired_deadline_yields_partial_report_with_zero_coverage )
{
  const xor_fixture fx;
  const auto report = verify_against_aig_sampled_budgeted( fx.circuit, fx.aig,
                                                           expired_deadline() );
  EXPECT_FALSE( report.complete );
  EXPECT_EQ( report.assignments_completed, 0u );
  EXPECT_GT( report.assignments_requested, 0u );
  EXPECT_FALSE( report.counterexample.has_value() );
}

TEST( robustness_verify, unlimited_deadline_matches_the_unbudgeted_tiers )
{
  const xor_fixture fx;
  const auto sampled = verify_against_aig_sampled_budgeted( fx.circuit, fx.aig, deadline{} );
  EXPECT_TRUE( sampled.complete );
  EXPECT_EQ( sampled.assignments_completed, sampled.assignments_requested );
  EXPECT_FALSE( sampled.counterexample.has_value() );

  const auto exhaustive =
      verify_against_aig_exhaustive_budgeted( fx.circuit, fx.aig, deadline{} );
  EXPECT_TRUE( exhaustive.complete );
  EXPECT_EQ( exhaustive.assignments_requested, 4u ); // 2^2 inputs
  EXPECT_EQ( exhaustive.assignments_completed, 4u );
  EXPECT_FALSE( exhaustive.counterexample.has_value() );
}

TEST( robustness_verify, partial_report_counterexample_is_always_real )
{
  const xor_fixture fx;
  const auto corrupted = corrupt_circuit( fx.circuit, fx.aig );
  const auto report =
      verify_against_aig_exhaustive_budgeted( corrupted, fx.aig, deadline{} );
  ASSERT_TRUE( report.counterexample.has_value() );
  // Unlimited-deadline budgeted tier walks the same counter order as the
  // plain tier, so both must report the same first failing assignment.
  const auto plain = verify_against_aig_exhaustive( corrupted, fx.aig );
  ASSERT_TRUE( plain.has_value() );
  EXPECT_EQ( *report.counterexample, *plain );
}

TEST( robustness_verify, narrow_sat_tier_under_an_expired_deadline_is_unresolved )
{
  // Designs this narrow are enumerated by the SAT tier; an expired deadline
  // stops the enumeration before any coverage and never reaches the engine.
  const xor_fixture fx;
  sat::incremental_cec engine;
  sat::check_limits limits;
  limits.stop = expired_deadline();
  const auto outcome = verify_against_aig_sat_budgeted( fx.circuit, fx.aig, engine, limits );
  EXPECT_FALSE( outcome.resolved );
  EXPECT_FALSE( outcome.counterexample.has_value() );
  EXPECT_EQ( engine.stats().checks, 0u );
}

TEST( robustness_verify, expired_deadline_skips_every_tier_setup_on_a_wide_design )
{
  // NEWTON(24): 24 inputs, so the SAT tier goes to the engine, and a
  // hierarchical circuit of ~10^5 gates.  Extracting its AIG and encoding
  // the miter take over a second, building the wide simulators
  // milliseconds.  An expired deadline must skip all of that and return the
  // report of a first poll that fires.
  const auto spec =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::newton, 24 ) ).aig;
  ASSERT_GT( spec.num_pis(), sat_tier_max_enumerated_pis );
  flow_params params;
  params.kind = flow_kind::hierarchical;
  params.verify = false;
  const auto circuit = run_flow_on_aig( spec, params ).circuit;
  const auto seconds = []( const auto& call ) {
    const auto start = std::chrono::steady_clock::now();
    call();
    return std::chrono::duration<double>( std::chrono::steady_clock::now() - start ).count();
  };

  sat::incremental_cec engine;
  sat::check_limits limits;
  limits.stop = expired_deadline();
  sat_verify_outcome outcome;
  EXPECT_LT( seconds( [&] {
               outcome = verify_against_aig_sat_budgeted( circuit, spec, engine, limits );
             } ),
             0.05 );
  EXPECT_FALSE( outcome.resolved );
  EXPECT_FALSE( outcome.counterexample.has_value() );

  partial_verify_report exhaustive;
  EXPECT_LT( seconds( [&] {
               exhaustive =
                   verify_against_aig_exhaustive_budgeted( circuit, spec, expired_deadline() );
             } ),
             0.05 );
  partial_verify_report sampled;
  EXPECT_LT( seconds( [&] {
               sampled = verify_against_aig_sampled_budgeted( circuit, spec, expired_deadline() );
             } ),
             0.05 );
  EXPECT_EQ( exhaustive.assignments_requested, std::uint64_t{ 1 } << spec.num_pis() );
  EXPECT_EQ( sampled.assignments_requested, 258u ); // 256 samples + all-0 + all-1
  for ( const auto& report : { exhaustive, sampled } )
  {
    EXPECT_FALSE( report.complete );
    EXPECT_EQ( report.assignments_completed, 0u );
    EXPECT_FALSE( report.counterexample.has_value() );
  }
}

// --- verify-tier degradation ladder in the flow ------------------------------

TEST( robustness_flows, sat_budget_exhaustion_degrades_to_sampled )
{
  fault_guard guard;
  const auto mod = verilog::elaborate_verilog( tiny_xor_verilog() );
  flow_params params;
  params.kind = flow_kind::esop_based;
  params.verification = verify_mode::sat;

  flow_artifact_cache cache;
  fault_injection::arm( "verify.sat", fault_injection::kind::trip );
  const auto result = run_flow_staged( mod.aig, params, cache );
  fault_injection::disarm_all();

  EXPECT_TRUE( result.verify_downgraded );
  EXPECT_EQ( result.verified_with, verify_mode::sampled );
  EXPECT_TRUE( result.verified );
  // Sampling is weaker than the requested proof: recorded as degraded.
  EXPECT_EQ( result.status, flow_status::degraded );
}

TEST( robustness_flows, unarmed_sat_tier_is_unaffected )
{
  const auto mod = verilog::elaborate_verilog( tiny_xor_verilog() );
  flow_params params;
  params.kind = flow_kind::esop_based;
  params.verification = verify_mode::sat;
  flow_artifact_cache cache;
  const auto result = run_flow_staged( mod.aig, params, cache );
  EXPECT_TRUE( result.verified );
  EXPECT_FALSE( result.verify_downgraded );
  EXPECT_EQ( result.verified_with, verify_mode::sat );
  EXPECT_EQ( result.status, flow_status::ok );
}

// --- fault injection: cache-miss and stage-failure sites ---------------------

TEST( robustness_faults, tripped_cache_hit_recomputes_without_changing_results )
{
  fault_guard guard;
  const auto mod = verilog::elaborate_verilog( tiny_xor_verilog() );
  flow_params params;
  params.kind = flow_kind::hierarchical;

  flow_artifact_cache cache;
  const auto baseline = run_flow_staged( mod.aig, params, cache );
  const auto misses_before = cache.stats().misses;

  fault_injection::arm( "cache.hit", fault_injection::kind::trip );
  const auto rerun = run_flow_staged( mod.aig, params, cache );
  EXPECT_GT( fault_injection::hits( "cache.hit" ), 0u ); // before disarm: it resets counters
  fault_injection::disarm_all();

  EXPECT_GT( cache.stats().misses, misses_before ); // forced misses were accounted
  EXPECT_EQ( baseline.costs.qubits, rerun.costs.qubits );
  EXPECT_EQ( baseline.costs.t_count, rerun.costs.t_count );
  EXPECT_EQ( baseline.costs.gates, rerun.costs.gates );
}

TEST( robustness_faults, hits_counts_polls_and_disarm_resets )
{
  fault_guard guard;
  fault_injection::arm( "flow.esop", fault_injection::kind::trip, 1000 );
  EXPECT_FALSE( fault_injection::poll( "flow.esop" ) ); // inside after_hits window
  EXPECT_FALSE( fault_injection::poll( "flow.esop" ) );
  EXPECT_EQ( fault_injection::hits( "flow.esop" ), 2u );
  fault_injection::disarm_all();
  EXPECT_EQ( fault_injection::hits( "flow.esop" ), 0u );
  EXPECT_FALSE( fault_injection::poll( "flow.esop" ) ); // disarmed: inert
}

// --- per-design / per-configuration failure isolation ------------------------

TEST( robustness_dse, injected_stage_failure_is_isolated_to_one_design )
{
  fault_guard guard;
  explore_options options;
  options.num_threads = 1;

  const auto baseline = explore_designs( { reciprocal_design::intdiv,
                                           reciprocal_design::newton },
                                         5, 5, options );
  ASSERT_EQ( baseline.size(), 2u );
  ASSERT_EQ( baseline[0].status, flow_status::ok );
  ASSERT_EQ( baseline[1].status, flow_status::ok );

  // Under the task-graph scheduler the three cleanup configurations
  // coalesce onto ONE xmg stage task per design, so INTDIV(5) polls
  // `flow.xmg` exactly once (deterministic single-threaded topological
  // order: INTDIV's whole chain runs before NEWTON's).  NEWTON(5) polls
  // the site after the one-shot window has closed and passes.
  fault_injection::arm( "flow.xmg", fault_injection::kind::fail, 0, 1 );
  const auto injected = explore_designs( { reciprocal_design::intdiv,
                                           reciprocal_design::newton },
                                         5, 5, options );
  fault_injection::disarm_all();

  ASSERT_EQ( injected.size(), 2u );
  EXPECT_EQ( injected[0].status, flow_status::failed );
  EXPECT_NE( injected[0].status_detail.find( "flow.xmg" ), std::string::npos );
  EXPECT_EQ( injected[1].status, flow_status::ok );

  // The sweep completed: both designs report full point lists, and every
  // non-failed point is bit-identical to the uninjected run.
  ASSERT_EQ( injected[0].points.size(), baseline[0].points.size() );
  ASSERT_EQ( injected[1].points.size(), baseline[1].points.size() );
  for ( std::size_t i = 0; i < injected[0].points.size(); ++i )
  {
    if ( injected[0].points[i].result.status == flow_status::ok )
    {
      EXPECT_TRUE( costs_equal( injected[0].points[i], baseline[0].points[i] ) ) << i;
    }
    else
    {
      EXPECT_EQ( injected[0].points[i].result.status, flow_status::failed ) << i;
    }
  }
  for ( std::size_t i = 0; i < injected[1].points.size(); ++i )
  {
    EXPECT_TRUE( costs_equal( injected[1].points[i], baseline[1].points[i] ) ) << i;
  }
}

TEST( robustness_dse, injected_timeout_reports_timed_out_and_sweep_continues )
{
  fault_guard guard;
  explore_options options;
  options.num_threads = 1;
  fault_injection::arm( "dse.elaborate", fault_injection::kind::timeout, 0, 1 );
  const auto swept = explore_designs( { reciprocal_design::intdiv,
                                        reciprocal_design::newton },
                                      5, 5, options );
  fault_injection::disarm_all();
  ASSERT_EQ( swept.size(), 2u );
  EXPECT_EQ( swept[0].status, flow_status::timed_out );
  EXPECT_TRUE( swept[0].points.empty() );
  EXPECT_EQ( swept[1].status, flow_status::ok );
  EXPECT_FALSE( swept[1].points.empty() );
}

TEST( robustness_dse, elaboration_failure_becomes_a_failed_record )
{
  fault_guard guard;
  explore_options options;
  options.num_threads = 1;
  fault_injection::arm( "dse.elaborate", fault_injection::kind::fail, 0, 1 );
  const auto swept =
      explore_designs( { reciprocal_design::intdiv }, 5, 5, options );
  fault_injection::disarm_all();
  ASSERT_EQ( swept.size(), 1u );
  EXPECT_EQ( swept[0].status, flow_status::failed );
  EXPECT_NE( swept[0].status_detail.find( "dse.elaborate" ), std::string::npos );
}

TEST( robustness_dse, unlimited_budgets_are_bit_identical_to_the_default )
{
  const auto mod = verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 5 ) );
  auto configs = default_dse_configurations( true );

  explore_options plain;
  plain.num_threads = 1;
  const auto baseline = explore( mod.aig, configs, plain );

  // Generous-but-finite budgets must not perturb a sweep that fits them.
  explore_options budgeted = plain;
  budgeted.sweep_deadline_seconds = 3600.0;
  for ( auto& config : configs )
  {
    config.limits.deadline_seconds = 3600.0;
    config.limits.sat_conflict_budget = 1u << 30;
    config.limits.exorcism_pair_budget = std::uint64_t{ 1 } << 40;
  }
  const auto limited = explore( mod.aig, configs, budgeted );

  ASSERT_EQ( baseline.size(), limited.size() );
  for ( std::size_t i = 0; i < baseline.size(); ++i )
  {
    EXPECT_TRUE( costs_equal( baseline[i], limited[i] ) ) << baseline[i].label;
    EXPECT_EQ( limited[i].result.status, flow_status::ok ) << baseline[i].label;
  }
}

// --- hierarchical synthesis: deep XMGs ---------------------------------------

TEST( robustness_rsynth, deep_xmg_chain_synthesizes_under_every_cleanup )
{
  // A 10^5-node MAJ/XOR chain, one output cone as deep as the chain is long:
  // synthesis, bennett's reversed window and both evaluators must handle it
  // without per-node recursion.
  xmg_network xmg( 4 );
  auto chain = xmg.pi( 0 );
  for ( unsigned i = 0; i < 100000u; ++i )
  {
    chain = i % 2u == 0u ? xmg.create_maj( chain, xmg.pi( 1 ), xmg.pi( 2 ) ^ ( i % 4u == 0u ) )
                         : xmg.create_xor( chain, xmg.pi( 3 ) );
  }
  xmg.add_po( chain );
  ASSERT_EQ( xmg.num_gates(), 100000u );
  for ( const auto cleanup : { cleanup_strategy::keep_garbage, cleanup_strategy::bennett } )
  {
    hierarchical_params params;
    params.cleanup = cleanup;
    const auto circuit = hierarchical_synthesize( xmg, params );
    for ( unsigned a = 0; a < 16u; ++a )
    {
      const std::vector<bool> inputs = { ( a & 1u ) != 0u, ( a & 2u ) != 0u, ( a & 4u ) != 0u,
                                         ( a & 8u ) != 0u };
      EXPECT_EQ( evaluate_circuit( circuit, inputs ), xmg.evaluate( inputs ) )
          << "cleanup " << static_cast<int>( cleanup ) << ", inputs " << a;
    }
  }
}

// --- Verilog diagnostics: file/line/token context ----------------------------

TEST( robustness_verilog, parser_errors_carry_file_line_and_token )
{
  try
  {
    verilog::parse_module( "module m(a;\n", "broken.v" );
    FAIL() << "expected a parse error";
  }
  catch ( const std::runtime_error& e )
  {
    const std::string what = e.what();
    EXPECT_NE( what.find( "broken.v:1" ), std::string::npos ) << what;
    EXPECT_NE( what.find( "near" ), std::string::npos ) << what;
    EXPECT_NE( what.find( "';'" ), std::string::npos ) << what;
  }
}

namespace
{

/// A one-assign module whose right-hand side is `expr`, on line 4.
std::string module_assigning( const std::string& expr )
{
  return "module deep(a, y);\n"
         "  input a;\n"
         "  output y;\n"
         "  assign y = " + expr + ";\n"
         "endmodule\n";
}

/// Parses `source` and returns the parse error message ("" if none).
std::string parse_error( const std::string& source )
{
  try
  {
    verilog::parse_module( source, "deep.v" );
  }
  catch ( const std::runtime_error& e )
  {
    return e.what();
  }
  return "";
}

} // namespace

TEST( robustness_verilog, deep_parentheses_are_a_parse_error_not_a_crash )
{
  // 20 000 nested parentheses are only ~40 KB of input but would overflow
  // the stack of an unbounded recursive descent.  The right-hand side
  // itself is level 1, so 255 parentheses are the documented 256 levels.
  const auto nested = []( std::size_t depth ) {
    return module_assigning( std::string( depth, '(' ) + "a" + std::string( depth, ')' ) );
  };
  EXPECT_EQ( parse_error( nested( 255 ) ), "" );
  EXPECT_EQ( verilog::elaborate_verilog( nested( 255 ) ).aig.num_pos(), 1u );
  for ( const std::size_t depth : { 256u, 20000u } )
  {
    const auto what = parse_error( nested( depth ) );
    EXPECT_NE( what.find( "deep.v:4" ), std::string::npos ) << depth << ": " << what;
    EXPECT_NE( what.find( "nested deeper than 256 levels" ), std::string::npos )
        << depth << ": " << what;
  }
}

TEST( robustness_verilog, deep_unary_chains_are_a_parse_error_not_a_crash )
{
  for ( const char op : { '~', '-', '!' } )
  {
    EXPECT_EQ( parse_error( module_assigning( std::string( 255, op ) + "a" ) ), "" ) << op;
    const auto what = parse_error( module_assigning( std::string( 50000, op ) + "a" ) );
    EXPECT_NE( what.find( "deep.v:4" ), std::string::npos ) << op << ": " << what;
    EXPECT_NE( what.find( "nested deeper than 256 levels" ), std::string::npos )
        << op << ": " << what;
  }
}

namespace
{

/// A module assigning `expr` over 4-bit inputs `a` and `b` to 4-bit `y`.
std::string nibble_module( const std::string& expr )
{
  return "module chain(a, b, y);\n"
         "  input [3:0] a;\n"
         "  input [3:0] b;\n"
         "  output [3:0] y;\n"
         "  assign y = " + expr + ";\n"
         "endmodule\n";
}

/// `terms` operands joined left-associatively, cycling through `ops` and
/// `operands`.
std::string operator_chain( const std::vector<std::string>& ops,
                            const std::vector<std::string>& operands, std::size_t terms )
{
  std::string chain = operands[0];
  for ( std::size_t i = 1; i < terms; ++i )
  {
    chain += " " + ops[i % ops.size()] + " " + operands[i % operands.size()];
  }
  return chain;
}

/// `y` of a `nibble_module` AIG for inputs `a` and `b`.
unsigned evaluate_nibble( const aig_network& aig, unsigned a, unsigned b )
{
  std::vector<bool> inputs;
  for ( const auto word : { a, b } )
  {
    for ( unsigned bit = 0; bit < 4u; ++bit )
    {
      inputs.push_back( ( word >> bit ) & 1u );
    }
  }
  const auto out = aig.evaluate( inputs );
  unsigned y = 0;
  for ( unsigned bit = 0; bit < 4u; ++bit )
  {
    y |= out[bit] ? 1u << bit : 0u;
  }
  return y;
}

} // namespace

TEST( robustness_verilog, long_operator_chains_elaborate_without_recursion )
{
  // A left-associative chain parses into a left spine as deep as the chain
  // is long; elaborating (and destroying) 50 000 terms used to overflow the
  // stack.
  const auto xor_chain =
      verilog::elaborate_verilog( nibble_module( operator_chain( { "^" }, { "a" }, 50001 ) ) );
  const auto add_chain =
      verilog::elaborate_verilog( nibble_module( operator_chain( { "+" }, { "a" }, 50003 ) ) );
  for ( unsigned a = 0; a < 16u; a += 5u )
  {
    EXPECT_EQ( evaluate_nibble( xor_chain.aig, a, 0u ), a ); // an odd count of a
    EXPECT_EQ( evaluate_nibble( add_chain.aig, a, 0u ), ( 50003u * a ) % 16u );
  }

  // The chain walk keeps the recursion's create_* order (`+ - * / %` right
  // operand first, every other operator left operand first), so the AIG is
  // node for node the one the recursive elaborator built.
  const std::vector<std::string> all_ops = { "^", "+",  "&",  "-", "|",  "*",  "/",  "%",  "<<",
                                             ">>", "<", "==", "&&", "||", "!=", ">=", "<=", ">" };
  const auto mixed = verilog::elaborate_verilog( nibble_module(
      operator_chain( all_ops, { "(a + b)", "(b - a)", "(a * b)", "(a ^ b)", "4'd3" }, 1000 ) ) );
  EXPECT_EQ( mixed.aig.num_ands(), 2787u );
  EXPECT_EQ( mixed.aig.content_hash(), 3235133762238064144ull );
}

TEST( robustness_verilog, elaborator_errors_name_source_and_module )
{
  const std::string source = "module broken(a, y);\n"
                             "  input a;\n"
                             "  output y;\n"
                             "endmodule\n"; // y is never driven
  try
  {
    verilog::elaborate_verilog( source, "undriven.v" );
    FAIL() << "expected an elaboration error";
  }
  catch ( const std::runtime_error& e )
  {
    const std::string what = e.what();
    EXPECT_NE( what.find( "undriven.v" ), std::string::npos ) << what;
    EXPECT_NE( what.find( "'broken'" ), std::string::npos ) << what;
    EXPECT_NE( what.find( "'y'" ), std::string::npos ) << what;
  }
}

TEST( robustness_verilog, malformed_source_degrades_to_a_failed_flow )
{
  flow_params params;
  try
  {
    run_flow_on_verilog( "module m(a, y; endmodule", params );
    FAIL() << "expected a parse error";
  }
  catch ( const std::runtime_error& e )
  {
    // The diagnostic is actionable: it locates the error.
    EXPECT_NE( std::string( e.what() ).find( ":1:" ), std::string::npos ) << e.what();
  }
}
