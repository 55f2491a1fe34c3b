/// Scheduler suite: the FIFO thread pool, the task-graph engine,
/// and the graph-built DSE explorations.  The central invariants:
///
///   * QSYN_THREADS pins the default worker count (the ctest `scheduler`
///     fixtures run this whole binary at 1, 2, and hardware threads),
///   * a task graph respects every dependency edge, coalesces shared keys
///     onto one in-flight task, and isolates failure to the failing task's
///     transitive dependents — with the original task's key as blame,
///   * graph-scheduled explorations are bit-identical to a plain loop of
///     `run_flow_on_aig` on every flow kind — costs, statuses, verdicts,
///     counterexamples and verification coverage — for single designs and
///     whole batches, at 1 worker and at the default worker count,
///   * stage failures stay attributable per point: the status detail names
///     the artifact key and stage that failed, shared task or not.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/budget.hpp"
#include "common/fault_injection.hpp"
#include "common/thread_pool.hpp"
#include "core/dse.hpp"
#include "core/flows.hpp"
#include "core/task_graph.hpp"
#include "verilog/elaborator.hpp"

using namespace qsyn;

namespace
{

/// Saves and restores QSYN_THREADS, so the env-override test cannot leak a
/// pinned value into the rest of the (possibly fixture-pinned) binary.
struct env_guard
{
  bool had = false;
  std::string saved;
  env_guard()
  {
    if ( const char* value = std::getenv( "QSYN_THREADS" ) )
    {
      had = true;
      saved = value;
    }
  }
  ~env_guard()
  {
    if ( had )
    {
      setenv( "QSYN_THREADS", saved.c_str(), 1 );
    }
    else
    {
      unsetenv( "QSYN_THREADS" );
    }
  }
};

/// RAII disarm so an assertion failure cannot leak an armed site into
/// later tests.
struct fault_guard
{
  ~fault_guard() { fault_injection::disarm_all(); }
};

/// Everything the engine must reproduce of the one-by-one oracle: costs,
/// status, and the full verification record.
void expect_same_point( const dse_point& point, const flow_params& config,
                        const flow_result& want, const std::string& context )
{
  const auto& got = point.result;
  EXPECT_EQ( point.label, dse_label( config ) ) << context;
  EXPECT_EQ( got.costs.qubits, want.costs.qubits ) << context;
  EXPECT_EQ( got.costs.t_count, want.costs.t_count ) << context;
  EXPECT_EQ( got.costs.gates, want.costs.gates ) << context;
  EXPECT_EQ( got.esop_terms, want.esop_terms ) << context;
  EXPECT_EQ( got.status, want.status ) << context;
  EXPECT_EQ( got.verified, want.verified ) << context;
  EXPECT_EQ( got.verified_with, want.verified_with ) << context;
  EXPECT_EQ( got.counterexample, want.counterexample ) << context;
  EXPECT_EQ( got.verify_complete, want.verify_complete ) << context;
  EXPECT_EQ( got.verify_samples_requested, want.verify_samples_requested ) << context;
  EXPECT_EQ( got.verify_samples_completed, want.verify_samples_completed ) << context;
}

/// The simulation tiers, whose verification runs inside each flow tail.
constexpr verify_mode simulation_tiers[] = { verify_mode::sampled, verify_mode::exhaustive };

/// Default worker count (0) and the inline single-worker pool.
constexpr unsigned worker_counts[] = { 0u, 1u };

std::string what_of( const std::exception_ptr& error )
{
  try
  {
    std::rethrow_exception( error );
  }
  catch ( const std::exception& e )
  {
    return e.what();
  }
  catch ( ... )
  {
    return "";
  }
}

} // namespace

// --- QSYN_THREADS ------------------------------------------------------------

TEST( scheduler_env, qsyn_threads_overrides_default_num_threads )
{
  env_guard guard;
  setenv( "QSYN_THREADS", "3", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), 3u );
  setenv( "QSYN_THREADS", "1", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), 1u );
  // Non-positive values clamp to 1 instead of starting zero workers.
  setenv( "QSYN_THREADS", "0", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), 1u );
  setenv( "QSYN_THREADS", "-4", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), 1u );
  // Unparsable values fall back to the hardware default, never 0.
  setenv( "QSYN_THREADS", "not-a-number", 1 );
  EXPECT_GE( thread_pool::default_num_threads(), 1u );
  unsetenv( "QSYN_THREADS" );
  EXPECT_GE( thread_pool::default_num_threads(), 1u );
}

TEST( scheduler_env, qsyn_threads_clamps_oversized_values )
{
  env_guard guard;
  // 2^32 + 1 used to survive the long parse and wrap to 1 in the
  // long -> unsigned cast; 2^32 + 20000 wrapped to 20000 workers.  Both
  // now clamp to the documented ceiling.
  setenv( "QSYN_THREADS", "4294967297", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), thread_pool::max_env_threads );
  setenv( "QSYN_THREADS", "4294987296", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), thread_pool::max_env_threads );
  // Values beyond LONG_MAX saturate in strtol and clamp the same way.
  setenv( "QSYN_THREADS", "99999999999999999999999999", 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), thread_pool::max_env_threads );
  // The largest accepted value passes through unchanged.
  setenv( "QSYN_THREADS", std::to_string( thread_pool::max_env_threads ).c_str(), 1 );
  EXPECT_EQ( thread_pool::default_num_threads(), thread_pool::max_env_threads );
}

// --- task graph: shapes ------------------------------------------------------

TEST( scheduler_graph, inline_diamond_runs_in_deterministic_topological_order )
{
  task_graph graph;
  std::vector<int> order; // inline pool: single-threaded, no lock needed
  const auto a = graph.add( "a", [&order] { order.push_back( 0 ); } );
  const auto b = graph.add( "b", [&order] { order.push_back( 1 ); }, { a } );
  const auto c = graph.add( "c", [&order] { order.push_back( 2 ); }, { a } );
  const auto d = graph.add( "d", [&order] { order.push_back( 3 ); }, { b, c } );
  thread_pool pool( 1 );
  graph.run( pool );
  // The determinism contract: each finished task submits its ready
  // dependents in insertion order, recursively, so the diamond is 0-1-2-3.
  EXPECT_EQ( order, ( std::vector<int>{ 0, 1, 2, 3 } ) );
  for ( const auto id : { a, b, c, d } )
  {
    EXPECT_EQ( graph.state( id ), task_state::done ) << graph.key( id );
  }
  const auto stats = graph.stats();
  EXPECT_EQ( stats.tasks_added, 4u );
  EXPECT_EQ( stats.tasks_run, 4u );
  EXPECT_EQ( stats.coalesced, 0u );
  EXPECT_GE( stats.wall_seconds, 0.0 );
  EXPECT_GE( stats.critical_path_seconds, 0.0 );
}

TEST( scheduler_graph, diamond_on_workers_respects_every_edge )
{
  task_graph graph;
  std::atomic<bool> a_done{ false }, b_done{ false }, c_done{ false };
  std::atomic<int> violations{ 0 };
  const auto a = graph.add( "a", [&a_done] { a_done = true; } );
  const auto b = graph.add( "b",
                            [&] {
                              if ( !a_done )
                              {
                                violations.fetch_add( 1 );
                              }
                              b_done = true;
                            },
                            { a } );
  const auto c = graph.add( "c",
                            [&] {
                              if ( !a_done )
                              {
                                violations.fetch_add( 1 );
                              }
                              c_done = true;
                            },
                            { a } );
  graph.add( "d",
             [&] {
               if ( !b_done || !c_done )
               {
                 violations.fetch_add( 1 );
               }
             },
             { b, c } );
  thread_pool pool( 2 );
  graph.run( pool );
  EXPECT_EQ( violations.load(), 0 );
  EXPECT_EQ( graph.stats().tasks_run, 4u );
}

TEST( scheduler_graph, wide_fan_in_waits_for_every_producer )
{
  task_graph graph;
  constexpr std::size_t width = 16;
  std::vector<std::atomic<bool>> produced( width );
  std::vector<task_id> producers;
  for ( std::size_t i = 0; i < width; ++i )
  {
    producers.push_back(
        graph.add( "p" + std::to_string( i ), [&produced, i] { produced[i] = true; } ) );
  }
  std::atomic<int> missing{ 0 };
  graph.add( "sink",
             [&] {
               for ( std::size_t i = 0; i < width; ++i )
               {
                 if ( !produced[i] )
                 {
                   missing.fetch_add( 1 );
                 }
               }
             },
             producers );
  // The fixture-pinned worker count (QSYN_THREADS) exercises 1, 2, and
  // hardware-wide pools over the same graph.
  thread_pool pool( thread_pool::default_num_threads() );
  graph.run( pool );
  EXPECT_EQ( missing.load(), 0 );
  EXPECT_EQ( graph.stats().tasks_run, width + 1 );
}

// --- task graph: coalescing --------------------------------------------------

TEST( scheduler_graph, shared_keys_coalesce_onto_one_task )
{
  task_graph graph;
  std::atomic<int> runs{ 0 };
  const auto first = graph.add_shared( "artifact", [&runs] { runs.fetch_add( 1 ); } );
  // The duplicate's callable must be dropped, not queued: first writer wins.
  const auto second = graph.add_shared( "artifact", [&runs] { runs.fetch_add( 100 ); } );
  EXPECT_EQ( first, second );
  EXPECT_EQ( graph.size(), 1u );
  ASSERT_TRUE( graph.find( "artifact" ).has_value() );
  EXPECT_EQ( *graph.find( "artifact" ), first );
  EXPECT_FALSE( graph.find( "missing" ).has_value() );
  thread_pool pool( 1 );
  graph.run( pool );
  EXPECT_EQ( runs.load(), 1 );
  EXPECT_EQ( graph.stats().coalesced, 1u );
  EXPECT_EQ( graph.stats().tasks_run, 1u );
}

TEST( scheduler_graph, coalesced_shared_task_merges_new_dependencies )
{
  task_graph graph;
  std::atomic<bool> p1_done{ false }, p2_done{ false };
  std::atomic<int> violations{ 0 };
  const auto p1 = graph.add( "p1", [&p1_done] { p1_done = true; } );
  const auto p2 = graph.add( "p2", [&p2_done] { p2_done = true; } );
  const auto first = graph.add_shared( "artifact",
                                       [&] {
                                         if ( !p1_done || !p2_done )
                                         {
                                           violations.fetch_add( 1 );
                                         }
                                       },
                                       { p1 } );
  // Regression: the duplicate's callable is dropped, but its deps must be
  // MERGED — the shared task must not run before a prerequisite only the
  // later caller knows about.
  const auto second = graph.add_shared( "artifact", [] {}, { p2 } );
  EXPECT_EQ( first, second );
  EXPECT_EQ( graph.stats().coalesced, 1u );
  // A dep added after the shared task cannot be merged without risking a
  // cycle; dropping it silently would be worse, so it throws.
  const auto later = graph.add( "later", [] {} );
  EXPECT_THROW( graph.add_shared( "artifact", [] {}, { later } ),
                std::invalid_argument );
  thread_pool pool( thread_pool::default_num_threads() );
  graph.run( pool );
  EXPECT_EQ( violations.load(), 0 );
  EXPECT_EQ( graph.state( first ), task_state::done );
}

TEST( scheduler_graph, inline_run_reports_no_task_overlap )
{
  task_graph graph;
  for ( int i = 0; i < 3; ++i )
  {
    graph.add( "t" + std::to_string( i ),
               [] { std::this_thread::sleep_for( std::chrono::milliseconds( 2 ) ); } );
  }
  thread_pool pool( 1 );
  graph.run( pool );
  EXPECT_EQ( graph.stats().max_concurrency, 1u );
}

TEST( scheduler_graph, overlapping_tasks_report_their_peak_concurrency )
{
  task_graph graph;
  std::atomic<bool> a_started{ false }, b_started{ false };
  const auto spin_until = []( const std::atomic<bool>& flag ) {
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds( 10 );
    while ( !flag.load() && std::chrono::steady_clock::now() < give_up )
    {
      std::this_thread::yield();
    }
  };
  // Each seed waits for the other to start, so on two workers the two
  // intervals provably overlap — the signal the dead-parallelism canary
  // in run_bench.sh gates on.
  graph.add( "a", [&] {
    a_started = true;
    spin_until( b_started );
  } );
  graph.add( "b", [&] {
    b_started = true;
    spin_until( a_started );
  } );
  thread_pool pool( 2 );
  graph.run( pool );
  EXPECT_EQ( graph.stats().max_concurrency, 2u );
}

// --- task graph: failure isolation -------------------------------------------

TEST( scheduler_graph, failure_poisons_only_transitive_dependents )
{
  task_graph graph;
  const auto a = graph.add( "a", [] { throw std::runtime_error( "stage exploded" ); } );
  const auto b = graph.add( "b", [] {}, { a } );
  const auto c = graph.add( "c", [] {}, { b } );
  std::atomic<bool> d_ran{ false };
  const auto d = graph.add( "d", [&d_ran] { d_ran = true; } );
  thread_pool pool( 1 );
  graph.run( pool );

  EXPECT_EQ( graph.state( a ), task_state::failed );
  EXPECT_EQ( graph.state( b ), task_state::poisoned );
  EXPECT_EQ( graph.state( c ), task_state::poisoned );
  EXPECT_EQ( graph.state( d ), task_state::done );
  EXPECT_TRUE( d_ran.load() );
  // Poisoning propagates the ULTIMATE origin: c blames a, not b.
  EXPECT_EQ( graph.blame( b ), "a" );
  EXPECT_EQ( graph.blame( c ), "a" );
  EXPECT_EQ( what_of( graph.error( c ) ), "stage exploded" );
  const auto stats = graph.stats();
  EXPECT_EQ( stats.tasks_failed, 1u );
  EXPECT_EQ( stats.tasks_poisoned, 2u );
  EXPECT_EQ( stats.tasks_run, 1u );
}

TEST( scheduler_graph, expired_deadline_cancels_unstarted_tasks_and_poisons_dependents )
{
  deadline stop;
  task_graph graph;
  const auto a = graph.add( "a", [&stop] {
    while ( !stop.expired() )
    {
    }
  } );
  const auto b = graph.add( "b", [] {}, { a } );
  const auto c = graph.add( "c", [] {} );
  const auto d = graph.add( "d", [] {}, { c } );
  // Inline order: a runs until the deadline expires, then b is cancelled
  // pre-start, then seed c is cancelled pre-start and poisons d.
  thread_pool pool( 1 );
  stop = deadline::in( 0.010 );
  graph.run( pool, stop );

  EXPECT_EQ( graph.state( a ), task_state::done );
  EXPECT_EQ( graph.state( b ), task_state::cancelled );
  EXPECT_EQ( graph.state( c ), task_state::cancelled );
  EXPECT_EQ( graph.state( d ), task_state::poisoned );
  EXPECT_EQ( graph.blame( d ), "c" );
  EXPECT_THROW( std::rethrow_exception( graph.error( b ) ), budget_exhausted );
  // The cancellation record names the task it struck.
  EXPECT_NE( what_of( graph.error( b ) ).find( "'b'" ), std::string::npos );
  const auto stats = graph.stats();
  EXPECT_EQ( stats.tasks_run, 1u );
  EXPECT_EQ( stats.tasks_cancelled, 2u );
  EXPECT_EQ( stats.tasks_poisoned, 1u );
}

TEST( scheduler_graph, graph_rejects_forward_edges_and_reruns )
{
  task_graph graph;
  EXPECT_THROW( graph.add( "x", [] {}, { 0 } ), std::invalid_argument );
  graph.add( "x", [] {} );
  thread_pool pool( 1 );
  graph.run( pool );
  EXPECT_THROW( graph.run( pool ), std::logic_error );
  EXPECT_THROW( graph.add( "y", [] {} ), std::logic_error );
}

TEST( scheduler_graph, flow_tasks_read_their_deadline_when_they_run )
{
  // Regression: the per-configuration deadline must be READ when a flow
  // task runs, not copied at graph-build time — the batch driver arms it
  // from the design's elaborate task, so designs scheduled late in a long
  // sweep must not start with their per-flow clock already consumed.
  // Here an upstream task arms the deadline slot with an expired limit
  // after the graph was built; a build-time copy (unlimited) would let the
  // tail run to completion instead of timing out.
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 5 ) );
  flow_params params;
  params.kind = flow_kind::hierarchical;
  params.verify = false;

  task_graph graph;
  flow_artifact_cache cache;
  flow_result out;
  deadline armed; // unlimited while the graph is built
  const auto arm = graph.add( "arm", [&armed] {
    armed = deadline::in( 1e-9 );
    while ( !armed.expired() )
    {
    }
  } );
  const auto ids =
      add_flow_tasks( graph, mod.aig, params, cache, armed, out, {}, { arm } );
  thread_pool pool( 1 );
  graph.run( pool );

  EXPECT_EQ( graph.state( ids.tail ), task_state::failed );
  EXPECT_THROW( std::rethrow_exception( graph.error( ids.tail ) ), budget_exhausted );
}

// --- graph-scheduled DSE -----------------------------------------------------

TEST( scheduler_dse, task_graph_matches_run_flow_loop_bit_for_bit )
{
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 5 ) );
  for ( const auto tier : simulation_tiers )
  {
    auto configs = default_dse_configurations( true );
    for ( auto& config : configs )
    {
      config.verification = tier;
    }
    // The oracle: one full pipeline per configuration, fresh cache each.
    std::vector<flow_result> expect;
    for ( const auto& config : configs )
    {
      expect.push_back( run_flow_on_aig( mod.aig, config ) );
    }

    for ( const auto workers : worker_counts )
    {
      explore_options graphed;
      graphed.num_threads = workers;
      flow_artifact_cache cache;
      task_graph_stats stats;
      const auto got = explore( mod.aig, configs, graphed, cache, deadline{}, stats );

      const auto context = verify_mode_name( tier ) + " workers=" + std::to_string( workers );
      ASSERT_EQ( got.size(), expect.size() ) << context;
      for ( std::size_t i = 0; i < got.size(); ++i )
      {
        expect_same_point( got[i], configs[i], expect[i], context + " " + got[i].label );
        EXPECT_TRUE( got[i].result.verified ) << context << " " << got[i].label;
      }
      // 6 configurations share 4 artifact tasks (optimize, collapse, esop,
      // xmg): 10 tasks, all run, and the 8 duplicate artifact requests
      // (5 optimize + 2 esop + 1 xmg) coalesce instead of recomputing.
      EXPECT_EQ( cache.stats().misses, 4u ) << context;
      EXPECT_EQ( stats.tasks_added, configs.size() + 4u ) << context;
      EXPECT_EQ( stats.tasks_run, stats.tasks_added ) << context;
      EXPECT_EQ( stats.coalesced, 8u ) << context;
      EXPECT_EQ( stats.tasks_failed + stats.tasks_poisoned + stats.tasks_cancelled, 0u )
          << context;
      // The critical path is the lower bound of any schedule of this graph.
      EXPECT_LE( stats.critical_path_seconds, stats.wall_seconds + 0.05 ) << context;
    }
  }
}

TEST( scheduler_dse, poisoned_points_name_the_failing_stage_task )
{
  fault_guard guard;
  const auto mod =
      verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::intdiv, 5 ) );
  const auto configs = default_dse_configurations( true );
  explore_options options;
  options.num_threads = 1; // deterministic poll order: one xmg task, one poll
  fault_injection::arm( "flow.xmg", fault_injection::kind::fail, 0, 1 );
  flow_artifact_cache cache;
  const auto points = explore( mod.aig, configs, options, cache );
  fault_injection::disarm_all();

  for ( const auto& point : points )
  {
    if ( point.params.kind == flow_kind::hierarchical )
    {
      // The regression this guards: the shared xmg task fails ONCE, and
      // every dependent point's record still names the artifact key (which
      // carries the stage name) plus the underlying fault.
      EXPECT_EQ( point.result.status, flow_status::failed ) << point.label;
      EXPECT_NE( point.result.status_detail.find( "stage '" ), std::string::npos )
          << point.result.status_detail;
      EXPECT_NE( point.result.status_detail.find( "xmg[" ), std::string::npos )
          << point.result.status_detail;
      EXPECT_NE( point.result.status_detail.find( "flow.xmg" ), std::string::npos )
          << point.result.status_detail;
    }
    else
    {
      EXPECT_EQ( point.result.status, flow_status::ok ) << point.label;
    }
  }
}

TEST( scheduler_dse, batch_graph_matches_run_flow_loop_bit_for_bit )
{
  const std::vector<reciprocal_design> designs = { reciprocal_design::intdiv,
                                                   reciprocal_design::newton };
  for ( const auto tier : simulation_tiers )
  {
    explore_options options;
    options.verification = tier;
    // The oracle: every design elaborated, then its default configurations
    // run one by one through `run_flow_on_aig`, in the batch's order.
    std::vector<std::vector<flow_params>> configs;
    std::vector<std::vector<flow_result>> expect;
    for ( const auto design : designs )
    {
      const auto aig = verilog::elaborate_verilog( reciprocal_verilog( design, 5 ) ).aig;
      configs.push_back( default_dse_configurations( 5u <= options.functional_max_bitwidth ) );
      expect.emplace_back();
      for ( auto& config : configs.back() )
      {
        config.verification = tier;
        expect.back().push_back( run_flow_on_aig( aig, config ) );
      }
    }

    for ( const auto workers : worker_counts )
    {
      options.num_threads = workers;
      task_graph_stats stats;
      const auto got = explore_designs( designs, 5, 5, options, stats );

      const auto context = verify_mode_name( tier ) + " workers=" + std::to_string( workers );
      ASSERT_EQ( got.size(), expect.size() ) << context;
      for ( std::size_t d = 0; d < got.size(); ++d )
      {
        EXPECT_EQ( got[d].status, flow_status::ok ) << context << " " << got[d].name;
        ASSERT_EQ( got[d].points.size(), expect[d].size() ) << context << " " << got[d].name;
        for ( std::size_t i = 0; i < expect[d].size(); ++i )
        {
          expect_same_point( got[d].points[i], configs[d][i], expect[d][i],
                             context + " " + got[d].name + " " + got[d].points[i].label );
        }
        // One miss per distinct artifact: optimize, collapse, esop, xmg.
        EXPECT_EQ( got[d].cache.misses, 4u ) << context << " " << got[d].name;
      }
      // Per design: 1 elaborate + 4 artifacts + 6 tails, and 8 coalesced
      // artifact requests (5 optimize + 2 esop + 1 xmg); two designs, one
      // graph.
      EXPECT_EQ( stats.tasks_added, 22u ) << context;
      EXPECT_EQ( stats.tasks_run, 22u ) << context;
      EXPECT_EQ( stats.coalesced, 16u ) << context;
    }
  }
}
