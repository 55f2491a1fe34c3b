/// \file bench_dse.cpp
/// \brief Benchmark of the design-space-exploration engine: the sequential
/// seed path (one full pipeline per configuration, no artifact sharing)
/// against the cached + threaded engine, on the default reciprocal-design
/// sweep.
///
/// For every (design, bitwidth) case both paths run the identical
/// configuration list; the benchmark asserts that labels, qubit counts,
/// T-counts and gate counts agree point-by-point (the engine must change
/// the wall clock only), and writes BENCH_dse.json with both wall clocks,
/// the speedup, and the cache hit/miss counters so every future PR can
/// extend the perf trajectory.
///
/// Schema v3 additionally reports the task-graph scheduler: per case the
/// tasks run, coalesced artifact requests, and the critical path of the
/// dependency DAG (the wall clock an ideal scheduler would need), and a
/// multi-design sweep section running the whole batch as one task graph
/// on the thread pool (`--sweep-threads` workers, default max(4,
/// hardware)) — wall clock and scheduler counters reported.
///
/// Schema v4 adds the persistent-store sections.  `store_sweep` runs the
/// batch sweep twice against one on-disk artifact store root — cold
/// (empty store) then warm (fresh caches, same root, simulating a new
/// process) — and requires the warm pass to recompute no stage artifact
/// at all (misses == 0, store hits == the cold pass's misses) with
/// bit-identical costs.  `daemon` synthesizes one query through a
/// `synthesis_daemon`, repeats it, and reports the repeat-from-cache
/// latency ratio plus whether a second daemon instance on the same store
/// root answers the query from disk without synthesizing.
///
/// Schema v5 extends the `daemon` section with a concurrent-clients case:
/// N identical queries fired at a fresh daemon (empty caches) must
/// coalesce into exactly one synthesis and every client must receive the
/// same payload (`coalesced_ok`), now that requests run on the daemon's
/// shared task-graph pool instead of their connection threads.
///
/// Schema v6 drops the sweep's comparison against the retired
/// one-design-at-a-time driver (its wall clock, the ratio and `identical`):
/// the batch sweep has one engine.
///
/// Schema v7 reports each case's `seq_wall_s` and `cached_wall_s` as the
/// median of 5 timed runs of that half instead of a single run.
///
/// Schema v8 drops the steal counts (`sweep.steals`, per-case
/// `sched_steals`): the pool is one FIFO queue and nothing steals.
///
/// Usage: bench_dse [--out FILE] [--quick] [--max N] [--threads N]
///                  [--sweep-threads N] [--no-verify]
///                  [--verify-mode sampled|exhaustive|sat]
///                  [--deadline-ms N] [--sat-conflict-budget N]
///
/// `--deadline-ms` arms a per-configuration wall-clock deadline and
/// `--sat-conflict-budget` caps the SAT verifier's conflicts; both default
/// to 0 (unlimited), which keeps the committed baseline bit-identical.
/// They exist for robustness experiments — a budgeted run reports
/// non-`ok` point statuses instead of hanging, and its cost numbers are
/// not comparable against the baseline gates.
///
/// Verification runs through the tiered engine (`verify_mode`): 64-way
/// bit-parallel sampled simulation by default, exhaustive enumeration or a
/// SAT miter on request; per-case verification seconds are reported
/// separately from the synthesis wall clocks.  (The default sweep used to
/// stop at n = 7 because scalar per-point simulation dominated from n = 8
/// on; the block engine removed that cliff, and the sweep ceiling is kept
/// only for wall-clock continuity of the committed baseline.)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/dse.hpp"
#include "store/artifact_store.hpp"
#include "store/daemon.hpp"
#include "verilog/elaborator.hpp"

namespace
{

using namespace qsyn;

struct case_result
{
  std::string name;
  unsigned bitwidth = 0;
  std::size_t num_configs = 0;
  double seq_wall_s = 0.0;    ///< median of timing_repetitions runs
  double cached_wall_s = 0.0; ///< median of timing_repetitions runs
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  double verify_s = 0.0; ///< cached-path verification seconds, summed
  bool identical = true;
  bool all_verified = true;
  std::size_t non_ok_points = 0; ///< degraded/timed_out/failed points (both paths)
  task_graph_stats sched;        ///< cached-path (task-graph engine) scheduler stats
};

bool points_identical( const std::vector<dse_point>& a, const std::vector<dse_point>& b )
{
  if ( a.size() != b.size() )
  {
    return false;
  }
  for ( std::size_t i = 0; i < a.size(); ++i )
  {
    if ( a[i].label != b[i].label || a[i].result.costs.qubits != b[i].result.costs.qubits ||
         a[i].result.costs.t_count != b[i].result.costs.t_count ||
         a[i].result.costs.gates != b[i].result.costs.gates )
    {
      return false;
    }
  }
  return true;
}

/// Timed runs of each half of a case; the JSON reports their median.
constexpr unsigned timing_repetitions = 5;

double median( std::vector<double> values )
{
  std::sort( values.begin(), values.end() );
  return values[values.size() / 2u];
}

/// The sequential baseline: `run_flow_on_aig` per configuration, with
/// budget expiries and stage failures recorded like the engine records them.
std::vector<dse_point> run_sequential( const aig_network& aig,
                                       const std::vector<flow_params>& configs )
{
  std::vector<dse_point> points;
  for ( const auto& config : configs )
  {
    dse_point point{ dse_label( config ), config, {} };
    try
    {
      point.result = run_flow_on_aig( aig, config );
    }
    catch ( const budget_exhausted& e )
    {
      point.result.status = flow_status::timed_out;
      point.result.status_detail = e.what();
    }
    catch ( const std::exception& e )
    {
      point.result.status = flow_status::failed;
      point.result.status_detail = e.what();
    }
    points.push_back( std::move( point ) );
  }
  return points;
}

case_result run_case( reciprocal_design design, unsigned n, bool include_functional,
                      bool verify, verify_mode mode, unsigned num_threads,
                      const budget& limits )
{
  case_result r;
  r.name = ( design == reciprocal_design::intdiv ? "intdiv-n" : "newton-n" ) + std::to_string( n );
  r.bitwidth = n;

  const auto mod = verilog::elaborate_verilog( reciprocal_verilog( design, n ) );
  auto configs = default_dse_configurations( include_functional );
  for ( auto& c : configs )
  {
    c.verify = verify;
    c.verification = mode;
    c.limits = limits;
  }
  r.num_configs = configs.size();

  // Each half is timed `timing_repetitions` times and reports its median:
  // a case's cached half takes milliseconds, close to run-to-run noise.
  // The points, cache counters and scheduler stats are the first
  // repetition's; every later repetition must reproduce its costs.
  std::vector<dse_point> seq_points;
  std::vector<dse_point> cached_points;
  std::vector<double> seq_walls;
  std::vector<double> cached_walls;
  explore_options par;
  par.num_threads = num_threads;
  for ( unsigned rep = 0; rep < timing_repetitions; ++rep )
  {
    // Sequential seed path: no artifact sharing, one full pipeline per
    // configuration (a fresh cache each), inline.
    stopwatch watch;
    auto seq = run_sequential( mod.aig, configs );
    seq_walls.push_back( watch.elapsed_seconds() );

    // Cached task-graph engine: coalesced stage-artifact tasks feeding the
    // per-configuration tails on the thread pool, from a fresh cache.
    flow_artifact_cache cache;
    task_graph_stats sched;
    watch.restart();
    auto cached = explore( mod.aig, configs, par, cache, deadline{}, sched );
    cached_walls.push_back( watch.elapsed_seconds() );

    if ( rep == 0u )
    {
      seq_points = std::move( seq );
      cached_points = std::move( cached );
      r.sched = sched;
      r.cache_hits = cache.stats().hits;
      r.cache_misses = cache.stats().misses;
      r.identical = points_identical( seq_points, cached_points );
    }
    else
    {
      r.identical = r.identical && points_identical( seq_points, seq ) &&
                    points_identical( seq_points, cached );
    }
  }
  r.seq_wall_s = median( seq_walls );
  r.cached_wall_s = median( cached_walls );

  for ( const auto* pts : { &seq_points, &cached_points } )
  {
    for ( const auto& p : *pts )
    {
      if ( p.result.status != flow_status::ok )
      {
        ++r.non_ok_points;
        std::printf( "  %-24s %s: %s\n", p.label.c_str(),
                     flow_status_name( p.result.status ).c_str(),
                     p.result.status_detail.c_str() );
      }
    }
  }
  if ( verify )
  {
    for ( const auto& p : cached_points )
    {
      r.all_verified = r.all_verified && p.result.verified;
      r.verify_s += p.result.verify_seconds;
    }
    for ( const auto& p : seq_points )
    {
      r.all_verified = r.all_verified && p.result.verified;
    }
  }

  std::printf( "%-12s %zu configs | seq %8.3f s | cached %8.3f s (%.2fx) | verify %6.3f s | %zu hits %zu misses | %s%s\n",
               r.name.c_str(), r.num_configs, r.seq_wall_s, r.cached_wall_s,
               r.seq_wall_s / ( r.cached_wall_s > 0 ? r.cached_wall_s : 1e-9 ), r.verify_s,
               r.cache_hits, r.cache_misses, r.identical ? "identical" : "COSTS DIVERGED",
               verify ? ( r.all_verified ? ", verified" : ", VERIFY FAILED" ) : "" );
  std::printf( "             scheduler: %zu tasks, %zu coalesced, critical path %6.3f s vs wall %6.3f s\n",
               r.sched.tasks_run, r.sched.coalesced, r.sched.critical_path_seconds, r.sched.wall_seconds );
  return r;
}

/// The multi-design sweep: the whole batch as one task graph.
struct sweep_result
{
  unsigned min_n = 0;
  unsigned max_n = 0;
  unsigned threads = 0;
  double task_graph_wall_s = 0.0;
  bool all_ok = true;
  task_graph_stats sched;
};

bool sweeps_identical( const std::vector<design_exploration>& a,
                       const std::vector<design_exploration>& b )
{
  if ( a.size() != b.size() )
  {
    return false;
  }
  for ( std::size_t d = 0; d < a.size(); ++d )
  {
    if ( a[d].name != b[d].name || a[d].status != b[d].status ||
         !points_identical( a[d].points, b[d].points ) )
    {
      return false;
    }
  }
  return true;
}

sweep_result run_sweep( unsigned min_n, unsigned max_n, unsigned threads, bool verify,
                        verify_mode mode, const budget& limits )
{
  sweep_result r;
  r.min_n = min_n;
  r.max_n = max_n;
  r.threads = threads;

  explore_options options;
  options.num_threads = threads;
  options.functional_max_bitwidth = 6; // same ceiling as the per-case sweep
  options.verification = verify ? mode : verify_mode::none;
  options.limits = limits;
  stopwatch watch;
  const auto graphed = explore_designs( { reciprocal_design::intdiv, reciprocal_design::newton },
                                        min_n, max_n, options, r.sched );
  r.task_graph_wall_s = watch.elapsed_seconds();
  for ( const auto& entry : graphed )
  {
    r.all_ok = r.all_ok && entry.status == flow_status::ok;
  }

  std::printf( "\nsweep n=%u..%u on %u threads | task-graph %8.3f s\n", min_n, max_n, threads,
               r.task_graph_wall_s );
  std::printf( "  scheduler: %zu tasks, %zu coalesced, peak concurrency %zu, critical path %6.3f s vs wall %6.3f s\n",
               r.sched.tasks_run, r.sched.coalesced, r.sched.max_concurrency,
               r.sched.critical_path_seconds, r.sched.wall_seconds );
  return r;
}

/// The persistent-store sweep: cold pass against an empty store root, then
/// a warm pass with fresh per-design caches on the same root — the
/// "restarted process" — which must recompute no stage artifact at all.
struct store_sweep_result
{
  unsigned min_n = 0;
  unsigned max_n = 0;
  double cold_wall_s = 0.0;
  double warm_wall_s = 0.0;
  std::size_t cold_misses = 0;
  std::size_t warm_misses = 0;
  std::size_t warm_store_hits = 0;
  bool identical = true;
  bool recompute_free = false; ///< warm misses == 0 && store hits == cold misses
};

store_sweep_result run_store_sweep( unsigned min_n, unsigned max_n, bool verify,
                                    verify_mode mode, const budget& limits )
{
  store_sweep_result r;
  r.min_n = min_n;
  r.max_n = max_n;

  char root_template[] = "/tmp/qsyn-bench-store-XXXXXX";
  const std::string root = ::mkdtemp( root_template );

  explore_options options;
  options.verification = verify ? mode : verify_mode::none;
  options.limits = limits;
  // Functional collapse artifacts are memory-only by design (exponential
  // truth tables, cheap to rebuild); exclude that flow so "recompute-free"
  // is a meaningful all-or-nothing gate on the disk tier.
  options.functional_max_bitwidth = 0;
  const std::vector<reciprocal_design> designs = { reciprocal_design::intdiv,
                                                   reciprocal_design::newton };

  const auto aggregate = []( const std::vector<design_exploration>& sweep ) {
    cache_stats total;
    for ( const auto& entry : sweep )
    {
      total.hits += entry.cache.hits;
      total.misses += entry.cache.misses;
      total.store_hits += entry.cache.store_hits;
    }
    return total;
  };

  options.store = std::make_shared<store::artifact_store>( root );
  stopwatch watch;
  const auto cold = explore_designs( designs, min_n, max_n, options );
  r.cold_wall_s = watch.elapsed_seconds();
  r.cold_misses = aggregate( cold ).misses;

  // Fresh store handle on the same root: nothing survives but the disk.
  options.store = std::make_shared<store::artifact_store>( root );
  watch.restart();
  const auto warm = explore_designs( designs, min_n, max_n, options );
  r.warm_wall_s = watch.elapsed_seconds();
  const auto warm_stats = aggregate( warm );
  r.warm_misses = warm_stats.misses;
  r.warm_store_hits = warm_stats.store_hits;

  r.identical = sweeps_identical( cold, warm );
  r.recompute_free = r.warm_misses == 0 && r.warm_store_hits == r.cold_misses;

  std::error_code ec;
  std::filesystem::remove_all( root, ec );

  std::printf( "\nstore sweep n=%u..%u | cold %8.3f s (%zu misses) | warm %8.3f s "
               "(%zu misses, %zu store hits) | %s, %s\n",
               min_n, max_n, r.cold_wall_s, r.cold_misses, r.warm_wall_s, r.warm_misses,
               r.warm_store_hits, r.identical ? "identical" : "COSTS DIVERGED",
               r.recompute_free ? "recompute-free" : "RECOMPUTED ARTIFACTS" );
  return r;
}

/// The daemon repeat-query measurement: one synthesis through a
/// `synthesis_daemon`, the identical query again (memory result cache),
/// and the same query against a second daemon instance sharing the store
/// root (disk result cache).
struct daemon_result
{
  double first_s = 0.0;
  double repeat_s = 0.0;
  bool repeat_from_cache = false;
  bool restart_from_cache = false;
  /// Concurrent-clients case: N identical in-flight queries against a
  /// fresh daemon must coalesce into exactly one synthesis.
  std::size_t concurrent_clients = 0;
  std::size_t concurrent_synthesized = 0;
  double concurrent_wall_s = 0.0;
  bool coalesced_ok = false;
  bool ok = false;
};

daemon_result run_daemon_repeat()
{
  daemon_result r;

  char root_template[] = "/tmp/qsyn-bench-daemon-XXXXXX";
  const std::string root = ::mkdtemp( root_template );

  const std::string request =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":6,"flow":"esop","esop_p":1,"verify":"sampled"})";
  const auto from_cache = []( const std::string& response ) {
    return response.find( "\"from_cache\":true" ) != std::string::npos;
  };
  const auto answered_ok = []( const std::string& response ) {
    return response.find( "\"ok\":true" ) != std::string::npos;
  };

  std::string first, repeat, restarted;
  {
    store::synthesis_daemon daemon( { "", root } );
    stopwatch watch;
    first = daemon.handle_request( request );
    r.first_s = watch.elapsed_seconds();
    watch.restart();
    repeat = daemon.handle_request( request );
    r.repeat_s = watch.elapsed_seconds();
  }
  store::synthesis_daemon reborn( { "", root } );
  restarted = reborn.handle_request( request );

  r.repeat_from_cache = from_cache( repeat );
  r.restart_from_cache = from_cache( restarted ) && reborn.stats().synthesized == 0;

  // Concurrent-clients case: N identical queries fired at a fresh daemon
  // (empty store, empty memory cache) must coalesce into exactly one
  // synthesis, and every client must receive the same answer.  Strip the
  // volatile fields so bit-identity covers the circuit payload and costs.
  const auto payload_of = []( std::string response ) {
    for ( const char* field :
          { "\"from_cache\":", "\"runtime_seconds\":", "\"seconds\":" } )
    {
      const auto pos = response.find( field );
      if ( pos == std::string::npos )
      {
        continue;
      }
      auto end = response.find( ',', pos );
      if ( end == std::string::npos )
      {
        end = response.size();
      }
      else
      {
        ++end; // also remove the comma
      }
      response.erase( pos, end - pos );
    }
    return response;
  };
  {
    char concurrent_template[] = "/tmp/qsyn-bench-daemon-XXXXXX";
    const std::string concurrent_root = ::mkdtemp( concurrent_template );
    store::synthesis_daemon fresh( { "", concurrent_root } );
    constexpr std::size_t num_clients = 8;
    std::vector<std::string> responses( num_clients );
    std::vector<std::thread> clients;
    clients.reserve( num_clients );
    stopwatch watch;
    for ( std::size_t i = 0; i < num_clients; ++i )
    {
      clients.emplace_back( [&fresh, &request, &responses, i] {
        responses[i] = fresh.handle_request( request );
      } );
    }
    for ( auto& client : clients )
    {
      client.join();
    }
    r.concurrent_wall_s = watch.elapsed_seconds();
    r.concurrent_clients = num_clients;
    r.concurrent_synthesized = fresh.stats().synthesized;
    bool all_agree = true;
    for ( const auto& response : responses )
    {
      all_agree = all_agree && answered_ok( response ) &&
                  payload_of( response ) == payload_of( responses[0] );
    }
    r.coalesced_ok = all_agree && r.concurrent_synthesized == 1;
    std::error_code concurrent_ec;
    std::filesystem::remove_all( concurrent_root, concurrent_ec );
  }

  r.ok = answered_ok( first ) && answered_ok( repeat ) && answered_ok( restarted ) &&
         r.repeat_from_cache && r.restart_from_cache && r.coalesced_ok;

  std::error_code ec;
  std::filesystem::remove_all( root, ec );

  std::printf( "daemon: first %8.6f s | repeat %8.6f s (%.0fx, from_cache=%s) | "
               "restarted instance from_cache=%s | %zu concurrent clients -> "
               "%zu synthesis (%s)\n",
               r.first_s, r.repeat_s, r.first_s / ( r.repeat_s > 0 ? r.repeat_s : 1e-9 ),
               r.repeat_from_cache ? "true" : "false",
               r.restart_from_cache ? "true" : "false", r.concurrent_clients,
               r.concurrent_synthesized, r.coalesced_ok ? "coalesced" : "NOT COALESCED" );
  return r;
}

void write_json( const char* path, const std::vector<case_result>& cases,
                 const sweep_result& sweep, const store_sweep_result& store_sweep,
                 const daemon_result& daemon, bool verify, verify_mode mode,
                 unsigned num_threads )
{
  double total_seq = 0.0;
  double total_cached = 0.0;
  double total_verify = 0.0;
  bool all_identical = true;
  bool all_verified = true;
  for ( const auto& c : cases )
  {
    total_seq += c.seq_wall_s;
    total_cached += c.cached_wall_s;
    total_verify += c.verify_s;
    all_identical = all_identical && c.identical;
    all_verified = all_verified && c.all_verified;
  }

  FILE* f = std::fopen( path, "w" );
  if ( !f )
  {
    std::fprintf( stderr, "cannot open %s for writing\n", path );
    std::exit( 1 );
  }
  std::fprintf( f, "{\n  \"bench\": \"dse\",\n  \"schema_version\": 8,\n" );
  std::fprintf( f, "  \"verify\": %s,\n", verify ? "true" : "false" );
  std::fprintf( f, "  \"verify_mode\": \"%s\",\n",
                verify_mode_name( mode ).c_str() );
  std::fprintf( f, "  \"total_verify_s\": %.4f,\n", total_verify );
  std::fprintf( f, "  \"num_threads\": %u,\n", num_threads );
  std::fprintf( f, "  \"total_seq_wall_s\": %.3f,\n", total_seq );
  std::fprintf( f, "  \"total_cached_wall_s\": %.3f,\n", total_cached );
  std::fprintf( f, "  \"speedup\": %.2f,\n",
                total_seq / ( total_cached > 0 ? total_cached : 1e-9 ) );
  std::fprintf( f, "  \"all_identical\": %s,\n", all_identical ? "true" : "false" );
  std::fprintf( f, "  \"all_verified\": %s,\n", all_verified ? "true" : "false" );
  std::fprintf( f, "  \"sweep\": {\n" );
  std::fprintf( f, "    \"min_bitwidth\": %u,\n", sweep.min_n );
  std::fprintf( f, "    \"max_bitwidth\": %u,\n", sweep.max_n );
  std::fprintf( f, "    \"threads\": %u,\n", sweep.threads );
  std::fprintf( f, "    \"task_graph_wall_s\": %.4f,\n", sweep.task_graph_wall_s );
  std::fprintf( f, "    \"all_ok\": %s,\n", sweep.all_ok ? "true" : "false" );
  std::fprintf( f, "    \"tasks_run\": %zu,\n", sweep.sched.tasks_run );
  std::fprintf( f, "    \"coalesced\": %zu,\n", sweep.sched.coalesced );
  std::fprintf( f, "    \"max_concurrent\": %zu,\n", sweep.sched.max_concurrency );
  std::fprintf( f, "    \"critical_path_s\": %.4f,\n", sweep.sched.critical_path_seconds );
  std::fprintf( f, "    \"sched_wall_s\": %.4f\n", sweep.sched.wall_seconds );
  std::fprintf( f, "  },\n" );
  std::fprintf( f, "  \"store_sweep\": {\n" );
  std::fprintf( f, "    \"min_bitwidth\": %u,\n", store_sweep.min_n );
  std::fprintf( f, "    \"max_bitwidth\": %u,\n", store_sweep.max_n );
  std::fprintf( f, "    \"cold_wall_s\": %.4f,\n", store_sweep.cold_wall_s );
  std::fprintf( f, "    \"warm_wall_s\": %.4f,\n", store_sweep.warm_wall_s );
  std::fprintf( f, "    \"cold_misses\": %zu,\n", store_sweep.cold_misses );
  std::fprintf( f, "    \"warm_misses\": %zu,\n", store_sweep.warm_misses );
  std::fprintf( f, "    \"warm_store_hits\": %zu,\n", store_sweep.warm_store_hits );
  std::fprintf( f, "    \"identical\": %s,\n", store_sweep.identical ? "true" : "false" );
  std::fprintf( f, "    \"recompute_free\": %s\n",
                store_sweep.recompute_free ? "true" : "false" );
  std::fprintf( f, "  },\n" );
  std::fprintf( f, "  \"daemon\": {\n" );
  std::fprintf( f, "    \"first_s\": %.6f,\n", daemon.first_s );
  std::fprintf( f, "    \"repeat_s\": %.6f,\n", daemon.repeat_s );
  std::fprintf( f, "    \"speedup\": %.1f,\n",
                daemon.first_s / ( daemon.repeat_s > 0 ? daemon.repeat_s : 1e-9 ) );
  std::fprintf( f, "    \"repeat_from_cache\": %s,\n",
                daemon.repeat_from_cache ? "true" : "false" );
  std::fprintf( f, "    \"restart_from_cache\": %s,\n",
                daemon.restart_from_cache ? "true" : "false" );
  std::fprintf( f, "    \"concurrent_clients\": %zu,\n", daemon.concurrent_clients );
  std::fprintf( f, "    \"concurrent_synthesized\": %zu,\n",
                daemon.concurrent_synthesized );
  std::fprintf( f, "    \"concurrent_wall_s\": %.6f,\n", daemon.concurrent_wall_s );
  std::fprintf( f, "    \"coalesced_ok\": %s\n", daemon.coalesced_ok ? "true" : "false" );
  std::fprintf( f, "  },\n" );
  std::fprintf( f, "  \"cases\": [\n" );
  for ( std::size_t i = 0; i < cases.size(); ++i )
  {
    const auto& c = cases[i];
    std::fprintf( f, "    {\n" );
    std::fprintf( f, "      \"name\": \"%s\",\n", c.name.c_str() );
    std::fprintf( f, "      \"bitwidth\": %u,\n", c.bitwidth );
    std::fprintf( f, "      \"num_configs\": %zu,\n", c.num_configs );
    std::fprintf( f, "      \"seq_wall_s\": %.4f,\n", c.seq_wall_s );
    std::fprintf( f, "      \"cached_wall_s\": %.4f,\n", c.cached_wall_s );
    std::fprintf( f, "      \"speedup\": %.2f,\n",
                  c.seq_wall_s / ( c.cached_wall_s > 0 ? c.cached_wall_s : 1e-9 ) );
    std::fprintf( f, "      \"verify_s\": %.4f,\n", c.verify_s );
    std::fprintf( f, "      \"cache_hits\": %zu,\n", c.cache_hits );
    std::fprintf( f, "      \"cache_misses\": %zu,\n", c.cache_misses );
    std::fprintf( f, "      \"sched_tasks_run\": %zu,\n", c.sched.tasks_run );
    std::fprintf( f, "      \"sched_coalesced\": %zu,\n", c.sched.coalesced );
    std::fprintf( f, "      \"sched_critical_path_s\": %.4f,\n",
                  c.sched.critical_path_seconds );
    std::fprintf( f, "      \"identical\": %s\n", c.identical ? "true" : "false" );
    std::fprintf( f, "    }%s\n", i + 1 < cases.size() ? "," : "" );
  }
  std::fprintf( f, "  ]\n}\n" );
  std::fclose( f );
}

} // namespace

int main( int argc, char** argv )
{
  // An unknown flag (and --help) must stop before any case runs: a bare
  // run writes BENCH_dse.json into the current directory.
  constexpr const char* usage =
      "usage: bench_dse [--out FILE] [--quick] [--max N] [--threads N] [--sweep-threads N]\n"
      "                 [--no-verify] [--verify-mode none|sampled|exhaustive|sat]\n"
      "                 [--deadline-ms N] [--sat-conflict-budget N]\n";
  const char* out_path = "BENCH_dse.json";
  bool quick = false;
  bool verify = true;
  verify_mode mode = verify_mode::sampled;
  unsigned num_threads = 0;   // hardware concurrency (QSYN_THREADS honoured)
  unsigned sweep_threads = 0; // 0 = max(4, hardware): the sweep section must
                              // exercise a real multi-worker pool even when
                              // --threads pins the per-case engine to 1
  unsigned max_n = 7;
  budget limits;
  for ( int i = 1; i < argc; ++i )
  {
    if ( std::strcmp( argv[i], "--out" ) == 0 && i + 1 < argc )
    {
      out_path = argv[++i];
    }
    else if ( std::strcmp( argv[i], "--quick" ) == 0 )
    {
      quick = true;
    }
    else if ( std::strcmp( argv[i], "--no-verify" ) == 0 )
    {
      verify = false;
    }
    else if ( std::strcmp( argv[i], "--verify-mode" ) == 0 && i + 1 < argc )
    {
      const auto parsed = verify_mode_from_name( argv[++i] );
      if ( !parsed )
      {
        std::fprintf( stderr, "unknown --verify-mode '%s' (none|sampled|exhaustive|sat)\n",
                      argv[i] );
        return 1;
      }
      mode = *parsed;
      verify = mode != verify_mode::none;
    }
    else if ( std::strcmp( argv[i], "--max" ) == 0 && i + 1 < argc )
    {
      max_n = static_cast<unsigned>( std::atoi( argv[++i] ) );
    }
    else if ( std::strcmp( argv[i], "--threads" ) == 0 && i + 1 < argc )
    {
      num_threads = static_cast<unsigned>( std::atoi( argv[++i] ) );
    }
    else if ( std::strcmp( argv[i], "--sweep-threads" ) == 0 && i + 1 < argc )
    {
      sweep_threads = static_cast<unsigned>( std::atoi( argv[++i] ) );
    }
    else if ( std::strcmp( argv[i], "--deadline-ms" ) == 0 && i + 1 < argc )
    {
      limits.deadline_seconds = std::atof( argv[++i] ) / 1000.0;
    }
    else if ( std::strcmp( argv[i], "--sat-conflict-budget" ) == 0 && i + 1 < argc )
    {
      limits.sat_conflict_budget = static_cast<std::uint64_t>( std::atoll( argv[++i] ) );
    }
    else
    {
      std::fputs( usage, stderr );
      return 2;
    }
  }

  if ( quick )
  {
    max_n = std::min( max_n, 6u );
  }
  // The functional flow's TBS tail is a single configuration (nothing to
  // share) and grows ~4x per bit; past n = 6 it would swamp the wall clock
  // of both paths without exercising the engine.
  const unsigned functional_max_n = 6u;

  std::vector<case_result> cases;
  for ( unsigned n = 5u; n <= max_n; ++n )
  {
    for ( const auto design : { reciprocal_design::intdiv, reciprocal_design::newton } )
    {
      cases.push_back(
          run_case( design, n, n <= functional_max_n, verify, mode, num_threads, limits ) );
    }
  }

  if ( sweep_threads == 0u )
  {
    sweep_threads = std::max( 4u, thread_pool::default_num_threads() );
  }
  const auto sweep =
      run_sweep( 5u, quick ? 5u : 6u, sweep_threads, verify, mode, limits );
  const auto store_sweep = run_store_sweep( 5u, quick ? 5u : 6u, verify, mode, limits );
  const auto daemon = run_daemon_repeat();

  write_json( out_path, cases, sweep, store_sweep, daemon, verify, mode, num_threads );
  std::printf( "\nwrote %s\n", out_path );

  bool ok = sweep.all_ok && store_sweep.identical &&
            store_sweep.recompute_free && daemon.ok;
  for ( const auto& c : cases )
  {
    ok = ok && c.identical && c.all_verified;
  }
  return ok ? 0 : 1;
}
