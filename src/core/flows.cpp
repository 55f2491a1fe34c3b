#include "flows.hpp"

#include <functional>
#include <stdexcept>
#include <utility>

#include "../common/fault_injection.hpp"
#include "../common/timer.hpp"
#include "dse.hpp" // dse_label for tail task keys
#include "../reversible/verify.hpp"
#include "../sat/incremental.hpp"
#include "../store/artifact_store.hpp"
#include "../store/serialize.hpp"
#include "../synth/aig_optimize.hpp"
#include "../synth/collapse.hpp"
#include "../synth/esop_extract.hpp"
#include "../synth/exorcism.hpp"
#include "../verilog/elaborator.hpp"
#include "../verilog/generators.hpp"

namespace qsyn
{

std::string verify_mode_name( verify_mode mode )
{
  switch ( mode )
  {
  case verify_mode::none:
    return "none";
  case verify_mode::sampled:
    return "sampled";
  case verify_mode::exhaustive:
    return "exhaustive";
  case verify_mode::sat:
    return "sat";
  }
  return "unknown";
}

std::string flow_status_name( flow_status status )
{
  switch ( status )
  {
  case flow_status::ok:
    return "ok";
  case flow_status::degraded:
    return "degraded";
  case flow_status::timed_out:
    return "timed_out";
  case flow_status::failed:
    return "failed";
  }
  return "unknown";
}

std::optional<verify_mode> verify_mode_from_name( const std::string& name )
{
  if ( name == "none" )
  {
    return verify_mode::none;
  }
  if ( name == "sampled" )
  {
    return verify_mode::sampled;
  }
  if ( name == "exhaustive" )
  {
    return verify_mode::exhaustive;
  }
  if ( name == "sat" )
  {
    return verify_mode::sat;
  }
  return std::nullopt;
}

namespace
{

/// Functional synthesis tail: TBS over the cached embedding.  The input
/// variables are placed on the low lines, the outputs on the high lines
/// (the embedding's layout); line metadata reflects Eq. (1).
flow_result functional_tail( const flow_artifact_cache::functional_artifact& art,
                             const flow_params& params, const deadline& stop )
{
  flow_result result;
  result.embedding_lines = art.embed.num_lines;
  result.max_collisions = art.embed.max_collisions;

  tbs_params tparams;
  tparams.bidirectional = params.bidirectional_tbs;
  tparams.stop = stop;
  result.circuit = tbs_synthesize( art.embed.permutation, tparams );

  // Line metadata: inputs on the low n lines, outputs on the high m lines.
  const auto r = art.embed.num_lines;
  const auto n = art.embed.num_inputs;
  const auto m = art.embed.num_outputs;
  for ( unsigned l = 0; l < r; ++l )
  {
    auto& info = result.circuit.line( l );
    info.name = "l" + std::to_string( l );
    if ( l < n )
    {
      info.is_primary_input = true;
    }
    else
    {
      info.is_constant_input = true;
      info.constant_value = false;
    }
    if ( l >= r - m )
    {
      info.output_index = static_cast<int>( l - ( r - m ) );
      info.is_garbage = false;
    }
  }
  return result;
}

std::string esop_artifact_key( unsigned rounds, bool run_exorcism )
{
  return "esop[r=" + std::to_string( rounds ) + ",exo=" + ( run_exorcism ? "1" : "0" ) + "]";
}

std::string xmg_artifact_key( unsigned rounds, unsigned cut_size )
{
  return "xmg[r=" + std::to_string( rounds ) + ",k=" + std::to_string( cut_size ) + "]";
}

/// What `flow_artifact_cache::fetch` needs to know about one artifact kind.
template<typename T>
struct artifact_spec
{
  const char* site = nullptr;         ///< fault-injection site polled before computing
  std::optional<unsigned> upstream{}; ///< compute from optimized(aig, *upstream), else from the design
  std::function<T( const aig_network& )> compute{};
  /// Store tier (none when `store_name` is empty): payload kind, key and codec.
  store::payload_kind kind = store::payload_kind::aig;
  std::string store_name{};
  std::function<void( store::byte_writer&, const T& )> encode{};
  std::function<T( store::byte_reader& )> decode{};
  /// Runs under the slot lock on every memory or store hit; returns true
  /// when it replaced the slot's artifact (the ESOP budget upgrade), which
  /// is then written back to the store.
  std::function<bool( std::shared_ptr<T>& )> refresh{};
  /// Honour the `cache.hit` trip on memory hits (the optimized AIG only).
  bool trip_on_hit = false;
};

} // namespace

// --- flow_artifact_cache -----------------------------------------------------

flow_artifact_cache::flow_artifact_cache() = default;
flow_artifact_cache::~flow_artifact_cache() = default;

void flow_artifact_cache::check_same_design( const aig_network& aig )
{
  if ( !bound_ )
  {
    bound_ = true;
    bound_pis_ = aig.num_pis();
    bound_pos_ = aig.num_pos();
    bound_ands_ = aig.num_ands();
    bound_hash_ = aig.content_hash();
    return;
  }
  // Cheap size pre-check first; the structural hash then catches
  // equal-sized but functionally distinct designs, which a size-only
  // fingerprint silently aliased (serving one design's artifacts for the
  // other).
  if ( aig.num_pis() != bound_pis_ || aig.num_pos() != bound_pos_ ||
       aig.num_ands() != bound_ands_ || aig.content_hash() != bound_hash_ )
  {
    throw std::invalid_argument(
        "flow_artifact_cache: cache is bound to one design AIG (structural content hash "
        "mismatch); use one cache per design" );
  }
}

void flow_artifact_cache::attach_store( std::shared_ptr<store::artifact_store> disk )
{
  std::lock_guard<std::mutex> lock( mutex_ );
  store_ = std::move( disk );
}

std::shared_ptr<store::artifact_store> flow_artifact_cache::attached_store() const
{
  std::lock_guard<std::mutex> lock( mutex_ );
  return store_;
}

std::uint64_t flow_artifact_cache::design_hash() const
{
  std::lock_guard<std::mutex> lock( mutex_ );
  return bound_ ? bound_hash_ : 0u;
}

void flow_artifact_cache::count( std::size_t cache_stats::*counter )
{
  std::lock_guard<std::mutex> lock( mutex_ );
  ++( stats_.*counter );
}

template<typename Key, typename T, typename Spec>
const T& flow_artifact_cache::fetch( slot_map<Key, T>& slots, const aig_network& aig,
                                     const Key& key, const Spec& spec )
{
  slot<T>* s = nullptr;
  std::shared_ptr<store::artifact_store> disk;
  store::store_key skey;
  {
    std::lock_guard<std::mutex> lock( mutex_ );
    check_same_design( aig ); // binds the design hash before any store key is built
    auto& entry = slots[key];
    if ( !entry )
    {
      entry = std::make_unique<slot<T>>();
    }
    s = entry.get();
    if ( !spec.store_name.empty() )
    {
      disk = store_;
      skey = { bound_hash_, spec.kind, spec.store_name };
    }
  }
  // Lock order: artifact slot → optimize slot (a derived artifact computes
  // its upstream optimized AIG while holding its own slot), never the
  // reverse.  The cache mutex is only taken briefly, never while waiting
  // on a slot.
  std::lock_guard<std::mutex> lock( s->mutex );
  const auto save = [&] {
    if ( disk )
    {
      store::byte_writer w;
      spec.encode( w, *s->value );
      disk->save( skey, w.take() );
    }
  };
  const auto serve = [&]( std::size_t cache_stats::*counter ) -> const T& {
    count( counter );
    if ( spec.refresh && spec.refresh( s->value ) )
    {
      save();
    }
    return *s->value;
  };
  if ( s->value )
  {
    // An injected "cache.hit" trip forces this hit to behave like a miss:
    // the stage recomputes (and the recomputation is discarded — the
    // cached artifact is never replaced, so concurrent readers holding
    // references stay safe) and the miss is counted.
    if ( spec.trip_on_hit && fault_injection::poll( "cache.hit" ) )
    {
      count( &cache_stats::misses );
      (void)spec.compute( aig );
      return *s->value;
    }
    return serve( &cache_stats::hits );
  }
  if ( disk )
  {
    if ( const auto payload = disk->load( skey ) )
    {
      try
      {
        store::byte_reader r( *payload );
        auto value = spec.decode( r );
        r.expect_end();
        s->value = std::make_shared<T>( std::move( value ) );
        return serve( &cache_stats::store_hits );
      }
      catch ( const store::deserialize_error& )
      {
        // malformed payload behind a valid header: recompute below
      }
    }
  }
  const auto& source = spec.upstream ? optimized( aig, *spec.upstream ) : aig;
  count( &cache_stats::misses );
  fault_injection::poll( spec.site );
  s->value = std::make_shared<T>( spec.compute( source ) );
  save();
  return *s->value;
}

const aig_network& flow_artifact_cache::optimized( const aig_network& aig, unsigned rounds )
{
  return fetch( optimized_, aig, rounds,
                artifact_spec<aig_network>{
                    .site = "flow.optimize",
                    .compute = [rounds]( const aig_network& design ) {
                      return optimize( design, rounds );
                    },
                    .kind = store::payload_kind::aig,
                    .store_name = optimize_artifact_key( rounds ),
                    .encode = store::write_aig,
                    .decode = store::read_aig,
                    .trip_on_hit = true } );
}

const flow_artifact_cache::functional_artifact&
flow_artifact_cache::functional_intermediate( const aig_network& aig, unsigned rounds )
{
  // The functional intermediate (truth tables + embedding) has no disk
  // tier: it is exponential in the input count by construction, so it is
  // only ever built for small designs where recomputing is cheap.
  return fetch( functional_, aig, rounds,
                artifact_spec<functional_artifact>{
                    .site = "flow.collapse",
                    .upstream = rounds,
                    .compute = []( const aig_network& opt ) {
                      functional_artifact art;
                      art.outputs = collapse_to_truth_tables( opt );
                      art.embed = embed_optimum( art.outputs );
                      return art;
                    } } );
}

const flow_artifact_cache::esop_artifact&
flow_artifact_cache::esop_intermediate( const aig_network& aig, unsigned rounds,
                                        bool run_exorcism,
                                        const exorcism_params& minimize_limits )
{
  // A requester with an unexpired deadline carries budget: it may upgrade
  // a cached artifact whose minimization stopped at an earlier caller's
  // budget instead of reusing the half-minimized cube list as-is.
  const bool requester_has_budget = run_exorcism && !minimize_limits.stop.expired();
  return fetch(
      esops_, aig, std::make_pair( rounds, run_exorcism ),
      artifact_spec<esop_artifact>{
          .site = "flow.esop",
          .upstream = rounds,
          .compute =
              [&]( const aig_network& opt ) {
                esop_artifact art;
                art.expression = esop_from_aig( opt );
                if ( run_exorcism )
                {
                  art.budget_exhausted = exorcism( art.expression, minimize_limits ).budget_exhausted;
                }
                art.terms = art.expression.num_terms();
                return art;
              },
          .kind = store::payload_kind::esop,
          .store_name = esop_artifact_key( rounds, run_exorcism ),
          // Store payload: budget flag byte + cube list.
          .encode =
              []( store::byte_writer& w, const esop_artifact& art ) {
                w.u8( art.budget_exhausted ? 1u : 0u );
                store::write_esop( w, art.expression );
              },
          .decode =
              []( store::byte_reader& r ) {
                esop_artifact art;
                art.budget_exhausted = r.u8() != 0u;
                art.expression = store::read_esop( r );
                art.terms = art.expression.num_terms();
                return art;
              },
          .refresh =
              [&]( std::shared_ptr<esop_artifact>& value ) {
                if ( !value->budget_exhausted || !requester_has_budget )
                {
                  return false;
                }
                auto upgraded = std::make_shared<esop_artifact>( *value );
                upgraded->budget_exhausted =
                    exorcism( upgraded->expression, minimize_limits ).budget_exhausted;
                upgraded->terms = upgraded->expression.num_terms();
                std::lock_guard<std::mutex> lock( mutex_ );
                // References handed out earlier stay valid.
                retired_esops_.push_back( std::exchange( value, std::move( upgraded ) ) );
                return true;
              } } );
}

const flow_artifact_cache::xmg_artifact&
flow_artifact_cache::xmg_intermediate( const aig_network& aig, unsigned rounds,
                                       unsigned cut_size )
{
  return fetch( xmgs_, aig, std::make_pair( rounds, cut_size ),
                artifact_spec<xmg_artifact>{
                    .site = "flow.xmg",
                    .upstream = rounds,
                    .compute =
                        [cut_size]( const aig_network& opt ) {
                          xmg_artifact art;
                          art.graph = xmg_from_aig( opt, cut_size, &art.stats );
                          return art;
                        },
                    .kind = store::payload_kind::xmg,
                    .store_name = xmg_artifact_key( rounds, cut_size ),
                    // Store payload: graph + resynthesis statistics.
                    .encode =
                        []( store::byte_writer& w, const xmg_artifact& art ) {
                          store::write_xmg( w, art.graph );
                          w.u64( art.stats.luts );
                          w.u64( art.stats.direct_forms );
                          w.u64( art.stats.pprm_forms );
                          w.u64( art.stats.isop_forms );
                        },
                    .decode =
                        []( store::byte_reader& r ) {
                          xmg_artifact art;
                          art.graph = store::read_xmg( r );
                          art.stats.luts = r.u64();
                          art.stats.direct_forms = r.u64();
                          art.stats.pprm_forms = r.u64();
                          art.stats.isop_forms = r.u64();
                          return art;
                        } } );
}

sat::incremental_cec& flow_artifact_cache::sat_engine()
{
  std::lock_guard<std::mutex> lock( mutex_ );
  if ( !sat_engine_ )
  {
    sat_engine_ = std::make_unique<sat::incremental_cec>();
  }
  return *sat_engine_;
}

cache_stats flow_artifact_cache::stats() const
{
  std::lock_guard<std::mutex> lock( mutex_ );
  return stats_;
}

// --- task-graph builder ------------------------------------------------------

std::string flow_stage_name( flow_kind kind )
{
  switch ( kind )
  {
  case flow_kind::functional:
    return "collapse";
  case flow_kind::esop_based:
    return "esop";
  case flow_kind::hierarchical:
    return "xmg";
  }
  return "unknown";
}

std::string optimize_artifact_key( unsigned rounds )
{
  return "optimize[r=" + std::to_string( rounds ) + "]";
}

std::string flow_artifact_key( const flow_params& params )
{
  switch ( params.kind )
  {
  case flow_kind::functional:
    return "collapse[r=" + std::to_string( params.optimization_rounds ) + "]";
  case flow_kind::esop_based:
    return esop_artifact_key( params.optimization_rounds, params.run_exorcism );
  case flow_kind::hierarchical:
    return xmg_artifact_key( params.optimization_rounds, params.cut_size );
  }
  return "unknown";
}

flow_task_ids add_flow_tasks( task_graph& graph, const aig_network& aig,
                              const flow_params& params, flow_artifact_cache& cache,
                              const deadline& stop, flow_result& out,
                              const std::string& key_prefix,
                              const std::vector<task_id>& extra_deps )
{
  flow_task_ids ids;
  ids.optimize = graph.add_shared(
      key_prefix + optimize_artifact_key( params.optimization_rounds ),
      [&aig, &cache, rounds = params.optimization_rounds] { cache.optimized( aig, rounds ); },
      extra_deps );

  const auto artifact_key = key_prefix + flow_artifact_key( params );
  switch ( params.kind )
  {
  case flow_kind::functional:
    ids.artifact = graph.add_shared(
        artifact_key,
        [&aig, &cache, rounds = params.optimization_rounds] {
          cache.functional_intermediate( aig, rounds );
        },
        { ids.optimize } );
    break;
  case flow_kind::esop_based:
    ids.artifact = graph.add_shared(
        artifact_key,
        [&aig, &cache, rounds = params.optimization_rounds,
         run_exorcism = params.run_exorcism,
         pair_budget = params.limits.exorcism_pair_budget, stop_ptr = &stop] {
          exorcism_params mlimits;
          mlimits.pair_budget = pair_budget;
          mlimits.stop = *stop_ptr;
          cache.esop_intermediate( aig, rounds, run_exorcism, mlimits );
        },
        { ids.optimize } );
    break;
  case flow_kind::hierarchical:
    ids.artifact = graph.add_shared(
        artifact_key,
        [&aig, &cache, rounds = params.optimization_rounds, cut = params.cut_size] {
          cache.xmg_intermediate( aig, rounds, cut );
        },
        { ids.optimize } );
    break;
  }

  // Unique (unkeyed) per-configuration tail: every stage lookup inside
  // run_flow_staged hits the cache the artifact tasks just filled, so the
  // tail is pure synthesis + verification.  A configuration whose deadline
  // expired before it started is `timed_out`.  `stop` is read when
  // the task runs (not copied at build time), so batch drivers can arm the
  // per-configuration clock lazily from an upstream task.
  ids.tail = graph.add(
      key_prefix + "tail:" + dse_label( params ) + "#" + std::to_string( graph.size() ),
      [&aig, &cache, &out, params, stop_ptr = &stop] {
        if ( stop_ptr->expired() )
        {
          throw budget_exhausted( "deadline expired before the configuration started" );
        }
        out = run_flow_staged( aig, params, cache, *stop_ptr );
      },
      { ids.artifact } );
  return ids;
}

namespace
{

std::string graph_error_what( const std::exception_ptr& error )
{
  if ( !error )
  {
    return "unknown error";
  }
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
    return "unknown error";
  }
}

bool graph_error_is_budget( const std::exception_ptr& error )
{
  if ( !error )
  {
    return false;
  }
  try
  {
    std::rethrow_exception( error );
  }
  catch ( const budget_exhausted& )
  {
    return true;
  }
  catch ( ... )
  {
    return false;
  }
}

} // namespace

void fill_flow_status_from_graph( const task_graph& graph, task_id tail, flow_result& out )
{
  const auto state = graph.state( tail );
  if ( state == task_state::done )
  {
    return;
  }
  const auto error = graph.error( tail );
  out.status = graph_error_is_budget( error ) ? flow_status::timed_out : flow_status::failed;
  const auto& blame = graph.blame( tail );
  if ( state == task_state::poisoned && blame != graph.key( tail ) )
  {
    out.status_detail = "stage '" + blame + "' failed: " + graph_error_what( error );
  }
  else
  {
    out.status_detail = graph_error_what( error );
  }
}

// --- staged flow driver ------------------------------------------------------

namespace
{

/// Copies a simulation-tier verification report into a flow result —
/// verdict, counterexample, and the coverage accounting fields.  The
/// caller sets `result.verified_with` to the tier that produced the
/// report.
void record_sim_verify_report( flow_result& result, const partial_verify_report& report )
{
  result.counterexample = report.counterexample;
  result.verify_complete = report.complete;
  result.verify_samples_requested = report.assignments_requested;
  result.verify_samples_completed = report.assignments_completed;
  result.verified = report.complete && !report.counterexample.has_value();
}

/// Applies the verification-phase status taxonomy to a result whose
/// verify fields are final: a counterexample is a definitive verdict
/// regardless of coverage; without one, partial coverage degrades the
/// result (or times it out when nothing ran), and a downgrade to a
/// weaker-than-requested tier degrades even at full coverage.
void finalize_verify_status( flow_result& result )
{
  if ( result.counterexample.has_value() )
  {
    return;
  }
  if ( !result.verify_complete )
  {
    if ( result.verify_samples_completed == 0 )
    {
      result.status = flow_status::timed_out;
      result.status_detail = "deadline expired before any verification coverage";
    }
    else if ( result.status != flow_status::timed_out )
    {
      result.status = flow_status::degraded;
      result.status_detail = "partial verification coverage: " +
                             std::to_string( result.verify_samples_completed ) + "/" +
                             std::to_string( result.verify_samples_requested ) + " assignments";
    }
  }
  else if ( result.verify_downgraded && result.verified_with == verify_mode::sampled &&
            result.status == flow_status::ok )
  {
    result.status = flow_status::degraded;
    result.status_detail = "sat verify budget exhausted; downgraded to sampled";
  }
}

} // namespace

flow_result run_flow_staged( const aig_network& aig, const flow_params& params,
                             flow_artifact_cache& cache )
{
  return run_flow_staged( aig, params, cache, deadline::in( params.limits.deadline_seconds ) );
}

flow_result run_flow_staged( const aig_network& aig, const flow_params& params,
                             flow_artifact_cache& cache, const deadline& stop )
{
  stopwatch watch;
  const auto& optimized = cache.optimized( aig, params.optimization_rounds );

  flow_result result;
  const std::vector<truth_table>* verify_outputs = nullptr;
  switch ( params.kind )
  {
  case flow_kind::functional:
  {
    const auto& art = cache.functional_intermediate( aig, params.optimization_rounds );
    result = functional_tail( art, params, stop );
    verify_outputs = &art.outputs;
    break;
  }
  case flow_kind::esop_based:
  {
    exorcism_params mlimits;
    mlimits.pair_budget = params.limits.exorcism_pair_budget;
    mlimits.stop = stop;
    const auto& art = cache.esop_intermediate( aig, params.optimization_rounds,
                                               params.run_exorcism, mlimits );
    result.esop_terms = art.terms;
    if ( art.budget_exhausted )
    {
      result.status = flow_status::degraded;
      result.status_detail = "exorcism stopped at its pair budget/deadline";
    }
    esop_synth_params sparams;
    sparams.p = params.esop_p;
    result.circuit = esop_synthesize( art.expression, sparams );
    break;
  }
  case flow_kind::hierarchical:
  {
    const auto& art =
        cache.xmg_intermediate( aig, params.optimization_rounds, params.cut_size );
    result.xmg_maj = art.graph.num_maj();
    result.xmg_xor = art.graph.num_xor();
    hierarchical_params hparams;
    hparams.cleanup = params.cleanup;
    result.circuit = hierarchical_synthesize( art.graph, hparams );
    break;
  }
  }
  result.aig_nodes_initial = aig.num_ands();
  result.aig_nodes_optimized = optimized.num_ands();
  result.costs = report_costs( result.circuit );
  // Synthesis runtime only: the stopwatch stops BEFORE verification, which
  // is simulation and was previously (wrongly) folded into every reported
  // runtime column.
  result.runtime_seconds = watch.elapsed_seconds();

  const auto mode = params.verify ? params.verification : verify_mode::none;
  if ( mode != verify_mode::none )
  {
    stopwatch verify_watch;
    // `verified_with` is assigned by the branch that actually produces the
    // verdict, so a downgraded SAT tier reports the fallback tier.
    switch ( mode )
    {
    case verify_mode::none:
      break;
    case verify_mode::sampled:
    case verify_mode::exhaustive:
      result.verified_with = mode;
      if ( verify_outputs )
      {
        // The functional flow checks against its collapsed truth tables —
        // block-driven full enumeration, so sampled == exhaustive here.
        result.verified = verify_against_truth_tables( result.circuit, *verify_outputs );
      }
      else
      {
        record_sim_verify_report(
            result, mode == verify_mode::sampled
                        ? verify_against_aig_sampled_budgeted( result.circuit, optimized, stop )
                        : verify_against_aig_exhaustive_budgeted( result.circuit, optimized, stop ) );
      }
      break;
    case verify_mode::sat:
    {
      // The cache-owned persistent engine: every configuration of a sweep
      // re-uses the spec encoding and the lemmas of earlier checks.  An
      // injected "verify.sat" trip simulates immediate budget exhaustion.
      sat::check_limits climits;
      climits.stop = stop;
      climits.conflict_budget = params.limits.sat_conflict_budget;
      climits.propagation_budget = params.limits.sat_propagation_budget;
      sat_verify_outcome outcome;
      if ( fault_injection::poll( "verify.sat" ) )
      {
        outcome.resolved = false;
      }
      else
      {
        outcome =
            verify_against_aig_sat_budgeted( result.circuit, optimized, cache.sat_engine(), climits );
      }
      if ( outcome.resolved )
      {
        result.verified_with = verify_mode::sat;
        result.verified = outcome.equivalent;
        result.counterexample = outcome.counterexample;
      }
      else
      {
        // Verify-tier degradation ladder: the SAT tier ran out of budget.
        // Fall back to an exhaustive proof when the design is narrow
        // enough and wall-clock remains, else to budgeted sampling —
        // recording the downgrade instead of hanging or reporting failure.
        result.verify_downgraded = true;
        const bool exhaustive_fits = optimized.num_pis() <= params.limits.exhaustive_fallback_max_pis &&
                                     optimized.num_pis() <= 24u;
        if ( exhaustive_fits && !stop.expired() )
        {
          result.verified_with = verify_mode::exhaustive;
          record_sim_verify_report(
              result, verify_against_aig_exhaustive_budgeted( result.circuit, optimized, stop ) );
        }
        else
        {
          result.verified_with = verify_mode::sampled;
          record_sim_verify_report(
              result, verify_against_aig_sampled_budgeted( result.circuit, optimized, stop ) );
        }
      }
      break;
    }
    }
    result.verify_seconds = verify_watch.elapsed_seconds();

    // Status accounting of the verification phase (an exhaustive fallback
    // proof is as strong as the requested SAT proof, so it stays `ok`).
    finalize_verify_status( result );
  }
  return result;
}

flow_result run_flow_on_aig( const aig_network& aig, const flow_params& params )
{
  flow_artifact_cache cache;
  return run_flow_staged( aig, params, cache );
}

flow_result run_flow_on_verilog( const std::string& verilog_source, const flow_params& params )
{
  const auto elaborated = verilog::elaborate_verilog( verilog_source );
  return run_flow_on_aig( elaborated.aig, params );
}

std::string reciprocal_verilog( reciprocal_design design, unsigned n )
{
  return design == reciprocal_design::intdiv ? verilog::generate_intdiv( n )
                                             : verilog::generate_newton( n );
}

flow_result run_reciprocal_flow( reciprocal_design design, unsigned n, const flow_params& params )
{
  return run_flow_on_verilog( reciprocal_verilog( design, n ), params );
}

} // namespace qsyn
