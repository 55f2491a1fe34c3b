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

/// What `flow_artifact_cache::fetch` needs to know about one kind of value.
template<typename T>
struct artifact_spec
{
  const char* site = nullptr;         ///< fault-injection site polled before computing, if any
  std::optional<unsigned> upstream{}; ///< compute from optimized(aig, *upstream), else from the design
  std::function<T( const aig_network& )> compute{};
  /// Store tier (none when `store_name` is empty): payload kind, key and codec.
  store::payload_kind kind = store::payload_kind::aig;
  std::string store_name{};
  std::function<void( store::byte_writer&, const T& )> encode{};
  std::function<T( store::byte_reader& )> decode{};
  /// The upgrade rule (none when `imperfect` is empty): an `imperfect`
  /// value is recomputed for a requester whose budget is more generous
  /// than the one it was produced under.  `requested` is the budget a
  /// value computed now records; kinds with the rule store it ahead of the
  /// payload.
  budget requested{};
  std::function<bool( const T& )> imperfect{};
  /// Only values that pass `keep` are cached and saved (all, when empty).
  std::function<bool( const T& )> keep{};
  /// Honour the `cache.hit` trip on memory hits (the optimized AIG only).
  bool trip_on_hit = false;
  /// Count the lookup in `cache_stats` (outcomes count in the daemon's stats).
  bool counted = true;
  /// The accessor hands out references, so a value that leaves the slot
  /// is retired, not destroyed (outcomes are handed out as shared_ptr).
  bool by_reference = true;
};

void write_budget( store::byte_writer& w, const budget& b )
{
  w.f64( b.deadline_seconds );
}

budget read_budget( store::byte_reader& r )
{
  return { r.f64() };
}

void encode_outcome( store::byte_writer& w, const flow_result& result )
{
  w.u8( static_cast<std::uint8_t>( result.status ) );
  w.u8( result.verified ? 1u : 0u );
  w.u8( static_cast<std::uint8_t>( result.verified_with ) );
  w.u8( result.verify_downgraded ? 1u : 0u );
  w.f64( result.runtime_seconds );
  w.f64( result.verify_seconds );
  w.u32( result.costs.qubits );
  w.u64( result.costs.t_count );
  w.u64( result.costs.gates );
  w.u64( result.costs.toffoli_gates );
  w.u64( result.costs.depth );
  w.u64( result.esop_terms );
  w.u64( result.xmg_maj );
  w.u64( result.xmg_xor );
  w.u32( result.embedding_lines );
  w.u64( result.max_collisions );
  w.u64( result.aig_nodes_initial );
  w.u64( result.aig_nodes_optimized );
  w.str( result.status_detail );
  store::write_circuit( w, result.circuit );
}

flow_result decode_outcome( store::byte_reader& r )
{
  flow_result result;
  const auto status = r.u8();
  if ( status > static_cast<std::uint8_t>( flow_status::failed ) )
  {
    throw store::deserialize_error( "outcome: unknown status" );
  }
  result.status = static_cast<flow_status>( status );
  result.verified = r.u8() != 0u;
  const auto tier = r.u8();
  if ( tier > static_cast<std::uint8_t>( verify_mode::sat ) )
  {
    throw store::deserialize_error( "outcome: unknown verify tier" );
  }
  result.verified_with = static_cast<verify_mode>( tier );
  result.verify_downgraded = r.u8() != 0u;
  result.runtime_seconds = r.f64();
  result.verify_seconds = r.f64();
  result.costs.qubits = r.u32();
  result.costs.t_count = r.u64();
  result.costs.gates = r.u64();
  result.costs.toffoli_gates = r.u64();
  result.costs.depth = r.u64();
  result.esop_terms = r.u64();
  result.xmg_maj = r.u64();
  result.xmg_xor = r.u64();
  result.embedding_lines = r.u32();
  result.max_collisions = r.u64();
  result.aig_nodes_initial = r.u64();
  result.aig_nodes_optimized = r.u64();
  result.status_detail = r.str();
  result.circuit = store::read_circuit( r );
  return result;
}

} // namespace

// --- flow_artifact_cache -----------------------------------------------------

flow_artifact_cache::flow_artifact_cache() = default;
flow_artifact_cache::~flow_artifact_cache() = default;

void flow_artifact_cache::check_same_design( std::uint64_t hash )
{
  if ( !bound_ )
  {
    bound_ = true;
    bound_hash_ = hash;
    return;
  }
  if ( hash != bound_hash_ )
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

std::uint64_t flow_artifact_cache::design_hash() const
{
  std::lock_guard<std::mutex> lock( mutex_ );
  return bound_ ? bound_hash_ : 0u;
}

template<typename Key, typename T, typename Spec>
std::shared_ptr<const T> flow_artifact_cache::fetch( slot_map<Key, T>& slots,
                                                     const aig_network& aig, const Key& key,
                                                     const Spec& spec, lookup& how )
{
  // Memoized on the network: only a design's first lookup hashes it.
  const auto hash = aig.content_hash();
  slot<T>* s = nullptr;
  {
    std::lock_guard<std::mutex> lock( mutex_ );
    check_same_design( hash ); // binds the design hash before any store key is built
    auto& entry = slots[key];
    if ( !entry )
    {
      entry = std::make_unique<slot<T>>();
    }
    s = entry.get();
  }
  const auto tally = [&]( std::size_t cache_stats::*counter ) {
    if ( spec.counted )
    {
      std::lock_guard<std::mutex> cache_lock( mutex_ );
      ++( stats_.*counter );
    }
  };
  const auto entitled = [&]( const T& value, const budget& with ) {
    return spec.imperfect && spec.imperfect( value ) && spec.requested.more_generous_than( with );
  };
  // Lock order: outcome slot → artifact slot → optimize slot (a request
  // computes its flow, and a derived artifact its upstream optimized AIG,
  // while holding its own slot), never the reverse.  The cache mutex is
  // only taken briefly, never while waiting on a slot.
  const auto seen = s->computations.load();
  std::unique_lock<std::mutex> lock( s->mutex, std::try_to_lock );
  if ( !lock.owns_lock() )
  {
    how.waited = true;
    lock.lock();
  }
  if ( how.waited && s->computations.load() != seen && !entitled( *s->latest, s->latest_with ) )
  {
    tally( &cache_stats::hits );
    return s->latest;
  }
  if ( s->value )
  {
    // An injected "cache.hit" trip forces this hit to behave like a miss:
    // the stage recomputes (and the recomputation is discarded — the
    // cached artifact is never replaced, so concurrent readers holding
    // references stay safe) and the miss is counted.
    if ( spec.trip_on_hit && fault_injection::poll( "cache.hit" ) )
    {
      tally( &cache_stats::misses );
      (void)spec.compute( aig );
      return s->value;
    }
    if ( !entitled( *s->value, s->value_with ) )
    {
      tally( &cache_stats::hits );
      return s->value;
    }
    how.upgraded = true;
  }

  std::shared_ptr<store::artifact_store> disk;
  store::store_key skey;
  if ( !spec.store_name.empty() )
  {
    std::lock_guard<std::mutex> cache_lock( mutex_ );
    disk = store_;
    skey = { bound_hash_, spec.kind, spec.store_name };
  }
  // The store is pointless when the memory entry is being upgraded.
  if ( disk && !how.upgraded )
  {
    if ( const auto payload = disk->load( skey ) )
    {
      try
      {
        store::byte_reader r( *payload );
        const auto with = spec.imperfect ? read_budget( r ) : budget{};
        auto value = std::make_shared<const T>( spec.decode( r ) );
        r.expect_end();
        if ( !entitled( *value, with ) )
        {
          s->value = value;
          s->value_with = with;
          tally( &cache_stats::store_hits );
          how.served = tier::store;
          return value;
        }
        how.upgraded = true;
      }
      catch ( const store::deserialize_error& )
      {
        // malformed payload behind a valid header: recompute below
      }
    }
  }

  const auto& source = spec.upstream ? optimized( aig, *spec.upstream ) : aig;
  tally( how.upgraded ? &cache_stats::upgrades : &cache_stats::misses );
  if ( spec.site )
  {
    fault_injection::poll( spec.site );
  }
  const auto value = std::make_shared<const T>( spec.compute( source ) );
  how.served = tier::computed;

  // Publish, still holding the slot.
  const auto retire = [&]( std::shared_ptr<const T> old ) {
    if ( old && spec.by_reference )
    {
      std::lock_guard<std::mutex> cache_lock( mutex_ );
      retired_.push_back( std::move( old ) );
    }
  };
  if ( s->latest != s->value )
  {
    retire( std::move( s->latest ) );
  }
  s->latest = value;
  s->latest_with = spec.requested;
  if ( !spec.keep || spec.keep( *value ) )
  {
    retire( std::exchange( s->value, value ) );
    s->value_with = spec.requested;
    if ( disk )
    {
      store::byte_writer w;
      if ( spec.imperfect )
      {
        write_budget( w, spec.requested );
      }
      spec.encode( w, *value );
      disk->save( skey, w.take() );
    }
  }
  s->computations.fetch_add( 1 );
  return value;
}

const aig_network& flow_artifact_cache::optimized( const aig_network& aig, unsigned rounds )
{
  lookup how;
  return *fetch( optimized_, aig, rounds,
                 artifact_spec<aig_network>{
                     .site = "flow.optimize",
                     .compute = [rounds]( const aig_network& design ) {
                       return optimize( design, rounds );
                     },
                     .kind = store::payload_kind::aig,
                     .store_name = optimize_artifact_key( rounds ),
                     .encode = store::write_aig,
                     .decode = store::read_aig,
                     .trip_on_hit = true },
                 how );
}

const flow_artifact_cache::functional_artifact&
flow_artifact_cache::functional_intermediate( const aig_network& aig, unsigned rounds )
{
  // The functional intermediate (truth tables + embedding) has no disk
  // tier: it is exponential in the input count by construction, so it is
  // only ever built for small designs where recomputing is cheap.
  lookup how;
  return *fetch( functional_, aig, rounds,
                 artifact_spec<functional_artifact>{
                     .site = "flow.collapse",
                     .upstream = rounds,
                     .compute = []( const aig_network& opt ) {
                       functional_artifact art;
                       art.outputs = collapse_to_truth_tables( opt );
                       art.embed = embed_optimum( art.outputs );
                       return art;
                     } },
                 how );
}

const flow_artifact_cache::esop_artifact&
flow_artifact_cache::esop_intermediate( const aig_network& aig, unsigned rounds,
                                        bool run_exorcism, const budget& limits,
                                        const deadline& stop )
{
  lookup how;
  return *fetch(
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
                  exorcism_params mlimits;
                  mlimits.stop = stop;
                  art.budget_exhausted = exorcism( art.expression, mlimits ).budget_exhausted;
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
          .requested = limits,
          .imperfect = []( const esop_artifact& art ) { return art.budget_exhausted; },
          // Out of time under an unlimited recorded budget: cut short by
          // an externally armed `stop` alone, so served but not kept.
          .keep = [unlimited = limits.unlimited()]( const esop_artifact& art ) {
            return !( art.budget_exhausted && unlimited );
          } },
      how );
}

const flow_artifact_cache::xmg_artifact&
flow_artifact_cache::xmg_intermediate( const aig_network& aig, unsigned rounds,
                                       unsigned cut_size )
{
  lookup how;
  return *fetch( xmgs_, aig, std::make_pair( rounds, cut_size ),
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
                         } },
                 how );
}

std::shared_ptr<const flow_result>
flow_artifact_cache::outcome( const aig_network& aig, const flow_params& params,
                              const std::function<flow_result()>& synthesize, lookup& how )
{
  const auto key = outcome_key( params );
  return fetch( outcomes_, aig, key,
                artifact_spec<flow_result>{
                    .compute = [&synthesize]( const aig_network& ) { return synthesize(); },
                    .kind = store::payload_kind::flow_outcome,
                    .store_name = key,
                    .encode = encode_outcome,
                    .decode = decode_outcome,
                    .requested = params.limits,
                    .imperfect =
                        []( const flow_result& result ) {
                          return result.status == flow_status::degraded || result.verify_downgraded;
                        },
                    // A timed-out or failed attempt must not pin the failure
                    // for later (possibly better-funded) requesters.
                    .keep =
                        []( const flow_result& result ) {
                          return result.status == flow_status::ok ||
                                 result.status == flow_status::degraded;
                        },
                    .counted = false,
                    .by_reference = false },
                how );
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

std::string flow_input_limit_error( unsigned num_inputs, unsigned num_outputs,
                                    const flow_params& params )
{
  if ( params.kind == flow_kind::hierarchical )
  {
    return {};
  }
  const auto limit = aig_network::max_simulation_inputs;
  if ( num_inputs > limit )
  {
    return "stage '" + flow_stage_name( params.kind ) + "' builds explicit output tables: " +
           std::to_string( num_inputs ) + " inputs exceed the " + std::to_string( limit ) +
           "-input limit";
  }
  if ( params.kind == flow_kind::functional && num_outputs > max_embedding_lines )
  {
    return "stage '" + flow_stage_name( params.kind ) + "' embeds one line per output: " +
           std::to_string( num_outputs ) + " outputs exceed the " +
           std::to_string( max_embedding_lines ) + "-line limit";
  }
  if ( params.kind == flow_kind::esop_based && num_outputs > esop::max_outputs )
  {
    return "stage '" + flow_stage_name( params.kind ) + "' keeps one output-mask bit per output: " +
           std::to_string( num_outputs ) + " outputs exceed the " +
           std::to_string( esop::max_outputs ) + "-output limit";
  }
  return {};
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

std::string outcome_key( const flow_params& params )
{
  std::string key = "flow[" + flow_artifact_key( params );
  switch ( params.kind )
  {
  case flow_kind::functional:
    key += ",bidir=" + std::string( params.bidirectional_tbs ? "1" : "0" );
    break;
  case flow_kind::esop_based:
    key += ",p=" + std::to_string( params.esop_p );
    break;
  case flow_kind::hierarchical:
    key += ",cleanup=" + std::to_string( static_cast<unsigned>( params.cleanup ) );
    break;
  }
  key += ",verify=" + verify_mode_name( params.verify ? params.verification : verify_mode::none );
  key += "]";
  return key;
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
         run_exorcism = params.run_exorcism, limits = params.limits, stop_ptr = &stop] {
          cache.esop_intermediate( aig, rounds, run_exorcism, limits, *stop_ptr );
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
    result.status_detail = "sat verify deadline expired; downgraded to sampled";
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
  flow_result result;
  if ( auto limit = flow_input_limit_error( aig.num_pis(), aig.num_pos(), params ); !limit.empty() )
  {
    result.status = flow_status::failed;
    result.status_detail = std::move( limit );
    return result;
  }
  stopwatch watch;
  const auto& optimized = cache.optimized( aig, params.optimization_rounds );

  const std::vector<truth_table>* verify_outputs = nullptr;
  switch ( params.kind )
  {
  case flow_kind::functional:
  {
    const flow_artifact_cache::functional_artifact* art = nullptr;
    try
    {
      art = &cache.functional_intermediate( aig, params.optimization_rounds );
    }
    catch ( const embedding_line_limit_error& e )
    {
      // Data-dependent: the garbage lines grow with the largest collision
      // set, which only the collapsed tables tell.
      result.status = flow_status::failed;
      result.status_detail = e.what();
      return result;
    }
    result = functional_tail( *art, params, stop );
    verify_outputs = &art->outputs;
    break;
  }
  case flow_kind::esop_based:
  {
    const auto& art = cache.esop_intermediate( aig, params.optimization_rounds,
                                               params.run_exorcism, params.limits, stop );
    result.esop_terms = art.terms;
    if ( art.budget_exhausted )
    {
      result.status = flow_status::degraded;
      result.status_detail = "exorcism stopped at its deadline";
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
      // injected "verify.sat" trip simulates an expired deadline.
      sat_verify_outcome outcome;
      if ( fault_injection::poll( "verify.sat" ) )
      {
        outcome.resolved = false;
      }
      else
      {
        outcome = verify_against_aig_sat_budgeted( result.circuit, optimized, cache.sat_engine(),
                                                   sat::check_limits{ stop } );
      }
      if ( outcome.resolved )
      {
        result.verified_with = verify_mode::sat;
        result.verified = outcome.equivalent;
        result.counterexample = outcome.counterexample;
      }
      else
      {
        // Verify-tier degradation ladder: the SAT tier ran out of time,
        // so fall back to budgeted sampling and record the downgrade
        // instead of hanging or reporting failure.
        result.verify_downgraded = true;
        result.verified_with = verify_mode::sampled;
        record_sim_verify_report(
            result, verify_against_aig_sampled_budgeted( result.circuit, optimized, stop ) );
      }
      break;
    }
    }
    result.verify_seconds = verify_watch.elapsed_seconds();

    // Status accounting of the verification phase.
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
