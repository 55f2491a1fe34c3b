/// \file flows.hpp
/// \brief The paper's design flows (Sec. IV, Fig. 1): Verilog in, reversible
/// circuit out, with selectable reversible synthesis back-end.
///
/// Every flow passes the four levels of Fig. 1:
///   design level      — Verilog text (INTDIV(n) / NEWTON(n) generators or
///                       user-supplied source),
///   logic synthesis   — elaboration to an AIG + dc2-style optimization,
///                       then conversion to the back-end's input format
///                       (truth table, ESOP, or XMG),
///   reversible synth  — functional (TBS over an optimum embedding),
///                       ESOP-based (REVS, parameter p), or hierarchical
///                       (XMG, cleanup strategy),
///   quantum level     — qubit / T-count accounting (cost model, cost.hpp).
///
/// The flow is decomposed into explicit stages whose intermediate artifacts
/// (the optimized AIG, the collapsed truth tables + embedding, the
/// minimized ESOP cube list, the resynthesized XMG) live in a
/// `flow_artifact_cache` keyed on the parameter subset each stage actually
/// depends on.  A design-space sweep therefore optimizes the AIG once,
/// runs ESOP extraction + exorcism once across all `esop_p` values, and
/// builds the XMG once per `(rounds, cut_size)` across all cleanup
/// strategies; only the per-configuration synthesis tails repeat.
/// `run_flow_on_aig` remains the one-shot convenience wrapper around a
/// private cache.
///
/// Every flow closes with a verification tier selected by
/// `flow_params::verification` (`verify_mode`): SIMD-wide random sampling,
/// SIMD-wide exhaustive enumeration, or the SAT tier — the ladder mirrors
/// the paper's closing ABC `cec` call.  The SAT tier proves designs with at
/// most 16 inputs by enumeration and wider ones on the incremental SAT
/// equivalence engine (`sat::incremental_cec`).  The cache owns the
/// sweep's persistent engine (`sat_engine()`), so every engine check of a
/// sweep shares one encoding and its learned lemmas.
/// The flow result carries the reversible circuit, the cost report, the
/// synthesis runtime (verification is timed separately in
/// `verify_seconds`, with the tier recorded in `verified_with`), and
/// intermediate statistics — everything the paper's tables report, so the
/// bench binaries are thin wrappers around run_flow().

#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../common/budget.hpp"
#include "../embed/embedding.hpp"
#include "task_graph.hpp"
#include "../logic/aig.hpp"
#include "../logic/truth_table.hpp"
#include "../reversible/circuit.hpp"
#include "../reversible/cost.hpp"
#include "../rsynth/esop_synth.hpp"
#include "../rsynth/hierarchical.hpp"
#include "../rsynth/tbs.hpp"
#include "../synth/exorcism.hpp"
#include "../synth/xmg_resynth.hpp"

namespace qsyn
{

namespace sat
{
class incremental_cec;
} // namespace sat

/// Which design to generate at the design level.
enum class reciprocal_design
{
  intdiv,
  newton
};

/// Which reversible synthesis back-end to use.
enum class flow_kind
{
  functional,   ///< Sec. IV-A: collapse + optimum embedding + TBS
  esop_based,   ///< Sec. IV-B: ESOP + exorcism + REVS-style synthesis
  hierarchical  ///< Sec. IV-C: LUT map + XMG + hierarchical synthesis
};

/// Verification tier applied to the synthesized circuit (our `cec` ladder).
enum class verify_mode
{
  none,       ///< skip verification entirely
  sampled,    ///< SIMD-wide random simulation (probabilistic; silently
              ///< exhaustive when 2^inputs fits the sample budget)
  exhaustive, ///< SIMD-wide enumeration of all 2^inputs assignments
              ///< (a proof; inputs <= 24)
  sat         ///< a proof at any width: exhaustive up to 16 inputs, else a
              ///< SAT miter against the extracted circuit AIG (src/sat/)
};

/// Short name of a tier ("none", "sampled", "exhaustive", "sat").
std::string verify_mode_name( verify_mode mode );
/// Inverse of `verify_mode_name`; nullopt for unknown names.
std::optional<verify_mode> verify_mode_from_name( const std::string& name );

/// Outcome taxonomy of one budgeted flow (and of one design in a DSE
/// sweep).  Anything other than `failed` carries a usable circuit/result.
enum class flow_status
{
  ok,        ///< completed within budget at the requested quality
  degraded,  ///< completed, but a budget forced a weaker result (partial
             ///< minimization, verify-tier downgrade, partial coverage)
  timed_out, ///< the deadline expired before a usable verdict/result
  failed     ///< a stage threw; see `status_detail` for the error
};

/// Short name of a status ("ok", "degraded", "timed_out", "failed").
std::string flow_status_name( flow_status status );

struct flow_params
{
  flow_kind kind = flow_kind::hierarchical;
  unsigned optimization_rounds = 2; ///< dc2-style rounds on the AIG
  bool run_exorcism = true;         ///< ESOP flow: minimize cube list
  unsigned esop_p = 0;              ///< ESOP flow: REVS factoring parameter
  cleanup_strategy cleanup = cleanup_strategy::keep_garbage; ///< hierarchical
  unsigned cut_size = 4;            ///< hierarchical flow: LUT cut size k fed
                                    ///< to the mapper before XMG resynthesis
                                    ///< (the paper's `xmglut -k`; a DSE axis;
                                    ///< must be in [2, 6] — the mapper throws
                                    ///< std::invalid_argument otherwise)
  bool bidirectional_tbs = true;    ///< functional flow
  bool verify = true;               ///< master toggle (false == verify_mode::none)
  verify_mode verification = verify_mode::sampled; ///< tier used when verify is on
  /// The flow's one budget, its wall-clock deadline.  The default is
  /// unlimited and bit-identical to the unbudgeted engine.
  budget limits;
};

struct flow_result
{
  reversible_circuit circuit;
  cost_report costs;
  double runtime_seconds = 0.0; ///< synthesis only; cache hits cost ~0 (a
                                ///< hit racing the thread computing that
                                ///< key blocks, and that wait counts)
  double verify_seconds = 0.0;  ///< verification time of the tier that ran
                                ///< (0 if verification is off)
  bool verified = false;
  verify_mode verified_with = verify_mode::none; ///< tier that actually produced `verified`
  /// Failing input assignment when a tier rejects (AIG-miter tiers only;
  /// the functional flow's truth-table check has no counterexample).
  std::optional<std::vector<bool>> counterexample;

  /// Budget outcome of the flow (see `flow_status`); `status_detail` says
  /// which budget bit and where.
  flow_status status = flow_status::ok;
  std::string status_detail;
  /// True when the requested verify tier exhausted its budget and the flow
  /// fell back to a cheaper tier (`verified_with` records the tier that
  /// ran).
  bool verify_downgraded = false;
  /// Simulation-tier coverage accounting: false when the deadline expired
  /// mid-simulation (the verdict then covers only
  /// `verify_samples_completed` of `verify_samples_requested`
  /// assignments).  SAT proofs and untimed tiers report complete = true.
  bool verify_complete = true;
  std::uint64_t verify_samples_requested = 0;
  std::uint64_t verify_samples_completed = 0;

  /// Intermediate statistics.
  std::size_t aig_nodes_initial = 0;
  std::size_t aig_nodes_optimized = 0;
  std::size_t esop_terms = 0;        ///< ESOP flow
  std::size_t xmg_maj = 0;           ///< hierarchical flow
  std::size_t xmg_xor = 0;           ///< hierarchical flow
  unsigned embedding_lines = 0;      ///< functional flow (optimum r)
  std::uint64_t max_collisions = 0;  ///< functional flow (mu)
};

namespace store
{
class artifact_store;
} // namespace store

/// Cache hit/miss counters (one "access" per stage lookup).  With a disk
/// tier attached the four counters partition the accesses: `hits` are
/// served from memory, `store_hits` are deserialized from the attached
/// `store::artifact_store` (and promoted into memory), `misses` are
/// actually computed (then written to both tiers), and `upgrades` are
/// recomputed because the requester's budget entitles it to replace an
/// imperfect entry (see `flow_artifact_cache`).  Without a store,
/// `store_hits` stays 0.
struct cache_stats
{
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t store_hits = 0;
  std::size_t upgrades = 0;
};

/// Memoizes the stage artifacts of the flows, and the daemon's full flow
/// outcomes, for ONE design AIG.  The cache binds to the first design it
/// sees via a structural content hash (`aig_network::content_hash()`,
/// memoized on the network) and rejects any other design with
/// std::invalid_argument — including equal-sized distinct designs.  Each
/// value is keyed on the parameter subset it depends on, so a sweep over
/// `esop_p` or cleanup strategies shares everything upstream of the
/// synthesis tail.
///
/// Every accessor goes through one memory → store → compute → save path
/// (with `attach_store`, computed values are written to disk and a fresh
/// process warm-starts from what earlier processes computed; the store
/// validates design hash × parameter key).  Its slot contract:
///  * each key has a slot whose lock is held while the key is served, so
///    concurrent first accesses compute once while other keys — memory
///    hits on them included — go ahead;
///  * a request that waited on a computation gets that attempt's value,
///    even one that is not cached, unless the upgrade rule below entitles
///    it to a recompute;
///  * an attempt that throws leaves the slot unchanged, and waiters retry;
///  * only values that pass the kind's `keep` test are cached and saved.
///
/// One upgrade rule: an imperfect value (an ESOP whose EXORCISM ran out of
/// time; a `degraded` or verify-downgraded outcome) remembers the
/// `budget` (deadline) it was produced under, in memory and on disk.  It
/// is recomputed from scratch only for a requester whose deadline is
/// strictly longer (`more_generous_than`), and the result replaces the
/// entry in both tiers.  Replaced stage artifacts are retired, not
/// destroyed, so references returned earlier remain valid for the
/// cache's lifetime.
/// All accessors are thread-safe.
class flow_artifact_cache
{
public:
  flow_artifact_cache();
  ~flow_artifact_cache(); ///< out-of-line: `sat::incremental_cec` is incomplete here
  flow_artifact_cache( const flow_artifact_cache& ) = delete;
  flow_artifact_cache& operator=( const flow_artifact_cache& ) = delete;

  /// Functional back-end intermediate: collapsed output truth tables and
  /// the line-optimum embedding.
  struct functional_artifact
  {
    std::vector<truth_table> outputs;
    embedding embed;
  };

  /// ESOP back-end intermediate: the (optionally exorcism-minimized) cube
  /// list shared by every `esop_p` tail.
  struct esop_artifact
  {
    esop expression;
    std::size_t terms = 0;
    /// True when EXORCISM stopped at its deadline rather than at a
    /// fixpoint (the expression is valid, just less minimized).
    bool budget_exhausted = false;
  };

  /// Hierarchical back-end intermediate: the XMG shared by every cleanup
  /// strategy tail.
  struct xmg_artifact
  {
    xmg_network graph;
    xmg_resynth_stats stats;
  };

  /// Where one lookup's value came from.
  enum class tier
  {
    memory,  ///< the memory tier, or the computation the request waited on
    store,   ///< deserialized from the attached store
    computed ///< computed by this request
  };

  /// How one lookup was served.
  struct lookup
  {
    tier served = tier::memory;
    bool waited = false;   ///< the key's slot was held and the request waited for it
    bool upgraded = false; ///< computed to replace an imperfect entry
  };

  /// Optimized AIG, keyed on the number of dc2-style rounds.
  const aig_network& optimized( const aig_network& aig, unsigned rounds );
  /// Collapse + optimum embedding, keyed on rounds.
  const functional_artifact& functional_intermediate( const aig_network& aig, unsigned rounds );
  /// Extraction + optional exorcism, keyed on (rounds, run_exorcism).
  /// EXORCISM runs under `stop`; the artifact records `limits`.  One that
  /// ran out of time under an unlimited recorded budget was cut short by
  /// an externally armed `stop` alone, so it is served but not kept.
  const esop_artifact& esop_intermediate( const aig_network& aig, unsigned rounds,
                                          bool run_exorcism, const budget& limits = {},
                                          const deadline& stop = {} );
  /// LUT map + XMG resynthesis, keyed on (rounds, cut_size).
  const xmg_artifact& xmg_intermediate( const aig_network& aig, unsigned rounds,
                                        unsigned cut_size );

  /// The daemon's full flow outcome of `params` under `params.limits`,
  /// keyed on `outcome_key`; `synthesize` computes it.  `ok` and
  /// `degraded` outcomes are kept.  `how` is filled in as the lookup goes,
  /// so `waited` is valid even when `synthesize` throws.  Not counted in
  /// `stats()`.
  std::shared_ptr<const flow_result> outcome( const aig_network& aig, const flow_params& params,
                                              const std::function<flow_result()>& synthesize,
                                              lookup& how );

  /// The cache's persistent incremental SAT equivalence engine
  /// (`sat::incremental_cec`), created on first use.  Every `sat`-tier
  /// verification of a design with more than 16 inputs by a
  /// `run_flow_staged` call on this cache goes through it,
  /// so a sweep's configurations share the spec encoding, fraig merges, and
  /// learned lemmas instead of re-encoding the miter from scratch per
  /// configuration.  Thread-safe (the engine serializes internally; creation
  /// is guarded by the cache mutex), and verdict-identical to a fresh
  /// engine per call — reuse only changes the wall clock.
  sat::incremental_cec& sat_engine();

  /// Attaches (or detaches, with nullptr) the persistent disk tier.  The
  /// store is consulted between memory lookup and computation and written
  /// back to on every kept computation; several caches — across threads
  /// and processes — may share one store.
  void attach_store( std::shared_ptr<store::artifact_store> disk );

  /// Structural content hash of the bound design (0 until the first
  /// lookup binds the cache) — the store tier's design key.
  [[nodiscard]] std::uint64_t design_hash() const;

  cache_stats stats() const;

private:
  /// One key's slot: `mutex` is held while the key is served.  `value`
  /// is the kept value (null until one is kept), `latest` the value of the
  /// last computation, kept or not; each with the budget it was produced
  /// under.  `computations` counts finished computations and is read
  /// before waiting on `mutex`, so a waiter can tell that the holder
  /// computed.
  template<typename T>
  struct slot
  {
    std::mutex mutex;
    std::shared_ptr<const T> value;
    budget value_with;
    std::shared_ptr<const T> latest;
    budget latest_with;
    std::atomic<std::size_t> computations{ 0 };
  };
  template<typename Key, typename T>
  using slot_map = std::map<Key, std::unique_ptr<slot<T>>>;

  /// The one memory → store → compute → save path behind every accessor
  /// (flows.cpp); `Spec` says how the kind is computed, encoded, kept and
  /// upgraded.
  template<typename Key, typename T, typename Spec>
  std::shared_ptr<const T> fetch( slot_map<Key, T>& slots, const aig_network& aig, const Key& key,
                                  const Spec& spec, lookup& how );
  void check_same_design( std::uint64_t hash );

  mutable std::mutex mutex_;
  slot_map<unsigned, aig_network> optimized_;
  slot_map<unsigned, functional_artifact> functional_;
  slot_map<std::pair<unsigned, bool>, esop_artifact> esops_;
  slot_map<std::pair<unsigned, unsigned>, xmg_artifact> xmgs_;
  slot_map<std::string, flow_result> outcomes_;
  /// Stage artifacts that left a slot, kept alive for the references handed out.
  std::vector<std::shared_ptr<const void>> retired_;
  std::unique_ptr<sat::incremental_cec> sat_engine_; ///< lazily created
  std::shared_ptr<store::artifact_store> store_; ///< optional disk tier
  cache_stats stats_;
  bool bound_ = false;           ///< cache is bound to the first design seen
  std::uint64_t bound_hash_ = 0; ///< content hash of the bound design
};

/// Stage name of a flow's backend intermediate ("collapse", "esop",
/// "xmg") — the fault-injection site suffix and the middle node of the
/// flow's task chain.
std::string flow_stage_name( flow_kind kind );

/// Why a flow with `params` cannot run on a design of `num_inputs` inputs
/// and `num_outputs` outputs, or empty when it can.  The functional and
/// ESOP-based flows build explicit output tables, so they accept at most
/// `aig_network::max_simulation_inputs` inputs; the ESOP-based flow keeps
/// one output-mask bit per output, so it accepts at most
/// `esop::max_outputs` outputs; the functional flow embeds into at least
/// one line per output, so it accepts at most `max_embedding_lines`
/// outputs.  `run_flow_staged` reports a larger design as `failed` with
/// this text before optimizing it, and the daemon rejects such a request
/// before elaborating it.  (In a task graph the stage task throws from
/// `simulate_outputs`, `esop_from_aig` or `embed_optimum`, naming the same
/// limit, and the tail is `failed` with that detail.)  The functional
/// flow's garbage lines, ceil(log2 mu), are known only once the tables are
/// collapsed: an embedding over the line limit is `failed` there, with
/// `embed_optimum`'s text naming the limit.
std::string flow_input_limit_error( unsigned num_inputs, unsigned num_outputs,
                                    const flow_params& params );

/// Task/cache key of the optimized-AIG artifact, e.g. "optimize[r=2]".
std::string optimize_artifact_key( unsigned rounds );

/// Task/cache key of the backend intermediate artifact — the exact
/// parameter subset `flow_artifact_cache` keys the stage on:
/// "collapse[r=2]", "esop[r=2,exo=1]", or "xmg[r=2,k=4]".
std::string flow_artifact_key( const flow_params& params );

/// Key of a full flow outcome (`flow_artifact_cache::outcome`): the flow's
/// whole parameter identity plus the verify tier (a cached verdict must
/// match the tier that was asked for), e.g.
/// "flow[esop[r=2,exo=1],p=1,verify=sampled]".  The budget is not part of
/// the key: a cached outcome remembers the budget it was produced under.
std::string outcome_key( const flow_params& params );

/// Task ids of one staged flow added to a graph by `add_flow_tasks`.
struct flow_task_ids
{
  task_id optimize = 0; ///< optimized-AIG artifact (shared across kinds)
  task_id artifact = 0; ///< backend intermediate artifact (shared per key)
  task_id tail = 0;     ///< per-configuration synthesis tail + verify
};

/// Adds the staged flow of `params` to `graph` as a dependency chain
/// `optimize → backend intermediate → synthesis tail`, returning the
/// three task ids.  Artifact tasks are keyed `key_prefix +
/// optimize_artifact_key/flow_artifact_key` via `task_graph::add_shared`,
/// so configurations (or repeat calls) sharing an artifact coalesce onto
/// ONE task — the first caller's budget limits apply to the shared stage
/// (a later tail with a more generous budget recomputes a budget-exhausted
/// ESOP artifact through `flow_artifact_cache::esop_intermediate`'s
/// upgrade rule).  The tail task runs
/// `run_flow_staged` (every stage lookup then hits) and assigns `out`;
/// `aig`, `cache`, `stop`, and `out` must outlive the graph run.  `stop`
/// is read when each task runs, not copied at build time, so a batch
/// driver can arm the per-configuration deadline lazily from an upstream
/// task (e.g. the design's elaborate task) and late-scheduled designs do
/// not see their per-flow clock consumed by earlier ones.  `extra_deps`
/// are prepended to the optimize task's dependencies (e.g. a per-design
/// elaboration task).  A failing stage task poisons only the tails that
/// depend on it; the DSE layer maps the poisoned tasks' blame keys back
/// into `flow_status` records.
flow_task_ids add_flow_tasks( task_graph& graph, const aig_network& aig,
                              const flow_params& params, flow_artifact_cache& cache,
                              const deadline& stop, flow_result& out,
                              const std::string& key_prefix = {},
                              const std::vector<task_id>& extra_deps = {} );

/// Maps the terminal state of a flow tail task back onto `out`'s status
/// record after the graph ran.  A `done` tail already wrote its own
/// result (no-op); a cancelled/failed/poisoned tail becomes `timed_out`
/// (when the underlying error is `budget_exhausted`) or `failed`, and a
/// poisoned tail's detail names the failing stage task — artifact key and
/// stage name — so a shared-stage failure stays attributable per
/// requester.  Shared by the DSE sweep engine and the synthesis daemon.
void fill_flow_status_from_graph( const task_graph& graph, task_id tail, flow_result& out );

/// Runs a flow on an already-elaborated AIG, reading shared stage
/// artifacts from (and adding missing ones to) the given cache.  Cost and
/// circuit results are bit-identical to the uncached path; only
/// `runtime_seconds` shrinks on cache hits.  Budgets come from
/// `params.limits` (the deadline is armed at call entry); expiry inside a
/// kernel without a partial result (TBS) throws `qsyn::budget_exhausted`,
/// anytime kernels and the verify ladder degrade instead and record it in
/// `status` / `verify_downgraded`.
flow_result run_flow_staged( const aig_network& aig, const flow_params& params,
                             flow_artifact_cache& cache );

/// As above with an externally armed deadline (e.g. a DSE design's
/// deadline, armed when its elaboration finished) in place of
/// `params.limits`.
flow_result run_flow_staged( const aig_network& aig, const flow_params& params,
                             flow_artifact_cache& cache, const deadline& stop );

/// Runs a flow on an already-elaborated AIG (one-shot private cache).
flow_result run_flow_on_aig( const aig_network& aig, const flow_params& params );

/// Runs a flow on Verilog source (parse, elaborate, optimize, synthesize).
flow_result run_flow_on_verilog( const std::string& verilog_source, const flow_params& params );

/// Runs a flow on one of the paper's reciprocal designs.
flow_result run_reciprocal_flow( reciprocal_design design, unsigned n, const flow_params& params );

/// Verilog source of a reciprocal design (generator passthrough).
std::string reciprocal_verilog( reciprocal_design design, unsigned n );

} // namespace qsyn
