/// \file incremental.hpp
/// \brief Incremental, structurally-hashed SAT equivalence engine.
///
/// `incremental_cec` replaces the one-monolithic-miter-per-call scheme of
/// `check_equivalence` (cnf.hpp) for the SAT verification tier.  One engine
/// instance owns ONE persistent CDCL solver and an internal AND-node store;
/// every `check()` call encodes its two AIGs *into the union store* through
/// hash-consing.  The verification tier only hands it designs with more
/// than `sat_tier_max_enumerated_pis` (verify.hpp) inputs; narrower ones
/// are proven by enumeration before the engine is reached.
///
///  * **Shared structural hashing.**  AND nodes are hash-consed (flat
///    `strash_table`) across both sides of a miter AND across successive
///    calls, so identical substructure — the spec cone shared by every
///    configuration of a DSE sweep, or logic shared between an
///    implementation and its spec — is stored exactly once.  Outputs whose
///    cones collapse to the same internal literal are proven equivalent
///    with zero solver work.  Each store node is encoded into the solver
///    (variable, Tseitin clauses, signature) when it is created.
///  * **Per-output miters under assumptions.**  Instead of one global OR
///    over all output XORs, each output pair gets its own miter activated by
///    a fresh assumption literal on the persistent solver.  UNSAT retires
///    the assumption and asserts the output equality as a permanent lemma
///    (sound: the trigger occurs nowhere else, so UNSAT under the
///    assumption proves the equality from the encoding alone), which
///    accelerates every later call that reaches the same cone.
///  * **Simulation-guided fraiging.**  Every node carries a signature of
///    four 64-bit pattern words (one random simulation pattern per bit,
///    word-AND/word-NOT over the fanin signatures).  Signature-equal node
///    pairs become candidate equivalences that are proven by the free
///    structural and 64-way window proofs *before* the output miters run;
///    proven pairs are merged (class representative + permanent equality
///    clauses), so the final miters see an already-swept union graph.
///    Candidates neither proof settles are dropped.
///  * **CDCL upgrades** live in solver.hpp: activity/LBD-scored learned
///    clause deletion and Luby restarts keep the persistent solver healthy
///    across a long sequence of checks.
///
/// ## Counterexample contract
///
/// `check()` reports the *lowest-indexed* differing output
/// (`failing_output`) together with one input assignment on which the two
/// AIGs differ at that output.  The assignment is engine-dependent — but it
/// is always real: it is extracted from the model of the failing
/// per-output miter, and tests/test_sat.cpp round-trips it through both
/// networks.  When the networks are equivalent, `check()` is a proof (UNSAT
/// of every per-output miter, a window proof, or structural identity).
///
/// ## Thread safety
///
/// `check()` is serialized through an internal mutex: concurrent calls from
/// a DSE thread pool are safe and observe each other's learned structure.
/// Statistics accessors take the same mutex.  The engine may outlive the
/// AIGs passed to `check()` (nothing is retained by reference).

#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "../common/strash_table.hpp"
#include "../logic/aig.hpp"
#include "solver.hpp"

namespace qsyn::sat
{

/// Per-check limits (default: unlimited).  The wall-clock deadline is
/// polled while the check encodes and fraigs, and is installed on the
/// persistent solver for the duration of the check.
struct check_limits
{
  deadline stop;
};

/// Outcome of one equivalence check.
struct cec_outcome
{
  bool equivalent = false;
  /// False when the check's deadline expired before it reached a
  /// verdict; `equivalent`/`failing_output` are then meaningless.  Checks
  /// with unlimited limits always resolve.
  bool resolved = true;
  /// Lowest-indexed output on which the networks differ.
  std::optional<unsigned> failing_output;
  /// Input assignment distinguishing the networks at `failing_output`.
  /// May be absent on a deadline-limited check that proved a difference
  /// but could not reconstruct a model before the deadline expired.
  std::optional<std::vector<bool>> counterexample;
};

/// Cumulative engine statistics (across all checks of the instance).
struct cec_stats
{
  std::size_t checks = 0;
  std::size_t nodes = 0;            ///< union AND nodes created
  std::size_t strash_hits = 0;      ///< AND lookups served by hash-consing
  std::size_t structural_outputs = 0; ///< output pairs equal by structure alone
  std::size_t sat_proven_outputs = 0; ///< output pairs proven by a miter solve
  std::size_t fraig_candidates = 0; ///< signature-equal pairs attempted
  std::size_t fraig_merges = 0;     ///< candidate pairs proven and merged
  std::size_t fraig_window_proofs = 0; ///< merges proven by the 64-way window alone
  std::uint64_t solver_conflicts = 0;
};

/// Incremental equivalence engine over one persistent solver (see file
/// comment).  Construct once per design / sweep, call `check()` per
/// configuration.
class incremental_cec
{
public:
  incremental_cec();

  /// Checks whether `a` and `b` (same PI/PO interface; throws
  /// std::invalid_argument otherwise) implement the same multi-output
  /// function.  Successive calls may use different networks — and different
  /// interface sizes — and reuse everything already encoded.  Thread-safe.
  cec_outcome check( const aig_network& a, const aig_network& b );

  /// Deadline-limited variant: stops cooperatively when `limits.stop`
  /// expires — while encoding, fraiging or solving — and reports
  /// `resolved = false` instead of hanging.  Structure built before the
  /// deadline expired (encoded nodes, lemmas, merges, queued fraig
  /// candidates) is kept, so a later retry resumes instead of restarting.
  cec_outcome check( const aig_network& a, const aig_network& b, const check_limits& limits );

  cec_stats stats() const;

private:
  /// Internal literal: 2 * node + complement; node 0 is constant false.
  using ilit = std::uint32_t;

  struct inode
  {
    ilit fanin0 = 0;
    ilit fanin1 = 0;
  };

  /// Strash key of an AND: the ordered fanin pair packed into one word.
  static strash_table<1>::key_type strash_key( ilit a, ilit b )
  {
    return { ( static_cast<std::uint64_t>( a ) << 32 ) | b };
  }

  ilit find( ilit l ) const;
  literal to_sat( ilit l ) const;
  void ensure_pis( unsigned count );
  /// Hash-conses one AND into the union store and encodes it if new.
  ilit create_and( ilit a, ilit b );
  /// Encodes the newest store node into the solver: variable, Tseitin
  /// clauses or constant unit, signature and class registration.
  void encode_node( std::uint32_t node );
  /// Encodes `aig` into the union store and returns its output literals;
  /// nullopt when `stop` expires first (polled every
  /// `encode_poll_interval` nodes, starting with the first).
  std::optional<std::vector<ilit>> encode( const aig_network& aig, const deadline& stop );
  void register_signature( std::uint32_t node );
  /// Works off queued fraig candidates, polling `stop` per candidate;
  /// unprocessed candidates stay queued.
  void run_fraig( const deadline& stop );
  void merge( ilit keep, ilit drop );
  /// Asserts a == b in the solver with two equality clauses.
  void assert_equal( ilit a, ilit b );
  /// Two-directional implication check under assumptions: (a & !b) then
  /// (!a & b).  UNSAT twice proves a == b; a satisfiable direction leaves
  /// its model (a counterexample to the equality) in the solver.
  result prove_equal( ilit a, ilit b, std::uint64_t conflict_budget,
                      std::uint64_t decision_budget );
  /// Merges two nodes whose fanins already resolve to the same equivalence
  /// classes — zero solver work.  Returns true if a merge happened.
  bool try_structural_merge( ilit a, ilit b );
  /// Exhaustive 64-way window proof: evaluates both cones, expanded to a
  /// small fixed depth and node count, over the free values of at most
  /// twelve frontier equivalence classes (projection patterns,
  /// word-parallel).  true => a == b (sound; never refutes).
  bool window_proves_equal( ilit a, ilit b );

  solver solver_;
  std::vector<inode> nodes_;       ///< [0] = constant false; PIs and ANDs follow
  std::vector<ilit> rep_;          ///< equivalence-class representative per node
  std::vector<std::uint32_t> pi_nodes_; ///< PI index -> node id
  strash_table<1> strash_;         ///< AND node ids, keyed by exact (fanin0, fanin1)
  std::vector<literal> node_sat_;  ///< positive solver literal per node
  std::vector<std::uint64_t> sigs_; ///< signature words, node-major
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> sig_classes_;
  std::vector<std::pair<std::uint32_t, ilit>> fraig_pending_; ///< (node, candidate)
  std::size_t fraig_cursor_ = 0; ///< next fraig_pending_ entry to process
  std::unordered_set<std::uint64_t> fraig_refuted_; ///< canonical pair keys
  std::uint64_t sig_rng_state_;
  cec_stats stats_;
  mutable std::mutex mutex_;
};

} // namespace qsyn::sat
