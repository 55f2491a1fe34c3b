/// \file solver.hpp
/// \brief A CDCL SAT solver.
///
/// The solver backs combinational equivalence checking (the paper verifies
/// every synthesized circuit with ABC's `cec`).  It is a classic conflict-driven solver:
/// two-watched-literal propagation, first-UIP clause learning, VSIDS
/// activities on a binary max-heap with phase saving, Luby restarts, and
/// activity/LBD-scored learned-clause deletion (glue clauses with LBD <= 2
/// are kept forever; the rest are halved whenever the learned database
/// outgrows a geometrically growing limit).  Deletion can be disabled with
/// `set_clause_deletion(false)` — verdicts must not change, which
/// tests/test_sat.cpp checks on random CNF against brute force.
///
/// ## Incremental use
///
/// The solver is designed to be *kept alive* across many `solve()` calls:
/// clauses and variables can be added between calls (at decision level 0),
/// and `solve()` accepts a list of assumption literals that hold for that
/// call only.  `result::unsatisfiable` under assumptions does not poison the
/// solver — it remains usable, and anything learned (including level-0
/// units) carries over to later calls.  This is the substrate of the
/// incremental equivalence engine in incremental.hpp, which solves one
/// per-output miter per assumption instead of one monolithic miter per
/// instance.
///
/// ## Thread safety
///
/// A `solver` instance is NOT thread-safe; callers must serialize access
/// (the incremental engine does so with an internal mutex).

#pragma once

#include <cstdint>
#include <vector>

#include "../common/budget.hpp"

namespace qsyn::sat
{

/// Literal encoding: 2 * var + sign (sign = 1 means negated).
using literal = std::uint32_t;

inline literal pos_lit( std::uint32_t var ) { return var << 1; }
inline literal neg_lit( std::uint32_t var ) { return ( var << 1 ) | 1u; }
inline literal lit_negate( literal l ) { return l ^ 1u; }
inline std::uint32_t lit_var( literal l ) { return l >> 1; }
inline bool lit_sign( literal l ) { return l & 1u; }

/// Solver outcome.
enum class result
{
  satisfiable,
  unsatisfiable,
  unknown ///< conflict budget exhausted
};

/// Conflict-driven clause-learning SAT solver.
class solver
{
public:
  solver() = default;

  /// Allocates a fresh variable and returns its index.
  std::uint32_t new_var();
  std::uint32_t num_vars() const { return static_cast<std::uint32_t>( assign_.size() ); }

  /// Adds a clause (vector of literals).  Returns false if the clause is
  /// trivially conflicting at level 0 (solver becomes permanently UNSAT).
  /// Must be called outside of `solve()` (decision level 0).
  bool add_clause( std::vector<literal> clause );

  /// Solves under the given assumptions.  UNSAT under assumptions leaves
  /// the solver usable for further `add_clause` / `solve` calls.
  /// `conflict_budget` / `decision_budget` (0 = unlimited) bound the search
  /// and make the call return `result::unknown` when exhausted — the
  /// incremental equivalence engine uses a small decision budget to keep
  /// speculative fraiging checks from walking the whole variable range.
  result solve( const std::vector<literal>& assumptions = {}, std::uint64_t conflict_budget = 0,
                std::uint64_t decision_budget = 0 );

  /// Value of a variable in the last satisfying model.
  bool model_value( std::uint32_t var ) const { return model_[var]; }

  /// Sets a cooperative wall-clock deadline polled at the conflict and
  /// decision checkpoints of `solve()` (and at solve entry, so an already
  /// expired deadline returns promptly).  An expired deadline makes
  /// `solve()` return `result::unknown`, exactly like an exhausted
  /// conflict budget.  A default-constructed deadline (the default) never
  /// expires.
  void set_deadline( const deadline& d ) { deadline_ = d; }

  /// Enables/disables learned-clause deletion (default: enabled).  Deletion
  /// is a performance feature only; verdicts are unaffected.
  void set_clause_deletion( bool enabled ) { deletion_enabled_ = enabled; }
  /// Learned-clause count that triggers the first database reduction (the
  /// limit then grows geometrically).  Exposed so tests can force frequent
  /// reductions on small instances.
  void set_reduce_base( std::uint32_t base ) { reduce_base_ = base; }

  std::uint64_t num_conflicts() const { return conflicts_; }
  std::uint64_t num_decisions() const { return decisions_; }
  std::uint64_t num_propagations() const { return propagations_; }
  std::uint64_t num_restarts() const { return restarts_; }
  std::uint64_t num_learnts_deleted() const { return learnts_deleted_; }
  std::size_t num_clauses() const { return clauses_.size(); }

private:
  enum class lbool : std::int8_t
  {
    unassigned = 0,
    true_value = 1,
    false_value = -1
  };

  struct clause
  {
    std::vector<literal> lits;
    double activity = 0.0;     ///< learned clauses only
    std::uint32_t lbd = 0;     ///< literal block distance at learning time
    bool learnt = false;
  };

  struct watcher
  {
    std::uint32_t clause_index;
    literal blocker;
  };

  lbool value( literal l ) const
  {
    const auto v = assign_[lit_var( l )];
    if ( v == lbool::unassigned )
    {
      return lbool::unassigned;
    }
    const bool is_true = ( v == lbool::true_value ) != lit_sign( l );
    return is_true ? lbool::true_value : lbool::false_value;
  }

  void enqueue( literal l, std::int32_t reason );
  /// Propagates pending assignments; returns conflicting clause index or -1.
  std::int32_t propagate();
  void analyze( std::int32_t conflict, std::vector<literal>& learnt, std::uint32_t& backtrack_level );
  void backtrack( std::uint32_t level );
  literal pick_branch();
  void bump_var( std::uint32_t var );
  void decay_activities();
  void bump_clause( std::uint32_t index );
  void decay_clause_activities();
  std::uint32_t compute_lbd( const std::vector<literal>& lits );
  void attach_clause( std::uint32_t index );
  /// Deletes the less useful half of the learned clauses and simplifies the
  /// database against the level-0 assignment.  Must run at decision level 0
  /// with propagation complete.
  void reduce_db();

  // Variable-order max-heap on activity_.
  bool heap_contains( std::uint32_t var ) const
  {
    return heap_pos_[var] >= 0;
  }
  void heap_insert( std::uint32_t var );
  void heap_sift_up( std::size_t i );
  void heap_sift_down( std::size_t i );
  std::uint32_t heap_pop();

  std::vector<clause> clauses_;
  std::vector<std::vector<watcher>> watches_; ///< indexed by literal
  std::vector<lbool> assign_;                 ///< per variable
  std::vector<std::int32_t> reason_;          ///< clause index or -1 (decision)
  std::vector<std::uint32_t> level_;
  std::vector<literal> trail_;
  std::vector<std::uint32_t> trail_limits_;
  std::size_t propagate_head_ = 0;
  std::vector<double> activity_;
  std::vector<bool> phase_;
  double activity_inc_ = 1.0;
  double clause_inc_ = 1.0;
  bool ok_ = true;
  std::vector<bool> model_;
  std::vector<bool> seen_; ///< scratch for analyze()
  std::vector<std::uint32_t> heap_;      ///< variable order heap (max on activity)
  std::vector<std::int32_t> heap_pos_;   ///< var -> heap slot or -1
  std::vector<std::uint64_t> lbd_stamp_; ///< per level, for compute_lbd()
  std::uint64_t lbd_stamp_counter_ = 0;

  deadline deadline_;
  bool deletion_enabled_ = true;
  std::uint32_t reduce_base_ = 2000;
  std::uint64_t reduce_limit_ = 0; ///< 0 = not yet initialized
  std::size_t num_learnts_ = 0;
  std::uint64_t learnts_deleted_ = 0;

  std::uint64_t conflicts_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t propagations_ = 0;
  std::uint64_t restarts_ = 0;
};

} // namespace qsyn::sat
