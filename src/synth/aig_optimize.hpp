/// \file aig_optimize.hpp
/// \brief dc2-style AIG optimization passes.
///
/// The paper's flows run ABC's `dc2` / `resyn2` on the elaborated design
/// before handing it to reversible synthesis.  We provide the same three
/// mechanisms those scripts combine:
///
/// * `balance`    — rebuilds multi-input AND trees in balanced form (depth
///                  reduction, exposes sharing through structural hashing),
/// * `refactor`   — collapses small single-output cones to truth tables and
///                  resynthesizes them from an irredundant SOP when that
///                  reduces the node count,
/// * `sat_sweep`  — fraig-style merging of functionally equivalent nodes:
///                  random-pattern simulation proposes equivalence classes,
///                  the CDCL solver proves or refutes each candidate.
///
/// `optimize` (our `dc2`) iterates these to a fixpoint with a round limit.

#pragma once

#include "../logic/aig.hpp"

namespace qsyn
{

/// Balances AND trees; function-preserving, typically reduces depth.
aig_network aig_balance( const aig_network& aig );

/// ISOP-based refactoring of cones up to 8 inputs (the width of the
/// fixed-size cone tables, small_truth_table::max_vars).
aig_network aig_refactor( const aig_network& aig );

/// Fraig-style SAT sweeping; merges proven-equivalent nodes (up to
/// complement).  `conflict_budget` bounds the per-candidate SAT effort.
aig_network aig_sat_sweep( const aig_network& aig, std::uint64_t conflict_budget = 1000 );

/// The dc2-style driver: alternates cleanup, balance and refactor for
/// `rounds` rounds (stopping early on fixpoint).  `use_sat_sweep` adds a
/// final fraig pass (more expensive, bigger gains on redundant netlists).
aig_network optimize( const aig_network& aig, unsigned rounds = 3, bool use_sat_sweep = false );

} // namespace qsyn
