/// \file aig_optimize.hpp
/// \brief dc2-style AIG optimization: ISOP refactoring to a fixpoint.
///
/// The paper's flows run ABC's `dc2` / `resyn2` on the elaborated design
/// before handing it to reversible synthesis.  Of the two mechanisms those
/// scripts combine we keep `refactor`: it collapses small single-output
/// cones to truth tables and resynthesizes them from an irredundant SOP
/// when that reduces the node count.
///
/// There is no balancing pass.  Balancing rebuilds AND trees to cut depth,
/// and the flows score a circuit only by qubits and T-count, neither of
/// which depends on depth.  Under the area-flow LUT cover, dropping it
/// moved the hierarchical flow's qubit and T-count geometric means on the
/// qbench workloads by -2.3 % to +1.0 %, and it was ~17 % of `optimize`'s
/// time on NEWTON(16) and NEWTON(24).
///
/// Refactor plans its roots on every core: planners read only the source
/// network and its fanout counts, claim 4 096-node chunks
/// (parallel_chunks.hpp; inline inside a pool job, `QSYN_THREADS` bounds
/// the width) and hand back each chunk's plans, which are applied in
/// chunk order, so the result is the same network at any thread count.
/// Each planner keeps a fixed-size, direct-mapped memo of the chosen ISOP
/// cover per (cone table, leaf count): a few hundred distinct functions
/// make up the tens of thousands of candidate cones of an arithmetic
/// design.  The rebuild from the POs, which fixes the node ids, is serial.

#pragma once

#include "../logic/aig.hpp"

namespace qsyn
{

/// ISOP-based refactoring of cones up to 8 inputs (the width of the
/// fixed-size cone tables, small_truth_table::max_vars).
aig_network aig_refactor( const aig_network& aig );

/// The dc2-style driver: cleanup, then up to `rounds` rounds of refactor +
/// cleanup, stopping early once a round no longer removes an AND node.  A
/// round's cleanup is skipped when no AND node is dangling, where it would
/// copy the network unchanged; the result is node-identical either way,
/// and the next round reuses the fanout counts of that check.
aig_network optimize( const aig_network& aig, unsigned rounds = 3 );

} // namespace qsyn
