/// \file exorcism.hpp
/// \brief ESOP minimization via cube pairing (exorcism-style).
///
/// Reimplementation of the heuristic of Mishchenko & Perkowski, "Fast
/// heuristic minimization of exclusive sum-of-products" [21], as used by
/// the paper's ESOP-based flow.  The minimizer repeatedly applies
/// EXORLINK-style transformations to cube pairs of small Boolean distance
/// (0, 1, 2) until no transformation reduces the cost, where cost is the
/// (cube count, literal count) pair ordered lexicographically.
///
/// Pairs are discovered through a pair-generation index instead of an
/// all-pairs scan: terms are bucketed by output mask, distance-1 partners
/// are found by O(1) exact-map lookups of the single-literal perturbations
/// of a cube, and distance-2 partners by lookups in a two-position wildcard
/// signature index.  The EXORLINK rewrites themselves are constructed with
/// closed-form word operations on the (mask, polarity) bit-vectors — the
/// rewrites are unconditionally valid for distance <= 2, which the retained
/// exhaustive checker asserts in debug builds.

#pragma once

#include <cstdint>

#include "../common/budget.hpp"
#include "../logic/cube.hpp"

namespace qsyn
{

/// Statistics of one minimization run.
struct exorcism_stats
{
  std::size_t initial_terms = 0;
  std::size_t final_terms = 0;
  std::size_t initial_literals = 0;
  std::size_t final_literals = 0;
  unsigned passes = 0;
  /// Pair-improvement attempts spent.
  std::uint64_t pairs_attempted = 0;
  /// True when the run stopped at its deadline rather than at a fixpoint.  The expression is still a valid (partially minimized)
  /// ESOP of the same function — every rewrite preserves it, so stopping
  /// anywhere is sound.
  bool budget_exhausted = false;
};

/// Resource limits of one minimization run (EXORCISM is an anytime
/// algorithm: hitting a limit yields a valid, merely less-minimized ESOP).
struct exorcism_params
{
  unsigned max_passes = 16;
  /// Cooperative wall-clock deadline, polled every 256 attempts.
  deadline stop;
};

/// Closed-form distance-1 merge: the single cube equivalent to a ^ b when
/// the cubes differ in exactly one literal position.
cube exorlink_merge( const cube& a, const cube& b );

/// The two EXORLINK-2 rewrites of a distance-2 pair: a ^ b == a1 ^ b1 ==
/// a2 ^ b2, each obtained by replacing one differing literal of one cube
/// with the merged state.
struct exorlink2_rewrites
{
  cube a1, b1;
  cube a2, b2;
};
exorlink2_rewrites exorlink_two( const cube& a, const cube& b );

/// Exhaustive semantic reference check that a ^ b == c1 [^ c2], enumerating
/// all assignments of the involved variables.  Retained as the debug
/// cross-check of the closed-form rewrites and for the property tests.
bool xor_equivalent_exhaustive( const cube& a, const cube& b, const cube& c1,
                                const cube* c2 = nullptr );

/// Minimizes a multi-output ESOP in place; returns statistics.
/// `max_passes` bounds the outer improvement loop.
exorcism_stats exorcism( esop& expression, unsigned max_passes = 16 );

/// As above, under explicit resource limits.
exorcism_stats exorcism( esop& expression, const exorcism_params& params );

} // namespace qsyn
