/// \file tbs.hpp
/// \brief Transformation-based synthesis of reversible functions
/// (Miller-Maslov-Dueck; RevKit's `tbs`).
///
/// The synthesizer walks the truth table of the reversible function in
/// ascending order and appends Toffoli gates that map each row's current
/// image to its index without disturbing earlier rows; the emitted circuit,
/// reversed, realizes the function.  The bidirectional variant may instead
/// fix a row from the input side when that needs fewer bit flips, which is
/// the standard gate-count improvement.
///
/// Rather than scanning the full table per gate, both directions update the
/// permutation and its inverse only on the affected subcube (a gate with
/// control set C touches exactly the 2^(r-|C|-1) state pairs that satisfy
/// C) — the same locality that the symbolic variant of [7] exploits; this
/// keeps explicit synthesis practical through r ~ 20 lines.
///
/// Substitution note: the paper runs the decision-diagram-based symbolic
/// variant `tbs -s` to push the bitwidth further; we run the explicit
/// algorithm.  Of Table II only the qubit column matches the paper: our
/// T-counts are far above its and grow much faster with n (INTDIV 13 421
/// at n = 4 and 22 169 259 at n = 8, against the paper's 597 and 51 386).
/// See docs/ARCHITECTURE.md ("The synthesis front end") and ROADMAP item 6.

#pragma once

#include <cstdint>
#include <vector>

#include "../common/budget.hpp"
#include "../reversible/circuit.hpp"

namespace qsyn
{

struct tbs_params
{
  bool bidirectional = true;
  /// Cooperative deadline, polled every 16 rows.  TBS has no meaningful
  /// partial result (a half-fixed permutation is not a circuit of the
  /// function), so expiry throws `qsyn::budget_exhausted`.
  deadline stop;
};

/// Synthesizes a reversible circuit realizing the given permutation over
/// r = log2(perm.size()) lines.  The permutation acts on state indices
/// whose bit i is line i.  Throws `qsyn::budget_exhausted` when
/// `params.stop` expires mid-synthesis.
reversible_circuit tbs_synthesize( std::vector<std::uint64_t> permutation,
                                   const tbs_params& params = {} );

} // namespace qsyn
