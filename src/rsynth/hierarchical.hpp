/// \file hierarchical.hpp
/// \brief Hierarchical reversible synthesis from an XMG
/// (REVS [9] / [8], paper Sec. IV-C).
///
/// Every XMG node is computed onto a circuit line in topological order:
///
///  * XOR nodes cost only CNOTs (zero T).  When an operand is at its last
///    use, the XOR is applied in place on that operand's line (the paper's
///    "XOR can be applied in-place" observation).
///  * MAJ nodes cost exactly ONE Toffoli: with fresh target t and operand
///    lines a, b, c the sequence
///       CNOT(a,b); CNOT(a,c); TOF(b,c -> t); CNOT(a,t); CNOT(a,c); CNOT(a,b)
///    computes t ^= MAJ(a,b,c) (using MAJ(a,b,c) = a xor (a xor b)(a xor c))
///    and restores the operands.  AND/OR (MAJ with a constant input) use a
///    single Toffoli directly.  Inverters fold into control polarities.
///
/// Cleanup strategies (REVS "strategies for cleaning up intermediate
/// calculations and re-using qubits"):
///
///  * keep_garbage — every intermediate stays live: minimum T, maximum lines
///    (this is the configuration reported in Table IV),
///  * bennett      — copy outputs out, then uncompute the whole compute
///    window: ancillae return to 0 (reusable by a surrounding computation),
///    2x the T-count and one extra line per output that keep_garbage
///    claims in place.
///
/// Both run the same loop: compute every live node once in topological
/// order, then claim (keep_garbage) or copy (bennett) the outputs.  The
/// enumerator values are part of the flow cache and store keys and must
/// not change.

#pragma once

#include "../logic/xmg.hpp"
#include "../reversible/circuit.hpp"

namespace qsyn
{

enum class cleanup_strategy
{
  keep_garbage,
  bennett
};

struct hierarchical_params
{
  cleanup_strategy cleanup = cleanup_strategy::keep_garbage;
};

/// Synthesizes a reversible circuit computing all XMG outputs.  Inputs are
/// preserved on lines 0..n-1; output lines are flagged via line_info.
reversible_circuit hierarchical_synthesize( const xmg_network& xmg,
                                            const hierarchical_params& params = {} );

} // namespace qsyn
