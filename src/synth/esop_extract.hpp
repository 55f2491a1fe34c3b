/// \file esop_extract.hpp
/// \brief ESOP extraction from truth tables (PSDKRO heuristic).
///
/// This is our reimplementation of ABC's `&exorcism` front half: collapsing
/// a logic network into a 2-level exclusive sum of products (Sec. IV-B).
/// For each subfunction the recursion chooses among the Shannon, positive
/// Davio, and negative Davio expansions, memoizing the best expansion per
/// distinct subfunction (a pseudo-symmetric decomposition Kronecker
/// Reed-Muller heuristic).  Multi-output designs share identical cubes via
/// output masks.

#pragma once

#include <vector>

#include "../logic/aig.hpp"
#include "../logic/cube.hpp"
#include "../logic/truth_table.hpp"

namespace qsyn
{

/// ESOP cubes of a single-output function.
std::vector<cube> esop_from_truth_table( const truth_table& tt );

/// Multi-output ESOP for all outputs of an AIG.  Requires num_pis() <=
/// aig_network::max_simulation_inputs (20) and num_pos() <=
/// esop::max_outputs (64), and throws std::invalid_argument on a wider
/// design; time and memory are those of
/// the output tables (2^n bits per output) and the PSDKRO memo — NEWTON(20)
/// takes ~2 s and INTDIV(20) ~0.4 s on a 4-vCPU Xeon.  Identical cubes
/// across outputs are merged into shared terms.
esop esop_from_aig( const aig_network& aig );

/// PPRM (positive-polarity Reed-Muller) expansion: the unique ESOP with
/// only positive literals.  Useful as a cheap XOR-friendly candidate form
/// in LUT resynthesis.
std::vector<cube> pprm_from_truth_table( const truth_table& tt );

} // namespace qsyn
