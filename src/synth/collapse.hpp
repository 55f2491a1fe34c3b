/// \file collapse.hpp
/// \brief Collapsing a multi-level AIG into functional form (ABC `collapse`).
///
/// The functional reversible flow (Sec. IV-A) needs the design as an
/// explicit function: a truth-table vector for the optimum embedding and the
/// transformation-based synthesizer.

#pragma once

#include <vector>

#include "../logic/aig.hpp"
#include "../logic/truth_table.hpp"

namespace qsyn
{

/// Explicit truth tables of all outputs (num_pis() <= 20).
std::vector<truth_table> collapse_to_truth_tables( const aig_network& aig );

} // namespace qsyn
