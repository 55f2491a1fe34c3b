/// \file isop.hpp
/// \brief Irredundant sum-of-products computation (Minato-Morreale).
///
/// ISOPs drive the refactoring pass of the dc2-style AIG optimizer and the
/// SOP-based candidate form of the xmglut-style LUT resynthesis.  Both only
/// ask for functions of at most eight variables, so the recursion runs on
/// fixed-width `small_truth_table`s (one word per level up to six
/// variables) and appends into a single output vector: it allocates nothing
/// besides the cube list.

#pragma once

#include <vector>

#include "../logic/cube.hpp"
#include "../logic/truth_table.hpp"

namespace qsyn
{

/// Computes an irredundant sum-of-products F with on <= F <= on | dc
/// (classic Minato-Morreale recursion).  `on` and `dc` must not overlap in
/// a contradictory way (on & ~ (on|dc) empty by construction).  Throws
/// std::invalid_argument for more than small_truth_table::max_vars = 8
/// variables.
std::vector<cube> isop( const truth_table& on, const truth_table& dc );

/// ISOP of a completely specified function.
inline std::vector<cube> isop( const truth_table& f )
{
  return isop( f, truth_table( f.num_vars() ) );
}

/// ISOP of a completely specified function given in replicated
/// fixed-width form, written into `cubes` (cleared first, capacity kept).
/// Same cubes in the same order as isop() of the equivalent truth_table.
void isop( const small_truth_table& f, std::vector<cube>& cubes );

/// Truth table covered by a SOP.
truth_table sop_cover( const std::vector<cube>& cubes, unsigned num_vars );

} // namespace qsyn
