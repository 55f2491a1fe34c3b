/// \file xmg_resynth.hpp
/// \brief LUT-network to XMG resynthesis (CirKit `xmglut`-style).
///
/// Each mapped LUT function (<= k inputs) is re-expressed in XOR/MAJ logic
/// with the reversible cost model in mind: MAJ (and its AND/OR special
/// cases) costs one Toffoli gate, XOR and inverters are free.  Per LUT the
/// synthesizer considers
///
///  * direct forms — constants, literals, AND/OR/XOR of literals, MAJ of
///    three literals (any polarities),
///  * the PPRM expansion (XOR of positive-literal monomials), and
///  * the ISOP expansion (SOP over AND/OR nodes),
///
/// and picks the candidate with the fewest MAJ nodes (ties: fewer total
/// nodes).  The choice depends only on the support-shrunk function, so it
/// is made once per distinct function.  Structural hashing in the target
/// XMG shares logic across LUTs.

#pragma once

#include "../logic/xmg.hpp"
#include "lut_map.hpp"

namespace qsyn
{

/// Statistics of one resynthesis run.
struct xmg_resynth_stats
{
  std::size_t luts = 0;
  std::size_t direct_forms = 0;
  std::size_t pprm_forms = 0;
  std::size_t isop_forms = 0;
};

/// Converts a LUT network into an XMG.
xmg_network xmg_from_luts( const lut_network& luts, xmg_resynth_stats* stats = nullptr );

/// Convenience driver: optimized AIG -> LUT mapping -> XMG (the paper's
/// `xmglut -k 4` step).
xmg_network xmg_from_aig( const aig_network& aig, unsigned cut_size = 4,
                          xmg_resynth_stats* stats = nullptr );

} // namespace qsyn
