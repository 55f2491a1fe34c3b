/// \file lut_map.hpp
/// \brief k-LUT technology mapping of an AIG via cut enumeration.
///
/// The hierarchical flow derives an XMG from the optimized AIG with
/// CirKit's `xmglut -k 4` (paper Sec. IV-C): the AIG is covered with
/// k-feasible cuts, and each cut function is resynthesized into XOR/MAJ
/// logic.  This module provides the covering half: priority-cut
/// enumeration with area-flow selection (Mishchenko et al., "Combinational
/// and sequential mapping with priority cuts", ICCAD 2007), fewer leaves
/// breaking ties, producing a LUT network with explicit truth tables per
/// LUT.  The cost model has no depth: a reversible circuit is scored by
/// qubits and T-count, which depend on how many LUTs there are and what
/// they compute, not on their level, so the mapper covers for area only.

#pragma once

#include <cstdint>
#include <vector>

#include "../logic/aig.hpp"
#include "../logic/truth_table.hpp"

namespace qsyn
{

/// A mapped LUT network.  Signals are indexed 0..num_pis-1 for the PIs,
/// then one index per LUT in topological order.
struct lut_network
{
  unsigned num_pis = 0;

  struct lut
  {
    std::vector<std::uint32_t> fanins; ///< signal indices
    truth_table function;              ///< over fanins.size() variables
  };

  std::vector<lut> luts;

  struct output
  {
    std::uint32_t signal;
    bool complemented;
  };
  std::vector<output> outputs;

  std::uint32_t signal_of_lut( std::size_t lut_index ) const
  {
    return num_pis + static_cast<std::uint32_t>( lut_index );
  }

  /// Evaluates all outputs on one input assignment (for verification).
  std::vector<bool> evaluate( const std::vector<bool>& inputs ) const;
};

/// Parameters of the mapper.
struct lut_map_params
{
  /// Largest supported k: a cut function is one 64-bit word.
  static constexpr unsigned max_cut_size = 6;
  /// Priority cuts kept per node, besides the node's trivial cut.
  static constexpr unsigned cuts_per_node = 8;

  unsigned cut_size = 4; ///< k, in [2, max_cut_size]
};

/// Maps an AIG into a k-LUT network.  Cuts live in fixed-capacity leaf
/// arrays with one-word functions, and the per-node priority lists in
/// recycled fixed-size blocks, so enumeration allocates only while the
/// set of live lists grows.  Throws std::invalid_argument when `cut_size`
/// is outside [2, max_cut_size].
lut_network lut_map( const aig_network& aig, const lut_map_params& params = {} );

} // namespace qsyn
