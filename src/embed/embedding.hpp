/// \file embedding.hpp
/// \brief Embedding irreversible functions into reversible ones
/// (paper Sec. II-B).
///
/// An n-input, m-output function f embeds into an r-variable reversible
/// function f' when constants can be applied to the extra inputs such that
/// the last m outputs of f' compute f (Eq. (1)).  The minimum number of
/// additional lines is ceil(log2 mu) where mu is the largest collision-set
/// size max_y |f^-1(y)| (Eq. (3)); computing it is coNP-complete in
/// general [17], but an explicit truth-table scan is exact and practical
/// under the functional flow's input cap.
///
/// Layout conventions of the constructed permutation (on 2^r states):
///  * input side:  x occupies the low n bits, constant-0 ancillae the rest,
///  * output side: f(x) occupies the *high* m bits (matching Eq. (1)'s
///    "last m outputs"), garbage the low r-m bits.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "../logic/truth_table.hpp"

namespace qsyn
{

/// Most lines `embed_optimum` builds: its explicit permutation holds 2^r
/// eight-byte states, 2 GiB at r = 28.
constexpr unsigned max_embedding_lines = 28;

/// Thrown by `embed_optimum` when the embedding needs more than
/// `max_embedding_lines` lines.
struct embedding_line_limit_error : std::invalid_argument
{
  using std::invalid_argument::invalid_argument;
};

/// Result of embedding an irreversible specification.
struct embedding
{
  unsigned num_inputs = 0;    ///< n
  unsigned num_outputs = 0;   ///< m
  unsigned num_lines = 0;     ///< r
  unsigned extra_lines = 0;   ///< r - n constant-0 inputs
  unsigned garbage_lines = 0; ///< r - m garbage outputs
  std::uint64_t max_collisions = 0; ///< mu of Eq. (3)

  /// The embedded reversible function as a permutation of 2^r states.
  std::vector<std::uint64_t> permutation;
};

/// Largest collision-set size via explicit enumeration (n <= ~24).
std::uint64_t max_collisions_explicit( const std::vector<truth_table>& outputs );

/// Builds a line-optimum embedding of the given multi-output function:
/// r = max(n, m + ceil(log2 mu)) lines.  Throws
/// embedding_line_limit_error when r exceeds max_embedding_lines.
embedding embed_optimum( const std::vector<truth_table>& outputs );

} // namespace qsyn
