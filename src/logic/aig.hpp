/// \file aig.hpp
/// \brief And-inverter graphs with structural hashing.
///
/// AIGs are the workhorse multi-level logic representation of the classical
/// logic synthesis level (Fig. 1 of the paper): the Verilog elaborator emits
/// an AIG, the dc2-style optimizer transforms it, and the three reversible
/// flows consume it (collapsed to a truth table, collapsed to an ESOP,
/// or mapped to an XMG).
///
/// Nodes are stored in topological order; literals are `2 * node +
/// complement` with node 0 being constant false, nodes 1..num_pis() the
/// primary inputs, and all further nodes two-input ANDs.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "../common/strash_table.hpp"
#include "truth_table.hpp"

namespace qsyn
{

/// Literal: 2 * node index + complement flag.
using aig_lit = std::uint32_t;

inline aig_lit make_lit( std::uint32_t node, bool complemented = false )
{
  return ( node << 1 ) | ( complemented ? 1u : 0u );
}
inline std::uint32_t lit_node( aig_lit lit ) { return lit >> 1; }
inline bool lit_complemented( aig_lit lit ) { return lit & 1u; }
inline aig_lit lit_not( aig_lit lit ) { return lit ^ 1u; }
inline aig_lit lit_not_cond( aig_lit lit, bool cond ) { return lit ^ ( cond ? 1u : 0u ); }

/// An and-inverter graph.
class aig_network
{
public:
  static constexpr aig_lit const0 = 0u; ///< constant-false literal
  static constexpr aig_lit const1 = 1u; ///< constant-true literal

  /// Creates an AIG with `num_pis` primary inputs.
  explicit aig_network( unsigned num_pis = 0u );

  /// Adds one more primary input; only valid before any AND node exists.
  aig_lit add_pi();

  unsigned num_pis() const { return num_pis_; }
  unsigned num_pos() const { return static_cast<unsigned>( pos_.size() ); }
  /// Number of AND nodes (the usual AIG size metric).
  std::size_t num_ands() const { return nodes_.size() - 1u - num_pis_; }
  /// Total number of nodes including constant and PIs.
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Literal of the i-th primary input (0-based).
  aig_lit pi( unsigned index ) const;
  /// Constant literal.
  static aig_lit get_constant( bool value ) { return value ? const1 : const0; }

  bool is_constant( std::uint32_t node ) const { return node == 0u; }
  bool is_pi( std::uint32_t node ) const { return node >= 1u && node <= num_pis_; }
  bool is_and( std::uint32_t node ) const { return node > num_pis_; }

  /// Fanins of an AND node.
  aig_lit fanin0( std::uint32_t node ) const { return nodes_[node].fanin0; }
  aig_lit fanin1( std::uint32_t node ) const { return nodes_[node].fanin1; }

  /// --- construction (with structural hashing and constant folding) -------

  aig_lit create_and( aig_lit a, aig_lit b );
  aig_lit create_or( aig_lit a, aig_lit b );
  aig_lit create_xor( aig_lit a, aig_lit b );
  aig_lit create_xnor( aig_lit a, aig_lit b ) { return lit_not( create_xor( a, b ) ); }
  /// Multiplexer: sel ? t : e.
  aig_lit create_mux( aig_lit sel, aig_lit t, aig_lit e );
  /// Majority of three.
  aig_lit create_maj( aig_lit a, aig_lit b, aig_lit c );
  /// Balanced AND / OR / XOR over a list of literals (pairs neighbours,
  /// level by level, reducing the list in place).
  aig_lit create_nary_and( std::vector<aig_lit> lits );
  aig_lit create_nary_or( std::vector<aig_lit> lits );
  aig_lit create_nary_xor( std::vector<aig_lit> lits );

  /// Presizes the node vector and the strash table for `num_ands` AND
  /// nodes, so a network rebuilt from a source of known size never regrows
  /// either.  Changes no result.
  void reserve( std::size_t num_ands );

  /// Registers a primary output.
  void add_po( aig_lit lit ) { pos_.push_back( lit ); hash_.forget(); }
  aig_lit po( unsigned index ) const { return pos_.at( index ); }
  const std::vector<aig_lit>& pos() const { return pos_; }
  void set_po( unsigned index, aig_lit lit ) { pos_.at( index ) = lit; hash_.forget(); }

  /// --- analysis -----------------------------------------------------------

  /// Number of fanouts per node (POs included).
  std::vector<std::uint32_t> fanout_counts() const;

  /// Logic level per node (PIs and constant have level 0).
  std::vector<std::uint32_t> levels() const;
  /// Depth of the network (max PO level).
  std::uint32_t depth() const;

  /// Largest input count `simulate_outputs` accepts (2^20-bit tables).
  static constexpr unsigned max_simulation_inputs = 20;

  /// Truth-table simulation of every primary output over all num_pis()
  /// input assignments, a lane group of eight table words at a time over
  /// the network's live-slot program on the dispatched SIMD slot kernel
  /// (aig_slots.hpp): memory is the output tables plus eight words per
  /// *live* node and thread.  Chunks of lane groups run on parallel_chunks
  /// threads (inline inside a pool job; `QSYN_THREADS` bounds the width),
  /// each writing its own table words, so the tables are the same at any
  /// thread count.  Throws std::invalid_argument above
  /// max_simulation_inputs.
  std::vector<truth_table> simulate_outputs() const;

  /// 64-way parallel pattern simulation; `pi_patterns` holds one 64-bit
  /// pattern word per PI, the result one word per PO.
  std::vector<std::uint64_t> simulate_patterns( const std::vector<std::uint64_t>& pi_patterns ) const;

  /// Evaluates all POs on a single input assignment.
  std::vector<bool> evaluate( const std::vector<bool>& inputs ) const;

  /// Returns a copy containing only nodes reachable from the POs, preserving
  /// topological order.  `old_to_new`, if non-null, receives the literal map
  /// (indexed by old node, value = new literal of the non-complemented old
  /// node, or 0xffffffff for dropped nodes).
  aig_network cleanup( std::vector<aig_lit>* old_to_new = nullptr ) const;

  /// Stable 64-bit structural content hash over (num_pis, every AND node's
  /// fanin literals in topological order, every PO literal).  Identical
  /// node/PO structure hashes identically across processes and platforms;
  /// it is the design-identity component of artifact-store keys and the
  /// cross-design reuse guard of `flow_artifact_cache`.  Computed once
  /// and memoized: every mutator forgets the memo, and copies carry it.
  std::uint64_t content_hash() const;

  /// Appends one AND node with exactly the given fanins — no folding, no
  /// normalization, no strash lookup (the strash table is still updated, so
  /// later `create_and` calls keep hash-consing).  This exists for the
  /// artifact-store deserializer, which must reproduce a serialized network
  /// node-for-node; fanin literals must reference existing nodes.
  aig_lit append_raw_and( aig_lit fanin0, aig_lit fanin1 );

  /// Graphviz dump for debugging / the Figure-1 bench.
  std::string to_dot( const std::string& name = "aig" ) const;

private:
  struct node_data
  {
    aig_lit fanin0 = 0;
    aig_lit fanin1 = 0;
  };

  /// Strash key of an AND node: the ordered fanin pair packed into one word.
  static strash_table<1>::key_type strash_key( aig_lit a, aig_lit b )
  {
    return { ( static_cast<std::uint64_t>( a ) << 32 ) | b };
  }

  /// The `key_of` callable of `strash_`: an AND node's key rebuilt from its
  /// fanins, ordered (a raw-appended node may hold them reversed).
  auto strash_keys() const
  {
    return [this]( std::uint32_t node ) {
      const auto& n = nodes_[node];
      return n.fanin0 <= n.fanin1 ? strash_key( n.fanin0, n.fanin1 )
                                  : strash_key( n.fanin1, n.fanin0 );
    };
  }

  /// The memoized `content_hash()` (0 = not computed yet).  Relaxed
  /// atomic, so concurrent readers of one network may both fill it in.
  struct hash_memo
  {
    mutable std::atomic<std::uint64_t> value{ 0 };

    hash_memo() = default;
    hash_memo( const hash_memo& other ) noexcept
        : value( other.value.load( std::memory_order_relaxed ) )
    {
    }
    hash_memo& operator=( const hash_memo& other ) noexcept
    {
      value.store( other.value.load( std::memory_order_relaxed ), std::memory_order_relaxed );
      return *this;
    }
    void forget() noexcept { value.store( 0, std::memory_order_relaxed ); }
  };

  unsigned num_pis_ = 0;
  std::vector<node_data> nodes_; ///< node 0 = constant false
  std::vector<aig_lit> pos_;
  strash_table<1> strash_; ///< AND node ids, keyed (fanin0, fanin1) with fanin0 <= fanin1
  hash_memo hash_;
};

} // namespace qsyn
