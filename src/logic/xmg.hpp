/// \file xmg.hpp
/// \brief XOR-majority graphs (XMGs).
///
/// XMGs are the logic representation used by the hierarchical reversible
/// synthesis flow (Sec. IV-C): MAJ (majority-of-three) nodes cost a single
/// Toffoli gate each, XOR nodes cost only CNOTs (zero T gates), and
/// inverters are free (they fold into control polarities).  AND and OR are
/// represented as MAJ gates with a constant input, following [15].

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "../common/strash_table.hpp"
#include "truth_table.hpp"

namespace qsyn
{

/// Literal: 2 * node index + complement flag (same convention as the AIG).
using xmg_lit = std::uint32_t;

/// An XOR-majority graph.
class xmg_network
{
public:
  static constexpr xmg_lit const0 = 0u;
  static constexpr xmg_lit const1 = 1u;

  enum class node_kind : std::uint8_t
  {
    constant,
    pi,
    maj,
    xor2
  };

  explicit xmg_network( unsigned num_pis = 0u );

  unsigned num_pis() const { return num_pis_; }
  unsigned num_pos() const { return static_cast<unsigned>( pos_.size() ); }
  std::size_t num_nodes() const { return nodes_.size(); }
  /// Number of logic nodes (MAJ + XOR).
  std::size_t num_gates() const { return nodes_.size() - 1u - num_pis_; }
  /// Number of MAJ nodes (each costs one Toffoli in hierarchical synthesis).
  std::size_t num_maj() const;
  /// Number of XOR nodes (T-free).
  std::size_t num_xor() const;

  xmg_lit pi( unsigned index ) const;
  static xmg_lit get_constant( bool value ) { return value ? const1 : const0; }

  node_kind kind( std::uint32_t node ) const { return nodes_[node].kind; }
  bool is_maj( std::uint32_t node ) const { return nodes_[node].kind == node_kind::maj; }
  bool is_xor( std::uint32_t node ) const { return nodes_[node].kind == node_kind::xor2; }
  bool is_pi( std::uint32_t node ) const { return nodes_[node].kind == node_kind::pi; }

  /// Fanin literals; MAJ uses all three, XOR uses the first two.
  const std::array<xmg_lit, 3>& fanins( std::uint32_t node ) const { return nodes_[node].fanin; }

  /// --- construction -------------------------------------------------------

  xmg_lit create_maj( xmg_lit a, xmg_lit b, xmg_lit c );
  xmg_lit create_xor( xmg_lit a, xmg_lit b );
  xmg_lit create_and( xmg_lit a, xmg_lit b ) { return create_maj( a, b, const0 ); }
  xmg_lit create_or( xmg_lit a, xmg_lit b ) { return create_maj( a, b, const1 ); }
  xmg_lit create_mux( xmg_lit sel, xmg_lit t, xmg_lit e );
  xmg_lit create_nary_xor( std::vector<xmg_lit> lits );
  xmg_lit create_nary_and( std::vector<xmg_lit> lits );

  void add_po( xmg_lit lit ) { pos_.push_back( lit ); }
  xmg_lit po( unsigned index ) const { return pos_.at( index ); }
  const std::vector<xmg_lit>& pos() const { return pos_; }

  /// --- analysis -----------------------------------------------------------

  std::vector<std::uint32_t> fanout_counts() const;
  std::vector<std::uint32_t> levels() const;
  std::uint32_t depth() const;

  /// Truth tables of all POs; requires num_pis() <= 20.
  std::vector<truth_table> simulate_outputs() const;
  /// 64-way parallel pattern simulation (one word per PI / PO).
  std::vector<std::uint64_t> simulate_patterns( const std::vector<std::uint64_t>& pi_patterns ) const;
  /// Single-assignment evaluation.
  std::vector<bool> evaluate( const std::vector<bool>& inputs ) const;

  /// Copy with only PO-reachable nodes.
  xmg_network cleanup() const;

  /// Appends one logic node with exactly the given kind and fanins — no
  /// canonicalization or strash lookup (the strash table is still updated).
  /// For the artifact-store deserializer, which must reproduce a serialized
  /// graph node-for-node; `kind` must be `maj` or `xor2`.
  xmg_lit append_raw_node( node_kind kind, const std::array<xmg_lit, 3>& fanin );

  /// Graphviz dump.
  std::string to_dot( const std::string& name = "xmg" ) const;

private:
  struct node_data
  {
    node_kind kind = node_kind::constant;
    std::array<xmg_lit, 3> fanin = { 0, 0, 0 };
  };

  /// Strash key of a logic node: the sorted fanins and the kind, packed
  /// into two words (an XOR's third fanin is 0).
  static strash_table<2>::key_type strash_key( node_kind kind, xmg_lit a, xmg_lit b, xmg_lit c )
  {
    return { ( static_cast<std::uint64_t>( a ) << 32 ) | b,
             ( static_cast<std::uint64_t>( c ) << 1 ) | ( kind == node_kind::xor2 ? 1u : 0u ) };
  }

  /// Hash-consed construction of a canonical node: the existing node with
  /// this kind and these fanins, or a new one.
  std::uint32_t find_or_add( node_kind kind, xmg_lit a, xmg_lit b, xmg_lit c );

  std::uint64_t pattern_of( xmg_lit lit, const std::vector<std::uint64_t>& values ) const
  {
    return values[lit >> 1] ^ ( ( lit & 1u ) ? ~std::uint64_t{ 0 } : 0u );
  }

  unsigned num_pis_ = 0;
  std::vector<node_data> nodes_;
  std::vector<xmg_lit> pos_;
  strash_table<2> strash_;
};

} // namespace qsyn
