#include "aig_optimize.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <optional>
#include <random>
#include <unordered_map>

#include "../sat/cnf.hpp"
#include "isop.hpp"

namespace qsyn
{

/// --- balance ---------------------------------------------------------------

namespace
{

class balancer
{
public:
  explicit balancer( const aig_network& aig )
      : aig_( aig ), fanouts_( aig.fanout_counts() ), dest_( aig.num_pis() ),
        map_( aig.num_nodes(), 0xffffffffu )
  {
    map_[0] = aig_network::const0;
    for ( unsigned i = 0; i < aig_.num_pis(); ++i )
    {
      map_[i + 1u] = dest_.pi( i );
    }
  }

  aig_network run()
  {
    for ( const auto po : aig_.pos() )
    {
      dest_.add_po( map_lit( po ) );
    }
    return std::move( dest_ );
  }

private:
  aig_lit map_lit( aig_lit old )
  {
    const auto node = lit_node( old );
    if ( map_[node] == 0xffffffffu )
    {
      map_[node] = build_node( node );
    }
    return lit_not_cond( map_[node], lit_complemented( old ) );
  }

  /// Level of a destination node, computed lazily (recomputing all levels
  /// per rebuilt node would be quadratic on large netlists).
  std::uint32_t dest_level( std::uint32_t node )
  {
    if ( node >= dest_levels_.size() )
    {
      dest_levels_.resize( dest_.num_nodes(), 0xffffffffu );
    }
    if ( dest_levels_[node] != 0xffffffffu )
    {
      return dest_levels_[node];
    }
    std::uint32_t level = 0;
    if ( dest_.is_and( node ) )
    {
      level = 1u + std::max( dest_level( lit_node( dest_.fanin0( node ) ) ),
                             dest_level( lit_node( dest_.fanin1( node ) ) ) );
    }
    dest_levels_[node] = level;
    return level;
  }

  /// Collects the single-fanout AND tree rooted at `node` and rebuilds it
  /// as a balanced tree over the mapped leaves (sorted by level so the
  /// shallowest operands combine first).
  aig_lit build_node( std::uint32_t node )
  {
    std::vector<aig_lit> leaves;
    collect_conjuncts( make_lit( node ), leaves, true );
    std::vector<aig_lit> mapped;
    mapped.reserve( leaves.size() );
    for ( const auto leaf : leaves )
    {
      mapped.push_back( map_lit( leaf ) );
    }
    // Sort by the level in the destination network for balanced depth.
    std::sort( mapped.begin(), mapped.end(), [&]( aig_lit a, aig_lit b ) {
      return dest_level( lit_node( a ) ) < dest_level( lit_node( b ) );
    } );
    return dest_.create_nary_and( std::move( mapped ) );
  }

  /// Gathers the conjunct leaves of an AND tree.  Only descends through
  /// non-complemented AND fanins with a single fanout (classic balancing
  /// scope: shared nodes stay shared).
  void collect_conjuncts( aig_lit lit, std::vector<aig_lit>& leaves, bool root )
  {
    const auto node = lit_node( lit );
    const bool expandable = !lit_complemented( lit ) && aig_.is_and( node ) &&
                            ( root || fanouts_[node] == 1u );
    if ( !expandable )
    {
      leaves.push_back( lit );
      return;
    }
    collect_conjuncts( aig_.fanin0( node ), leaves, false );
    collect_conjuncts( aig_.fanin1( node ), leaves, false );
  }

  const aig_network& aig_;
  std::vector<std::uint32_t> fanouts_;
  aig_network dest_;
  std::vector<aig_lit> map_;
  std::vector<std::uint32_t> dest_levels_;
};

} // namespace

aig_network aig_balance( const aig_network& aig )
{
  balancer b( aig );
  return b.run();
}

/// --- refactor ----------------------------------------------------------------

namespace
{

/// Cone inputs of one refactoring candidate: the width of the fixed cone
/// tables.
constexpr unsigned max_leaves = small_truth_table::max_vars;

class refactorer
{
public:
  explicit refactorer( const aig_network& aig )
      : aig_( aig ), fanouts_( aig.fanout_counts() ), dest_( aig.num_pis() ),
        map_( aig.num_nodes(), 0xffffffffu )
  {
    map_[0] = aig_network::const0;
    for ( unsigned i = 0; i < aig_.num_pis(); ++i )
    {
      map_[i + 1u] = dest_.pi( i );
    }
    compute_plans();
  }

  aig_network run()
  {
    for ( const auto po : aig_.pos() )
    {
      dest_.add_po( map_lit( po ) );
    }
    return std::move( dest_ );
  }

private:
  struct plan
  {
    std::vector<std::uint32_t> leaves; ///< leaf nodes (inputs of the cone)
    std::vector<cube> sop;             ///< resynthesized cover
    bool complemented = false;         ///< SOP covers the complement
  };

  /// Grows a reconvergence-driven cut around `root` and decides whether an
  /// ISOP resynthesis is expected to be smaller than the cone's exclusive
  /// logic (MFFC).
  void compute_plans()
  {
    plans_.resize( aig_.num_nodes() );
    for ( std::uint32_t n = aig_.num_pis() + 1u; n < aig_.num_nodes(); ++n )
    {
      try_plan( n );
    }
  }

  void try_plan( std::uint32_t root )
  {
    // Grow the cut: start from the fanins, expand internal nodes that do
    // not increase the leaf count beyond the bound.
    auto& leaves = leaves_;
    leaves.assign( { lit_node( aig_.fanin0( root ) ), lit_node( aig_.fanin1( root ) ) } );
    std::sort( leaves.begin(), leaves.end() );
    leaves.erase( std::unique( leaves.begin(), leaves.end() ), leaves.end() );
    bool grew = true;
    while ( grew )
    {
      grew = false;
      for ( std::size_t i = 0; i < leaves.size(); ++i )
      {
        const auto leaf = leaves[i];
        if ( !aig_.is_and( leaf ) )
        {
          continue;
        }
        auto& expanded = expanded_;
        expanded.assign( leaves.begin(), leaves.end() );
        expanded.erase( expanded.begin() + static_cast<std::ptrdiff_t>( i ) );
        expanded.push_back( lit_node( aig_.fanin0( leaf ) ) );
        expanded.push_back( lit_node( aig_.fanin1( leaf ) ) );
        std::sort( expanded.begin(), expanded.end() );
        expanded.erase( std::unique( expanded.begin(), expanded.end() ), expanded.end() );
        // Never keep the constant node as a leaf.
        expanded.erase( std::remove( expanded.begin(), expanded.end(), 0u ), expanded.end() );
        if ( expanded.size() <= std::min<std::size_t>( max_leaves, leaves.size() ) ||
             ( expanded.size() <= max_leaves && fanouts_[leaf] == 1u ) )
        {
          leaves.swap( expanded );
          grew = true;
          break;
        }
      }
    }
    leaves.erase( std::remove( leaves.begin(), leaves.end(), 0u ), leaves.end() );
    if ( leaves.empty() || leaves.size() > max_leaves )
    {
      return;
    }
    const auto tt = cone_tt( root, leaves );
    if ( !tt )
    {
      return;
    }
    // Cost of the existing cone: nodes whose value is used only inside it
    // (approximated by the node count of the cone restricted to
    // single-fanout internals plus the root).
    const auto old_cost = mffc_size( root, leaves );
    isop( *tt, sop_ );
    isop( ~*tt, sop_compl_ );
    const bool use_compl = estimate_cost( sop_compl_ ) < estimate_cost( sop_ );
    const auto& chosen = use_compl ? sop_compl_ : sop_;
    if ( estimate_cost( chosen ) >= old_cost )
    {
      return;
    }
    plans_[root] = plan{ leaves, chosen, use_compl };
  }

  static std::size_t estimate_cost( const std::vector<cube>& sop )
  {
    std::size_t cost = sop.empty() ? 0u : sop.size() - 1u; // OR tree
    for ( const auto& c : sop )
    {
      const auto lits = static_cast<std::size_t>( c.num_literals() );
      cost += lits > 0u ? lits - 1u : 0u;
    }
    return cost;
  }

  /// Number of cone nodes used exclusively inside the cone (counting the
  /// root).  A lower bound on the nodes freed by replacing the cone.
  std::size_t mffc_size( std::uint32_t root, const std::vector<std::uint32_t>& leaves )
  {
    std::size_t count = 0;
    auto& stack = stack_;
    auto& visited = cone_; // the MFFC's nodes
    stack.assign( 1u, root );
    visited.clear();
    while ( !stack.empty() )
    {
      const auto n = stack.back();
      stack.pop_back();
      if ( std::find( visited.begin(), visited.end(), n ) != visited.end() )
      {
        continue;
      }
      visited.push_back( n );
      ++count;
      for ( const auto f : { aig_.fanin0( n ), aig_.fanin1( n ) } )
      {
        const auto m = lit_node( f );
        if ( aig_.is_and( m ) && fanouts_[m] == 1u &&
             std::find( leaves.begin(), leaves.end(), m ) == leaves.end() )
        {
          stack.push_back( m );
        }
      }
    }
    return count;
  }

  /// Truth table of `root` over the projections of the sorted `leaves`;
  /// fails (nullopt) if the cone reaches a PI outside the leaf set.
  std::optional<small_truth_table> cone_tt( std::uint32_t root,
                                            const std::vector<std::uint32_t>& leaves )
  {
    // Collect the cone's AND nodes; node ids are topological, so evaluating
    // them in ascending order visits every fanin first, and the root last.
    cone_.clear();
    stack_.assign( 1u, root );
    while ( !stack_.empty() )
    {
      const auto n = stack_.back();
      stack_.pop_back();
      if ( n == 0u || std::binary_search( leaves.begin(), leaves.end(), n ) ||
           std::find( cone_.begin(), cone_.end(), n ) != cone_.end() )
      {
        continue;
      }
      if ( !aig_.is_and( n ) )
      {
        return std::nullopt;
      }
      cone_.push_back( n );
      stack_.push_back( lit_node( aig_.fanin0( n ) ) );
      stack_.push_back( lit_node( aig_.fanin1( n ) ) );
    }
    std::sort( cone_.begin(), cone_.end() );
    cone_values_.resize( cone_.size() );
    const auto value = [&]( aig_lit f ) {
      const auto m = lit_node( f );
      small_truth_table v; // constant 0 for node 0
      if ( const auto leaf = std::lower_bound( leaves.begin(), leaves.end(), m );
           leaf != leaves.end() && *leaf == m )
      {
        v = small_truth_table::projection( static_cast<unsigned>( leaf - leaves.begin() ) );
      }
      else if ( m != 0u )
      {
        v = cone_values_[static_cast<std::size_t>(
            std::lower_bound( cone_.begin(), cone_.end(), m ) - cone_.begin() )];
      }
      return lit_complemented( f ) ? ~v : v;
    };
    for ( std::size_t i = 0; i < cone_.size(); ++i )
    {
      cone_values_[i] = value( aig_.fanin0( cone_[i] ) ) & value( aig_.fanin1( cone_[i] ) );
    }
    return cone_values_.back();
  }

  aig_lit map_lit( aig_lit old )
  {
    const auto node = lit_node( old );
    if ( map_[node] == 0xffffffffu )
    {
      map_[node] = build_node( node );
    }
    return lit_not_cond( map_[node], lit_complemented( old ) );
  }

  aig_lit build_node( std::uint32_t node )
  {
    const auto& p = plans_[node];
    if ( !p.leaves.empty() )
    {
      std::vector<aig_lit> leaf_lits;
      leaf_lits.reserve( p.leaves.size() );
      for ( const auto leaf : p.leaves )
      {
        leaf_lits.push_back( map_lit( make_lit( leaf ) ) );
      }
      std::vector<aig_lit> or_terms;
      or_terms.reserve( p.sop.size() );
      for ( const auto& c : p.sop )
      {
        std::vector<aig_lit> factors;
        for ( unsigned v = 0; v < p.leaves.size(); ++v )
        {
          if ( c.has_var( v ) )
          {
            factors.push_back( lit_not_cond( leaf_lits[v], !c.var_polarity( v ) ) );
          }
        }
        or_terms.push_back( dest_.create_nary_and( std::move( factors ) ) );
      }
      const auto result = dest_.create_nary_or( std::move( or_terms ) );
      return lit_not_cond( result, p.complemented );
    }
    const auto f0 = aig_.fanin0( node );
    const auto f1 = aig_.fanin1( node );
    return dest_.create_and( map_lit( f0 ), map_lit( f1 ) );
  }

  const aig_network& aig_;
  std::vector<std::uint32_t> fanouts_;
  aig_network dest_;
  std::vector<aig_lit> map_;
  std::vector<plan> plans_;
  // Scratch reused by every try_plan call.
  std::vector<std::uint32_t> leaves_;
  std::vector<std::uint32_t> expanded_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint32_t> cone_;
  std::vector<small_truth_table> cone_values_;
  std::vector<cube> sop_;
  std::vector<cube> sop_compl_;
};

} // namespace

aig_network aig_refactor( const aig_network& aig )
{
  refactorer r( aig );
  return r.run();
}

/// --- SAT sweeping -------------------------------------------------------------

aig_network aig_sat_sweep( const aig_network& aig, std::uint64_t conflict_budget )
{
  // Random-pattern simulation signatures (4 x 64 patterns).
  constexpr unsigned num_words = 4;
  std::mt19937_64 rng( 0xc0ffee123u );
  std::vector<std::array<std::uint64_t, num_words>> sig( aig.num_nodes() );
  {
    std::vector<std::vector<std::uint64_t>> pi_patterns( num_words,
                                                         std::vector<std::uint64_t>( aig.num_pis() ) );
    for ( unsigned w = 0; w < num_words; ++w )
    {
      for ( unsigned i = 0; i < aig.num_pis(); ++i )
      {
        pi_patterns[w][i] = rng();
      }
    }
    for ( unsigned w = 0; w < num_words; ++w )
    {
      std::vector<std::uint64_t> values( aig.num_nodes(), 0u );
      for ( unsigned i = 0; i < aig.num_pis(); ++i )
      {
        values[i + 1u] = pi_patterns[w][i];
      }
      for ( std::uint32_t n = aig.num_pis() + 1u; n < aig.num_nodes(); ++n )
      {
        const auto f0 = aig.fanin0( n );
        const auto f1 = aig.fanin1( n );
        const auto v0 = values[lit_node( f0 )] ^ ( lit_complemented( f0 ) ? ~std::uint64_t{ 0 } : 0u );
        const auto v1 = values[lit_node( f1 )] ^ ( lit_complemented( f1 ) ? ~std::uint64_t{ 0 } : 0u );
        values[n] = v0 & v1;
      }
      for ( std::uint32_t n = 0; n < aig.num_nodes(); ++n )
      {
        sig[n][w] = values[n];
      }
    }
  }

  // Group candidate nodes by normalized signature (lowest bit = 0).
  struct sig_hash
  {
    std::size_t operator()( const std::array<std::uint64_t, num_words>& s ) const
    {
      std::size_t seed = 0;
      for ( const auto w : s )
      {
        seed = hash_combine( seed, static_cast<std::size_t>( w ) );
      }
      return seed;
    }
  };
  const auto normalize = []( std::array<std::uint64_t, num_words> s ) {
    if ( s[0] & 1u )
    {
      for ( auto& w : s )
      {
        w = ~w;
      }
    }
    return s;
  };
  std::unordered_map<std::array<std::uint64_t, num_words>, std::vector<std::uint32_t>, sig_hash>
      classes;
  for ( std::uint32_t n = 1; n < aig.num_nodes(); ++n )
  {
    classes[normalize( sig[n] )].push_back( n );
  }

  // SAT instance over the original network.
  sat::solver solver;
  const auto sat_lits = sat::encode_aig( aig, solver );

  // Representative (as literal in the rebuilt network) per original node.
  aig_network dest( aig.num_pis() );
  std::vector<aig_lit> map( aig.num_nodes(), 0xffffffffu );
  map[0] = aig_network::const0;
  for ( unsigned i = 0; i < aig.num_pis(); ++i )
  {
    map[i + 1u] = dest.pi( i );
  }
  // For each node in topological order, either merge into a previously
  // proven-equivalent class member or copy.
  std::unordered_map<std::uint32_t, std::uint32_t> merged_into; // node -> earlier node
  for ( auto& [key, members] : classes )
  {
    (void)key;
    std::sort( members.begin(), members.end() );
    for ( std::size_t i = 1; i < members.size(); ++i )
    {
      const auto later = members[i];
      if ( !aig.is_and( later ) )
      {
        continue;
      }
      const auto earlier = members[0];
      // Determine tentative phase from signatures.
      const bool complemented = ( sig[earlier][0] & 1u ) != ( sig[later][0] & 1u );
      // Prove earlier (^ phase) == later with two SAT calls (one per
      // disagreement direction) expressed via assumptions on a XOR.
      const auto le = sat_lits[earlier];
      const auto ll = sat_lits[later];
      const auto a = complemented ? sat::lit_negate( le ) : le;
      // UNSAT of (a != ll) proves equivalence.
      const auto res1 = solver.solve( { a, sat::lit_negate( ll ) }, conflict_budget );
      if ( res1 != sat::result::unsatisfiable )
      {
        continue;
      }
      const auto res2 = solver.solve( { sat::lit_negate( a ), ll }, conflict_budget );
      if ( res2 != sat::result::unsatisfiable )
      {
        continue;
      }
      merged_into[later] = ( earlier << 1 ) | ( complemented ? 1u : 0u );
    }
  }

  const auto map_lit = [&]( aig_lit old, const auto& self ) -> aig_lit {
    auto node = lit_node( old );
    bool compl_flag = lit_complemented( old );
    if ( const auto it = merged_into.find( node ); it != merged_into.end() )
    {
      node = it->second >> 1;
      compl_flag ^= ( it->second & 1u ) != 0u;
    }
    if ( map[node] == 0xffffffffu )
    {
      const auto f0 = self( aig.fanin0( node ), self );
      const auto f1 = self( aig.fanin1( node ), self );
      map[node] = dest.create_and( f0, f1 );
    }
    return lit_not_cond( map[node], compl_flag );
  };
  for ( const auto po : aig.pos() )
  {
    dest.add_po( map_lit( po, map_lit ) );
  }
  return dest;
}

/// --- driver ---------------------------------------------------------------------

aig_network optimize( const aig_network& aig, unsigned rounds, bool use_sat_sweep )
{
  auto current = aig.cleanup();
  for ( unsigned r = 0; r < rounds; ++r )
  {
    const auto before = current.num_ands();
    current = aig_balance( current );
    current = aig_refactor( current );
    current = current.cleanup();
    if ( current.num_ands() >= before )
    {
      break;
    }
  }
  if ( use_sat_sweep )
  {
    current = aig_sat_sweep( current ).cleanup();
  }
  return current;
}

} // namespace qsyn
