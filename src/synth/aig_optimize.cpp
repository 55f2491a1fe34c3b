#include "aig_optimize.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>

#include "../common/parallel_chunks.hpp"
#include "isop.hpp"

namespace qsyn
{

/// --- refactor ----------------------------------------------------------------

namespace
{

constexpr aig_lit unmapped = 0xffffffffu;
constexpr std::uint32_t none = 0xffffffffu;

/// Cone inputs of one refactoring candidate: the width of the fixed cone
/// tables.
constexpr unsigned max_leaves = small_truth_table::max_vars;

/// Nodes of the source AIG planned per chunk of the parallel planning loop.
constexpr std::uint32_t plan_chunk_nodes = 4096;

/// A planned resynthesis of the cone rooted at `root`.
struct plan
{
  std::uint32_t root = 0;
  std::vector<std::uint32_t> leaves; ///< leaf nodes (inputs of the cone)
  std::vector<cube> sop;             ///< resynthesized cover
  bool complemented = false;         ///< SOP covers the complement
};

/// Node -> slot map of one cone: open addressing over a power-of-two table
/// that doubles as the cone grows, with per-entry epoch stamps so `clear`
/// is O(1).  Its size follows the largest cone, not the network.
class cone_map
{
public:
  cone_map() : entries_( 32u ) {}

  void clear()
  {
    size_ = 0;
    if ( ++epoch_ == 0u )
    {
      // Stamps wrapped: forget every entry explicitly once.
      for ( auto& e : entries_ )
      {
        e.stamp = 0u;
      }
      epoch_ = 1u;
    }
  }

  /// The slot of `node`, or nullptr when it is not in the map.
  std::uint32_t* find( std::uint32_t node )
  {
    for ( auto i = home( node );; i = ( i + 1u ) & mask() )
    {
      auto& e = entries_[i];
      if ( e.stamp != epoch_ )
      {
        return nullptr;
      }
      if ( e.node == node )
      {
        return &e.slot;
      }
    }
  }

  /// Adds `node` with `slot`; false (and no change) when it is present.
  bool insert( std::uint32_t node, std::uint32_t slot )
  {
    if ( 2u * ( size_ + 1u ) > entries_.size() )
    {
      grow();
    }
    for ( auto i = home( node );; i = ( i + 1u ) & mask() )
    {
      auto& e = entries_[i];
      if ( e.stamp != epoch_ )
      {
        e = { node, slot, epoch_ };
        ++size_;
        return true;
      }
      if ( e.node == node )
      {
        return false;
      }
    }
  }

private:
  struct entry
  {
    std::uint32_t node = 0;
    std::uint32_t slot = 0;
    std::uint32_t stamp = 0; ///< == epoch_ while the entry is live
  };

  std::size_t mask() const { return entries_.size() - 1u; }
  std::size_t home( std::uint32_t node ) const
  {
    return ( std::size_t{ node } * 0x9e3779b97f4a7c15ull >> 32 ) & mask();
  }

  void grow()
  {
    auto old = std::move( entries_ );
    entries_.assign( 2u * old.size(), entry{} );
    const auto epoch = epoch_;
    epoch_ = 1u;
    size_ = 0;
    for ( const auto& e : old )
    {
      if ( e.stamp == epoch )
      {
        insert( e.node, e.slot );
      }
    }
  }

  std::vector<entry> entries_;
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;
};

/// The chosen ISOP cover of a cone function: the cover of the function or
/// of its complement, whichever `estimate_cost` rates cheaper.
struct cover_choice
{
  small_truth_table function;
  unsigned num_leaves = 0; ///< 0 = empty slot
  bool complemented = false;
  std::size_t cost = 0;
  std::vector<cube> cover;
};

/// Recently chosen covers, direct-mapped on (cone table, leaf count): a
/// few distinct functions make up most cones of an arithmetic design, and
/// ISOP is a pure function of the table, so a hit returns exactly what a
/// recomputation would.  The table has a fixed number of slots, so the
/// memo does not grow with the network.
class isop_memo
{
public:
  isop_memo() : slots_( num_slots ) {}

  const cover_choice& choose( const small_truth_table& tt, unsigned num_leaves )
  {
    auto& slot = slots_[index( tt, num_leaves )];
    if ( slot.num_leaves == num_leaves && slot.function == tt )
    {
      return slot;
    }
    isop( tt, sop_ );
    isop( ~tt, sop_compl_ );
    const auto cost = estimate_cost( sop_ );
    const auto cost_compl = estimate_cost( sop_compl_ );
    slot.function = tt;
    slot.num_leaves = num_leaves;
    slot.complemented = cost_compl < cost;
    slot.cost = slot.complemented ? cost_compl : cost;
    slot.cover = slot.complemented ? sop_compl_ : sop_;
    return slot;
  }

private:
  static constexpr unsigned slot_bits = 10;
  static constexpr std::size_t num_slots = std::size_t{ 1 } << slot_bits;

  static std::size_t index( const small_truth_table& tt, unsigned num_leaves )
  {
    std::uint64_t h = num_leaves;
    for ( const auto w : tt.words )
    {
      h = ( h ^ w ) * 0x9e3779b97f4a7c15ull;
    }
    return static_cast<std::size_t>( h >> ( 64u - slot_bits ) );
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

  std::vector<cover_choice> slots_;
  std::vector<cube> sop_;
  std::vector<cube> sop_compl_;
};

/// Plans the refactoring of a range of roots.  It reads only the immutable
/// source network and its fanout counts, so one planner per thread can
/// plan disjoint node ranges at once; its scratch is O(cone).
class refactor_planner
{
public:
  refactor_planner( const aig_network& aig, const std::vector<std::uint32_t>& fanouts )
      : aig_( aig ), fanouts_( fanouts )
  {
  }

  /// Appends the plans of roots [begin, end), in ascending root order.
  void plan_range( std::uint32_t begin, std::uint32_t end, std::vector<plan>& out )
  {
    for ( auto n = begin; n < end; ++n )
    {
      try_plan( n, out );
    }
  }

private:
  /// Grows a reconvergence-driven cut around `root` and records a plan when
  /// an ISOP resynthesis is smaller than the cone's exclusive logic (MFFC).
  void try_plan( std::uint32_t root, std::vector<plan>& out )
  {
    // Grow the cut: start from the fanins, expand internal nodes that do
    // not increase the leaf count beyond the bound.
    const auto a = lit_node( aig_.fanin0( root ) );
    const auto b = lit_node( aig_.fanin1( root ) );
    leaves_[0] = std::min( a, b );
    leaves_[1] = std::max( a, b );
    num_leaves_ = a == b ? 1u : 2u;
    bool grown = false;
    bool grew = true;
    while ( grew )
    {
      grew = false;
      for ( unsigned i = 0; i < num_leaves_; ++i )
      {
        const auto leaf = leaves_[i];
        if ( !aig_.is_and( leaf ) )
        {
          continue;
        }
        const auto size = expand( i );
        if ( size <= std::min( max_leaves, num_leaves_ ) ||
             ( size <= max_leaves && fanouts_[leaf] == 1u ) )
        {
          leaves_ = expanded_;
          num_leaves_ = size;
          grew = grown = true;
          break;
        }
      }
    }
    // A cut that never grew is the root's two distinct non-constant
    // fanins: the cone is the root alone (MFFC 1) over a support of 2, so
    // the exact bound below rejects it.  Most candidates end here, before
    // any cone evaluation.
    if ( !grown && num_leaves_ == 2u && leaves_[0] != 0u )
    {
      return;
    }
    // Never keep the constant node as a leaf (it sorts first).
    const unsigned first = num_leaves_ > 0u && leaves_[0] == 0u ? 1u : 0u;
    const std::span<const std::uint32_t> leaves( leaves_.data() + first, num_leaves_ - first );
    if ( leaves.empty() )
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
    // Exact bound: every support variable of a non-constant function is a
    // literal of some cube, so any SOP of it costs at least support - 1,
    // and no cover can beat the cone once support - 1 >= old_cost.
    std::size_t support = 0;
    for ( unsigned v = 0; v < leaves.size() && support <= old_cost; ++v )
    {
      support += tt->depends_on( v ) ? 1u : 0u;
    }
    if ( support > old_cost )
    {
      return;
    }
    const auto& choice = memo_.choose( *tt, static_cast<unsigned>( leaves.size() ) );
    if ( choice.cost >= old_cost )
    {
      return;
    }
    out.push_back( plan{ root, { leaves.begin(), leaves.end() }, choice.cover, choice.complemented } );
  }

  /// Writes the sorted cut `leaves_` with leaf `i` replaced by its fanins
  /// into `expanded_` (the constant node dropped) and returns its size;
  /// max_leaves + 1 means "too large" and leaves `expanded_` partial.
  unsigned expand( unsigned i )
  {
    auto a = lit_node( aig_.fanin0( leaves_[i] ) );
    auto b = lit_node( aig_.fanin1( leaves_[i] ) );
    if ( a > b )
    {
      std::swap( a, b );
    }
    const std::uint32_t fanins[2] = { a, b };
    unsigned n = 0;
    const auto emit = [&]( std::uint32_t v ) {
      if ( v == 0u || ( n > 0u && expanded_[n - 1u] == v ) )
      {
        return true;
      }
      if ( n == max_leaves )
      {
        return false;
      }
      expanded_[n++] = v;
      return true;
    };
    unsigned l = 0;
    unsigned f = 0;
    while ( l < num_leaves_ || f < 2u )
    {
      if ( l == i )
      {
        ++l;
        continue;
      }
      const bool take_leaf = f == 2u || ( l < num_leaves_ && leaves_[l] <= fanins[f] );
      if ( !emit( take_leaf ? leaves_[l++] : fanins[f++] ) )
      {
        return max_leaves + 1u;
      }
    }
    return n;
  }

  /// True when `n` is a leaf of the cone last evaluated by `cone_tt`.
  bool is_leaf( std::uint32_t n, std::size_t num_leaves )
  {
    const auto* slot = cone_.find( n );
    return slot && *slot >= 1u && *slot <= num_leaves;
  }

  /// Number of cone nodes used exclusively inside the cone (counting the
  /// root): a lower bound on the nodes freed by replacing the cone.  Runs
  /// after `cone_tt`, whose map holds the leaves.  The walk needs no
  /// visited set: it only enters nodes with a single fanout, which it can
  /// reach once.
  std::size_t mffc_size( std::uint32_t root, std::span<const std::uint32_t> leaves )
  {
    std::size_t count = 0;
    stack_.assign( 1u, root );
    while ( !stack_.empty() )
    {
      const auto n = stack_.back();
      stack_.pop_back();
      ++count;
      for ( const auto f : { aig_.fanin0( n ), aig_.fanin1( n ) } )
      {
        const auto m = lit_node( f );
        if ( aig_.is_and( m ) && fanouts_[m] == 1u && !is_leaf( m, leaves.size() ) )
        {
          stack_.push_back( m );
        }
      }
    }
    return count;
  }

  /// Truth table of `root` over the projections of the sorted `leaves`;
  /// fails (nullopt) if the cone reaches a PI outside the leaf set.
  /// `cone_` maps each cone node to its value's index in `values_`
  /// (constant, then the leaves, then the cone's AND nodes).
  std::optional<small_truth_table> cone_tt( std::uint32_t root,
                                            std::span<const std::uint32_t> leaves )
  {
    cone_.clear();
    values_.clear();
    values_.emplace_back(); // constant 0
    cone_.insert( 0u, 0u );
    for ( unsigned i = 0; i < leaves.size(); ++i )
    {
      cone_.insert( leaves[i], i + 1u );
      values_.push_back( small_truth_table::projection( i ) );
    }
    // Collect the cone's AND nodes; node ids are topological, so evaluating
    // them in ascending order visits every fanin first, and the root last.
    ands_.clear();
    stack_.assign( 1u, root );
    while ( !stack_.empty() )
    {
      const auto n = stack_.back();
      stack_.pop_back();
      if ( !cone_.insert( n, none ) )
      {
        continue;
      }
      if ( !aig_.is_and( n ) )
      {
        return std::nullopt;
      }
      ands_.push_back( n );
      stack_.push_back( lit_node( aig_.fanin0( n ) ) );
      stack_.push_back( lit_node( aig_.fanin1( n ) ) );
    }
    std::sort( ands_.begin(), ands_.end() );
    const auto value = [&]( aig_lit f ) {
      const auto& v = values_[*cone_.find( lit_node( f ) )];
      return lit_complemented( f ) ? ~v : v;
    };
    for ( const auto n : ands_ )
    {
      *cone_.find( n ) = static_cast<std::uint32_t>( values_.size() );
      values_.push_back( value( aig_.fanin0( n ) ) & value( aig_.fanin1( n ) ) );
    }
    return values_.back();
  }

  const aig_network& aig_;
  const std::vector<std::uint32_t>& fanouts_;
  isop_memo memo_;
  // Scratch reused by every try_plan call.
  cone_map cone_;
  std::array<std::uint32_t, max_leaves> leaves_{};
  std::array<std::uint32_t, max_leaves> expanded_{};
  unsigned num_leaves_ = 0;
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint32_t> ands_;
  std::vector<small_truth_table> values_;
};

/// Refactors a network: plans every root in parallel chunks
/// (`parallel_chunks`), then rebuilds the network serially from the POs.
class refactorer
{
public:
  refactorer( const aig_network& aig, const std::vector<std::uint32_t>& fanouts )
      : aig_( aig ), dest_( aig.num_pis() ), map_( aig.num_nodes(), unmapped ),
        plan_of_( aig.num_nodes(), none )
  {
    dest_.reserve( aig.num_ands() );
    map_[0] = aig_network::const0;
    for ( unsigned i = 0; i < aig_.num_pis(); ++i )
    {
      map_[i + 1u] = dest_.pi( i );
    }
    // Each chunk's plans are appended in chunk order, so `plans_` and
    // `plan_of_` are those of one ascending loop at any thread count.
    const auto first = aig_.num_pis() + 1u;
    const auto last = static_cast<std::uint32_t>( aig_.num_nodes() );
    const auto num_chunks = ( last - first + plan_chunk_nodes - 1u ) / plan_chunk_nodes;
    const parallel_chunks chunks( num_chunks );
    std::vector<refactor_planner> planners;
    planners.reserve( chunks.width() );
    for ( unsigned slot = 0; slot < chunks.width(); ++slot )
    {
      planners.emplace_back( aig_, fanouts );
    }
    std::vector<std::vector<plan>> chunk_plans( num_chunks );
    chunks.run( [&]( std::size_t chunk, unsigned slot ) {
      const auto begin = first + static_cast<std::uint32_t>( chunk ) * plan_chunk_nodes;
      planners[slot].plan_range( begin, std::min( last, begin + plan_chunk_nodes ), chunk_plans[chunk] );
    } );
    for ( auto& plans : chunk_plans )
    {
      for ( auto& p : plans )
      {
        plan_of_[p.root] = static_cast<std::uint32_t>( plans_.size() );
        plans_.push_back( std::move( p ) );
      }
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
  /// Maps `old` into the destination: an explicit-stack walk (deep AIGs
  /// would overflow a recursive one) in which a node's inputs are mapped in
  /// turn, each completely, before the node itself is built.  The inputs
  /// are its plan's leaves in order, or fanin 1 then fanin 0: the post-order
  /// that fixes the destination's node ids, pinned by the tests.
  aig_lit map_lit( aig_lit old )
  {
    const auto root = lit_node( old );
    if ( map_[root] == unmapped )
    {
      frames_.push_back( { root, 0u } );
    }
    while ( !frames_.empty() )
    {
      auto& [node, next] = frames_.back();
      const auto input = input_of( node, next );
      if ( input != none )
      {
        ++next;
        if ( map_[input] == unmapped )
        {
          frames_.push_back( { input, 0u } );
        }
        continue;
      }
      map_[node] = build_node( node );
      frames_.pop_back();
    }
    return lit_not_cond( map_[root], lit_complemented( old ) );
  }

  /// The `i`-th node that `node` is built from, or none past the last.
  std::uint32_t input_of( std::uint32_t node, std::uint32_t i ) const
  {
    if ( plan_of_[node] != none )
    {
      const auto& leaves = plans_[plan_of_[node]].leaves;
      return i < leaves.size() ? leaves[i] : none;
    }
    return i < 2u ? lit_node( i == 0u ? aig_.fanin1( node ) : aig_.fanin0( node ) ) : none;
  }

  /// Builds `node` over its mapped inputs.
  aig_lit build_node( std::uint32_t node )
  {
    if ( plan_of_[node] == none )
    {
      const auto f0 = aig_.fanin0( node );
      const auto f1 = aig_.fanin1( node );
      return dest_.create_and( lit_not_cond( map_[lit_node( f0 )], lit_complemented( f0 ) ),
                               lit_not_cond( map_[lit_node( f1 )], lit_complemented( f1 ) ) );
    }
    const auto& p = plans_[plan_of_[node]];
    std::vector<aig_lit> or_terms;
    or_terms.reserve( p.sop.size() );
    for ( const auto& c : p.sop )
    {
      std::vector<aig_lit> factors;
      for ( unsigned v = 0; v < p.leaves.size(); ++v )
      {
        if ( c.has_var( v ) )
        {
          factors.push_back( lit_not_cond( map_[p.leaves[v]], !c.var_polarity( v ) ) );
        }
      }
      or_terms.push_back( dest_.create_nary_and( std::move( factors ) ) );
    }
    const auto result = dest_.create_nary_or( std::move( or_terms ) );
    return lit_not_cond( result, p.complemented );
  }

  const aig_network& aig_;
  aig_network dest_;
  std::vector<aig_lit> map_;
  std::vector<std::uint32_t> plan_of_; ///< node -> index into plans_, or none
  std::vector<plan> plans_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> frames_; ///< node, next input
};

} // namespace

aig_network aig_refactor( const aig_network& aig )
{
  return refactorer( aig, aig.fanout_counts() ).run();
}

/// --- driver ---------------------------------------------------------------------

aig_network optimize( const aig_network& aig, unsigned rounds )
{
  auto current = aig.cleanup();
  // Fanout counts of `current`, or empty when not counted yet.
  std::vector<std::uint32_t> fanouts;
  for ( unsigned r = 0; r < rounds; ++r )
  {
    const auto before = current.num_ands();
    if ( fanouts.empty() )
    {
      fanouts = current.fanout_counts();
    }
    current = refactorer( current, fanouts ).run();
    // In a network built through `create_and` alone, as refactor output
    // is, an AND is unreachable from the POs only if some AND has no
    // fanout (the unreachable AND of highest id has no reader).  Without
    // one, `cleanup` would return the network unchanged, and the counts
    // serve the next round.
    fanouts = current.fanout_counts();
    if ( std::find( fanouts.begin() + current.num_pis() + 1, fanouts.end(), 0u ) != fanouts.end() )
    {
      current = current.cleanup();
      fanouts.clear();
    }
    if ( current.num_ands() >= before )
    {
      break;
    }
  }
  return current;
}

} // namespace qsyn
