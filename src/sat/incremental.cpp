#include "incremental.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "../common/bits.hpp"
#include "../logic/simd.hpp"

namespace qsyn::sat
{

namespace
{

/// splitmix64 step: deterministic signature pattern stream.
std::uint64_t next_pattern( std::uint64_t& state )
{
  state += 0x9e3779b97f4a7c15ull;
  auto z = state;
  z = ( z ^ ( z >> 30 ) ) * 0xbf58476d1ce4e5b9ull;
  z = ( z ^ ( z >> 27 ) ) * 0x94d049bb133111ebull;
  return z ^ ( z >> 31 );
}

/// Canonical pair key for the refuted-candidate set.
std::uint64_t pair_key( std::uint32_t a, std::uint32_t b )
{
  if ( a > b )
  {
    std::swap( a, b );
  }
  return ( static_cast<std::uint64_t>( a ) << 32 ) | b;
}

/// Signature words per node (64 random simulation patterns each).
constexpr unsigned num_sig_words = 4;
/// Seed of the signature pattern stream (fixed => deterministic candidates).
constexpr std::uint64_t sim_seed = 0x9e3779b97f4a7c15ull;
/// Expansion depth and node cap of one 64-way window proof.
constexpr unsigned window_depth = 8;
constexpr std::size_t window_nodes = 96;
/// Fraig candidates examined per check; surplus candidates stay queued.
constexpr std::size_t max_fraig_candidates = 2048;
/// `encode` polls the check's deadline once per this many AIG nodes.
constexpr std::uint32_t encode_poll_interval = 1024;
/// A check whose encoding added at least this many fresh AND nodes tries
/// budgeted per-output miters before the batched fallback (large unions
/// tend to be propagation-easy per output, and the batch would search one
/// huge instance); smaller checks go straight to the batch.
constexpr std::size_t per_output_node_threshold = 30000;
/// Conflict / decision budgets of that per-output attempt.
constexpr std::uint64_t output_conflict_budget = 100;
constexpr std::uint64_t output_decision_budget = 100000;

} // namespace

incremental_cec::incremental_cec()
    : sig_rng_state_( sim_seed )
{
  // Node 0: constant false, a solver variable forced to 0 at level 0.
  nodes_.push_back( {} );
  rep_.push_back( 0 );
  encode_node( 0 );
}

incremental_cec::ilit incremental_cec::find( ilit l ) const
{
  auto node = l >> 1;
  auto complement = l & 1u;
  while ( rep_[node] != ( node << 1 ) )
  {
    const auto r = rep_[node];
    complement ^= r & 1u;
    node = r >> 1;
  }
  return ( node << 1 ) | complement;
}

literal incremental_cec::to_sat( ilit l ) const
{
  assert( ( l >> 1 ) < node_sat_.size() );
  const auto base = node_sat_[l >> 1];
  return ( l & 1u ) ? lit_negate( base ) : base;
}

void incremental_cec::ensure_pis( unsigned count )
{
  while ( pi_nodes_.size() < count )
  {
    const auto node = static_cast<std::uint32_t>( nodes_.size() );
    nodes_.push_back( {} );
    rep_.push_back( node << 1 );
    pi_nodes_.push_back( node );
    encode_node( node );
  }
}

void incremental_cec::encode_node( std::uint32_t node )
{
  const auto var = solver_.new_var();
  const auto out = pos_lit( var );
  node_sat_.push_back( out );
  constexpr auto w = num_sig_words;
  const auto f0 = nodes_[node].fanin0;
  const auto f1 = nodes_[node].fanin1;
  if ( node == 0u )
  {
    solver_.add_clause( { neg_lit( var ) } );
    sigs_.resize( w, 0u );
  }
  else if ( f0 < 2u )
  {
    // PI: fresh patterns from the stream, drawn in node order.
    for ( unsigned i = 0; i < w; ++i )
    {
      sigs_.push_back( next_pattern( sig_rng_state_ ) );
    }
  }
  else
  {
    // Tseitin: out <-> fa & fb.
    const auto fa = to_sat( f0 );
    const auto fb = to_sat( f1 );
    solver_.add_clause( { lit_negate( out ), fa } );
    solver_.add_clause( { lit_negate( out ), fb } );
    solver_.add_clause( { out, lit_negate( fa ), lit_negate( fb ) } );
    // Signature: word-parallel AND over the fanin signatures.
    const std::uint64_t ca = ( f0 & 1u ) ? ~std::uint64_t{ 0 } : 0u;
    const std::uint64_t cb = ( f1 & 1u ) ? ~std::uint64_t{ 0 } : 0u;
    const std::size_t base_a = static_cast<std::size_t>( f0 >> 1 ) * w;
    const std::size_t base_b = static_cast<std::size_t>( f1 >> 1 ) * w;
    for ( unsigned i = 0; i < w; ++i )
    {
      sigs_.push_back( ( sigs_[base_a + i] ^ ca ) & ( sigs_[base_b + i] ^ cb ) );
    }
  }
  register_signature( node );
}

void incremental_cec::register_signature( std::uint32_t node )
{
  constexpr auto w = num_sig_words;
  const auto* sig = sigs_.data() + static_cast<std::size_t>( node ) * w;
  // Canonicalize under complementation so that f and !f land in one class.
  const std::uint64_t flip_mask = ( sig[0] & 1u ) ? ~std::uint64_t{ 0 } : 0u;
  std::size_t hash = 0;
  for ( unsigned i = 0; i < w; ++i )
  {
    hash = hash_combine( hash, static_cast<std::size_t>( sig[i] ^ flip_mask ) );
  }
  auto& cls = sig_classes_[hash];
  for ( const auto other : cls )
  {
    const auto* osig = sigs_.data() + static_cast<std::size_t>( other ) * w;
    const std::uint64_t oflip_mask = ( osig[0] & 1u ) ? ~std::uint64_t{ 0 } : 0u;
    bool equal = true;
    for ( unsigned i = 0; i < w && equal; ++i )
    {
      equal = ( sig[i] ^ flip_mask ) == ( osig[i] ^ oflip_mask );
    }
    if ( !equal )
    {
      continue;
    }
    // Skip partners already merged with us or attempted and refuted — a
    // later class member may still pair up.
    const auto rn = find( node << 1 );
    const auto ro = find( other << 1 );
    if ( ( rn >> 1 ) == ( ro >> 1 ) || fraig_refuted_.count( pair_key( rn >> 1, ro >> 1 ) ) )
    {
      continue;
    }
    const bool complemented = ( flip_mask != 0u ) != ( oflip_mask != 0u );
    fraig_pending_.push_back( { node, ( other << 1 ) | ( complemented ? 1u : 0u ) } );
    break; // one live candidate per node suffices; classes chain transitively
  }
  cls.push_back( node );
}

incremental_cec::ilit incremental_cec::create_and( ilit a, ilit b )
{
  // NOTE: fanins are hash-consed on their *raw* literals, not on class
  // representatives — find() here would let every fraig merge invalidate
  // the strash keys, so re-encoding a network after a merge would rebuild
  // (and re-prove) its whole cone instead of hitting the table.
  // Representatives are only consulted for comparisons (outputs, fraig
  // candidates); equality clauses bridge the classes inside the solver.
  // Constant folding and trivial cases.
  if ( a == 0u || b == 0u )
  {
    return 0u; // const0
  }
  if ( a == 1u )
  {
    return b;
  }
  if ( b == 1u )
  {
    return a;
  }
  if ( a == b )
  {
    return a;
  }
  if ( a == ( b ^ 1u ) )
  {
    return 0u;
  }
  if ( a > b )
  {
    std::swap( a, b );
  }
  const auto key_of = [this]( std::uint32_t n ) {
    return strash_key( nodes_[n].fanin0, nodes_[n].fanin1 );
  };
  const auto [node, inserted] =
      strash_.insert( strash_key( a, b ), static_cast<std::uint32_t>( nodes_.size() ), key_of );
  if ( !inserted )
  {
    ++stats_.strash_hits;
    return node << 1;
  }
  nodes_.push_back( { a, b } );
  rep_.push_back( node << 1 );
  encode_node( node );
  ++stats_.nodes;
  return node << 1;
}

std::optional<std::vector<incremental_cec::ilit>>
incremental_cec::encode( const aig_network& aig, const deadline& stop )
{
  ensure_pis( aig.num_pis() );
  std::vector<ilit> map( aig.num_nodes() );
  map[0] = 0u;
  for ( unsigned i = 0; i < aig.num_pis(); ++i )
  {
    map[i + 1u] = pi_nodes_[i] << 1;
  }
  const auto conv = [&]( aig_lit l ) {
    return map[lit_node( l )] ^ ( lit_complemented( l ) ? 1u : 0u );
  };
  const auto first = aig.num_pis() + 1u;
  for ( std::uint32_t n = first; n < aig.num_nodes(); ++n )
  {
    if ( ( n - first ) % encode_poll_interval == 0u && stop.expired() )
    {
      return std::nullopt; // nodes created so far stay in the union store
    }
    map[n] = create_and( conv( aig.fanin0( n ) ), conv( aig.fanin1( n ) ) );
  }
  std::vector<ilit> outputs;
  outputs.reserve( aig.num_pos() );
  for ( unsigned o = 0; o < aig.num_pos(); ++o )
  {
    outputs.push_back( conv( aig.po( o ) ) );
  }
  return outputs;
}

result incremental_cec::prove_equal( ilit a, ilit b, std::uint64_t conflict_budget,
                                     std::uint64_t decision_budget )
{
  const auto la = to_sat( a );
  const auto lb = to_sat( b );
  const auto res = solver_.solve( { la, lit_negate( lb ) }, conflict_budget, decision_budget );
  if ( res != result::unsatisfiable )
  {
    return res;
  }
  return solver_.solve( { lit_negate( la ), lb }, conflict_budget, decision_budget );
}

bool incremental_cec::try_structural_merge( ilit a, ilit b )
{
  const auto na = a >> 1;
  const auto nb = b >> 1;
  // AND nodes are the only ones with fanins; constant folding guarantees
  // their fanin literals are >= 2, while PIs and the constant store {0, 0}.
  const auto is_and = [this]( std::uint32_t n ) { return nodes_[n].fanin0 >= 2u; };
  if ( !is_and( na ) || !is_and( nb ) )
  {
    return false;
  }
  const auto fa0 = find( nodes_[na].fanin0 );
  const auto fa1 = find( nodes_[na].fanin1 );
  const auto fb0 = find( nodes_[nb].fanin0 );
  const auto fb1 = find( nodes_[nb].fanin1 );
  if ( !( ( fa0 == fb0 && fa1 == fb1 ) || ( fa0 == fb1 && fa1 == fb0 ) ) )
  {
    return false;
  }
  // Same fanin classes: the (positive) nodes compute the same AND.
  assert_equal( na << 1, nb << 1 );
  merge( na << 1, nb << 1 );
  return true;
}

void incremental_cec::assert_equal( ilit a, ilit b )
{
  const auto la = to_sat( a );
  const auto lb = to_sat( b );
  solver_.add_clause( { lit_negate( la ), lb } );
  solver_.add_clause( { la, lit_negate( lb ) } );
}

void incremental_cec::merge( ilit keep, ilit drop )
{
  assert( ( keep >> 1 ) != ( drop >> 1 ) );
  if ( ( keep >> 1 ) > ( drop >> 1 ) )
  {
    std::swap( keep, drop );
  }
  // drop_node (positive) == keep ^ drop_complement.
  rep_[drop >> 1] = keep ^ ( drop & 1u );
}

bool incremental_cec::window_proves_equal( ilit a, ilit b )
{
  // Both cones are evaluated word-parallel over the free values of their
  // frontier equivalence classes, counter-block style: frontier class i < 6
  // carries the canonical projection pattern (0xAAAA..., 0xCCCC..., ...)
  // in every word, classes 6..11 broadcast bit (i - 6) of the word index —
  // 64 words enumerate all 4096 assignments of up to 12 frontier classes.
  // Equal output blocks are an exhaustive proof *within the window*, and
  // the frontier being free makes that proof sound globally.  Cheap (no
  // solver contact) and never refuting: an unequal block only means the
  // window was too coarse.
  //
  // Iterative post-order walk: output cones can be tens of thousands of
  // nodes deep (XOR chains of a reversible target line), so recursion is
  // not an option.
  constexpr unsigned words_per_node = 64;
  constexpr std::size_t max_frontier = 12;
  std::unordered_map<std::uint32_t, std::uint32_t> offsets; ///< node -> arena offset
  std::vector<std::uint64_t> arena;
  std::size_t num_frontier = 0;
  std::size_t expanded = 0;

  struct frame
  {
    std::uint32_t node;
    unsigned depth;
    bool visited; ///< children already pushed
  };
  std::vector<frame> stack;
  const auto push = [&]( ilit l, unsigned depth ) {
    const auto n = find( l ) >> 1;
    if ( !offsets.count( n ) )
    {
      stack.push_back( { n, depth, false } );
    }
  };
  // Evaluates the cone below `l`; false on frontier overflow.
  const auto eval_cone = [&]( ilit l, unsigned depth ) -> bool {
    push( l, depth );
    while ( !stack.empty() )
    {
      auto& top = stack.back();
      const auto n = top.node;
      if ( offsets.count( n ) )
      {
        stack.pop_back();
        continue;
      }
      const bool expandable =
          n != 0u && top.depth > 0u && nodes_[n].fanin0 >= 2u && expanded < window_nodes;
      if ( expandable && !top.visited )
      {
        top.visited = true;
        ++expanded;
        const auto depth_below = top.depth - 1u; // copy: pushes may move `top`
        push( nodes_[n].fanin0, depth_below );
        push( nodes_[n].fanin1, depth_below );
        continue;
      }
      const auto off = static_cast<std::uint32_t>( arena.size() );
      if ( top.visited )
      {
        // AND over the (already evaluated) fanin classes.
        const auto r0 = find( nodes_[n].fanin0 );
        const auto r1 = find( nodes_[n].fanin1 );
        const auto o0 = offsets.at( r0 >> 1 );
        const auto o1 = offsets.at( r1 >> 1 );
        const std::uint64_t m0 = ( r0 & 1u ) ? ~std::uint64_t{ 0 } : 0u;
        const std::uint64_t m1 = ( r1 & 1u ) ? ~std::uint64_t{ 0 } : 0u;
        arena.resize( arena.size() + words_per_node );
        simd_and2_masked( arena.data() + off, arena.data() + o0, m0, arena.data() + o1, m1,
                          words_per_node );
      }
      else if ( n == 0u )
      {
        arena.resize( arena.size() + words_per_node, 0u );
      }
      else
      {
        // Frontier class: a fresh free variable over the window.
        if ( num_frontier >= max_frontier )
        {
          return false;
        }
        const auto i = static_cast<unsigned>( num_frontier++ );
        arena.resize( arena.size() + words_per_node );
        for ( unsigned j = 0; j < words_per_node; ++j )
        {
          arena[off + j] = i < 6u ? projections[i]
                                  : ( ( j >> ( i - 6u ) ) & 1u ) ? ~std::uint64_t{ 0 } : 0u;
        }
      }
      offsets.emplace( n, off );
      stack.pop_back();
    }
    return true;
  };

  if ( !eval_cone( a, window_depth ) || !eval_cone( b, window_depth ) )
  {
    return false;
  }
  const auto ra = find( a );
  const auto rb = find( b );
  const auto oa = offsets.at( ra >> 1 );
  const auto ob = offsets.at( rb >> 1 );
  const std::uint64_t ma = ( ra & 1u ) ? ~std::uint64_t{ 0 } : 0u;
  const std::uint64_t mb = ( rb & 1u ) ? ~std::uint64_t{ 0 } : 0u;
  for ( unsigned j = 0; j < words_per_node; ++j )
  {
    if ( ( arena[oa + j] ^ ma ) != ( arena[ob + j] ^ mb ) )
    {
      return false;
    }
  }
  return true;
}

void incremental_cec::run_fraig( const deadline& stop )
{
  std::size_t attempts = 0;
  while ( fraig_cursor_ < fraig_pending_.size() && attempts < max_fraig_candidates &&
          !stop.expired() )
  {
    ++attempts;
    const auto [node, candidate] = fraig_pending_[fraig_cursor_++];
    const auto ln = find( node << 1 );
    const auto lc = find( candidate );
    if ( ( ln >> 1 ) == ( lc >> 1 ) )
    {
      continue; // already merged (or resolved to complements)
    }
    const auto key = pair_key( ln >> 1, lc >> 1 );
    if ( fraig_refuted_.count( key ) )
    {
      continue;
    }
    ++stats_.fraig_candidates;
    if ( try_structural_merge( ln, lc ) )
    {
      ++stats_.fraig_merges;
      continue;
    }
    if ( window_proves_equal( ln, lc ) )
    {
      assert_equal( ln, lc );
      merge( ln, lc );
      ++stats_.fraig_merges;
      ++stats_.fraig_window_proofs;
      continue;
    }
    fraig_refuted_.insert( key ); // the free proofs failed; never retry
  }
  // Drop the consumed prefix; surplus candidates stay queued.
  fraig_pending_.erase( fraig_pending_.begin(),
                        fraig_pending_.begin() + static_cast<std::ptrdiff_t>( fraig_cursor_ ) );
  fraig_cursor_ = 0;
}

cec_outcome incremental_cec::check( const aig_network& a, const aig_network& b )
{
  return check( a, b, check_limits{} );
}

cec_outcome incremental_cec::check( const aig_network& a, const aig_network& b,
                                    const check_limits& limits )
{
  std::lock_guard<std::mutex> lock( mutex_ );
  if ( a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos() )
  {
    throw std::invalid_argument( "incremental_cec::check: interface mismatch" );
  }
  ++stats_.checks;
  // Install the wall-clock deadline on the persistent solver for the
  // duration of this check (every check sets it, so limits never leak
  // across calls).  Encoding, fraiging and the output portfolio poll it
  // too, so an expired check returns before the miter is complete.
  const auto& stop = limits.stop;
  solver_.set_deadline( stop );
  const auto unresolved_outcome = [this] {
    stats_.solver_conflicts = solver_.num_conflicts();
    cec_outcome out;
    out.equivalent = false;
    out.resolved = false;
    return out;
  };
  const auto nodes_before = nodes_.size();
  auto outputs_a = encode( a, stop );
  auto outputs_b = outputs_a ? encode( b, stop ) : std::nullopt;
  if ( !outputs_b )
  {
    return unresolved_outcome();
  }
  const auto fresh_nodes = nodes_.size() - nodes_before;
  run_fraig( stop );

  cec_outcome out;
  out.equivalent = true;
  const auto fail_at = [&]( unsigned o ) {
    // The model of the last satisfiable solve is a real difference input.
    out.equivalent = false;
    out.failing_output = o;
    std::vector<bool> cex( a.num_pis() );
    for ( unsigned i = 0; i < a.num_pis(); ++i )
    {
      cex[i] = solver_.model_value( lit_var( node_sat_[pi_nodes_[i]] ) );
    }
    out.counterexample = std::move( cex );
  };
  const auto learn_equal = [&]( ilit ea, ilit eb ) {
    // Keep the proven equality as a permanent lemma for later calls.
    assert_equal( ea, eb );
    if ( ( ea >> 1 ) != ( eb >> 1 ) )
    {
      merge( ea, eb );
    }
    ++stats_.sat_proven_outputs;
  };

  // Output portfolio, per output: structural identity -> exhaustive window
  // -> (on large encodes) budgeted per-output miter on the persistent
  // solver.  Outputs that remain collect into ONE batched, unbounded miter
  // solve — the per-output decomposition wins when a big shared encoding
  // makes each equality propagation-easy, while the batch recovers
  // monolithic-search behavior when an instance wants one global
  // refutation instead of 2 * num_pos restarted searches.
  const bool try_per_output = fresh_nodes >= per_output_node_threshold;
  struct pending_output
  {
    unsigned index;
    ilit ea;
    ilit eb;
  };
  std::vector<pending_output> unresolved;
  // Lowest output already KNOWN to differ (a budgeted attempt found a
  // model); lower-indexed unresolved outputs still have to be decided
  // before it may be reported — the contract is lowest-index-first.
  std::optional<pending_output> known_differing;
  for ( unsigned o = 0; o < a.num_pos() && !known_differing; ++o )
  {
    const auto ea = find( ( *outputs_a )[o] );
    const auto eb = find( ( *outputs_b )[o] );
    if ( ea == eb )
    {
      ++stats_.structural_outputs;
      continue;
    }
    if ( stop.expired() )
    {
      return unresolved_outcome();
    }
    if ( window_proves_equal( ea, eb ) )
    {
      assert_equal( ea, eb );
      merge( ea, eb );
      ++stats_.structural_outputs;
      ++stats_.fraig_window_proofs;
      continue;
    }
    if ( try_per_output && !stop.expired() )
    {
      const auto res = prove_equal( ea, eb, output_conflict_budget, output_decision_budget );
      if ( res == result::unsatisfiable )
      {
        learn_equal( ea, eb );
        continue;
      }
      if ( res == result::satisfiable )
      {
        // Differs — but earlier budget-exhausted outputs must be decided
        // first; outputs after o are moot (this one bounds the answer).
        known_differing = pending_output{ o, ea, eb };
        break;
      }
    }
    unresolved.push_back( { o, ea, eb } );
  }

  if ( !known_differing && !unresolved.empty() && !stop.expired() )
  {
    // Batched miter: trigger -> OR of one activated difference literal per
    // undecided output.  UNSAT under the trigger assumption proves every
    // one of them equal at once (each diff literal occurs nowhere else);
    // a model means at least one genuinely differs.
    const auto trigger = solver_.new_var();
    std::vector<literal> activation;
    activation.reserve( unresolved.size() + 1u );
    activation.push_back( neg_lit( trigger ) );
    for ( const auto& u : unresolved )
    {
      const auto la = to_sat( u.ea );
      const auto lb = to_sat( u.eb );
      const auto diff = pos_lit( solver_.new_var() );
      solver_.add_clause( { lit_negate( diff ), la, lb } );
      solver_.add_clause( { lit_negate( diff ), lit_negate( la ), lit_negate( lb ) } );
      activation.push_back( diff );
    }
    solver_.add_clause( activation );
    const auto res = solver_.solve( { pos_lit( trigger ) } );
    // Retire the trigger and every diff variable with level-0 units: all
    // batch clauses become satisfied at level 0, so the next database
    // reduction sweeps them and a long-lived engine does not accumulate
    // one dead miter per batched check.
    solver_.add_clause( { neg_lit( trigger ) } );
    for ( std::size_t i = 1; i < activation.size(); ++i )
    {
      solver_.add_clause( { lit_negate( activation[i] ) } );
    }
    if ( res == result::unsatisfiable )
    {
      for ( const auto& u : unresolved )
      {
        learn_equal( u.ea, u.eb );
      }
      unresolved.clear();
    }
    // On SAT the batch model pinpoints SOME differing output, not
    // necessarily the lowest-indexed one; fall through to the ordered
    // resolution below, which decides each unresolved output with an
    // unbounded per-output miter.
  }

  if ( known_differing || !unresolved.empty() )
  {
    // Ordered resolution: decide unresolved outputs lowest-index-first
    // with unbounded per-output miters; the first refutation wins.  Every
    // UNSAT on the way is kept as a lemma, so this pass never repeats
    // work across calls.
    for ( const auto& u : unresolved )
    {
      if ( stop.expired() )
      {
        return unresolved_outcome();
      }
      const auto res = prove_equal( u.ea, u.eb, 0, 0 );
      if ( res == result::unknown )
      {
        // The deadline ran out mid-proof; on an unlimited check this
        // cannot happen (no deadline is installed).
        return unresolved_outcome();
      }
      if ( res == result::unsatisfiable )
      {
        learn_equal( u.ea, u.eb );
        continue;
      }
      fail_at( u.index );
      stats_.solver_conflicts = solver_.num_conflicts();
      return out;
    }
    if ( known_differing )
    {
      // All earlier outputs proved equal: the known-differing one is the
      // lowest.  Re-solve its miter to put a fresh model in the solver
      // (intermediate solves may have overwritten the budgeted one).
      const auto res = prove_equal( known_differing->ea, known_differing->eb, 0, 0 );
      if ( res == result::satisfiable )
      {
        fail_at( known_differing->index );
      }
      else
      {
        // The deadline expired before the model could be reconstructed;
        // the difference itself is certain (a budgeted solve found it), so
        // report the failing output without a counterexample.
        out.equivalent = false;
        out.failing_output = known_differing->index;
      }
    }
  }
  stats_.solver_conflicts = solver_.num_conflicts();
  return out;
}

cec_stats incremental_cec::stats() const
{
  std::lock_guard<std::mutex> lock( mutex_ );
  return stats_;
}

} // namespace qsyn::sat
