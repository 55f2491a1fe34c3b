#include "exorcism.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "../common/bits.hpp"
#include "../common/fault_injection.hpp"

namespace qsyn
{

namespace
{

/// Replaces the literal states of `a` at the positions in `at` with the
/// EXORLINK "merged" state of the (a, b) pair.  At a differing position the
/// merged state is the unique third literal state, which has the closed
/// form: present iff the variable appears in exactly one cube, and negative
/// iff either cube holds it positively.
inline cube replace_with_merged( const cube& a, const cube& b, std::uint64_t at )
{
  const auto merged_mask = ( a.mask ^ b.mask ) & at;
  const auto merged_pol = ~( a.polarity | b.polarity ) & merged_mask;
  cube c;
  c.mask = ( a.mask & ~at ) | merged_mask;
  c.polarity = ( a.polarity & ~at ) | merged_pol;
  return c;
}

inline std::uint64_t lowest_bit( std::uint64_t w )
{
  return w & ( ~w + 1u );
}

} // namespace

bool xor_equivalent_exhaustive( const cube& a, const cube& b, const cube& c1, const cube* c2 )
{
  std::uint64_t vars = a.mask | b.mask | c1.mask;
  if ( c2 )
  {
    vars |= c2->mask;
  }
  std::vector<unsigned> idx;
  idx.reserve( static_cast<std::size_t>( popcount64( vars ) ) );
  for ( auto w = vars; w != 0u; w &= w - 1u )
  {
    idx.push_back( static_cast<unsigned>( lsb_index( w ) ) );
  }
  for ( std::uint64_t m = 0; m < ( std::uint64_t{ 1 } << idx.size() ); ++m )
  {
    std::uint64_t input = 0;
    for ( std::size_t i = 0; i < idx.size(); ++i )
    {
      if ( ( m >> i ) & 1u )
      {
        input |= std::uint64_t{ 1 } << idx[i];
      }
    }
    const bool lhs = a.evaluate( input ) ^ b.evaluate( input );
    bool rhs = c1.evaluate( input );
    if ( c2 )
    {
      rhs ^= c2->evaluate( input );
    }
    if ( lhs != rhs )
    {
      return false;
    }
  }
  return true;
}

cube exorlink_merge( const cube& a, const cube& b )
{
  const auto diff = a.difference_mask( b );
  assert( popcount64( diff ) == 1 );
  const auto merged = replace_with_merged( a, b, diff );
  assert( xor_equivalent_exhaustive( a, b, merged ) );
  return merged;
}

exorlink2_rewrites exorlink_two( const cube& a, const cube& b )
{
  const auto diff = a.difference_mask( b );
  assert( popcount64( diff ) == 2 );
  const auto lo = lowest_bit( diff );
  const auto hi = diff & ( diff - 1u );
  const exorlink2_rewrites rw{ replace_with_merged( a, b, hi ), replace_with_merged( b, a, lo ),
                               replace_with_merged( a, b, lo ), replace_with_merged( b, a, hi ) };
  assert( xor_equivalent_exhaustive( a, b, rw.a1, &rw.b1 ) );
  assert( xor_equivalent_exhaustive( a, b, rw.a2, &rw.b2 ) );
  return rw;
}

namespace
{

inline std::uint64_t mix64( std::uint64_t x )
{
  // splitmix64 finalizer; cheap and well distributed for open addressing.
  x += 0x9e3779b97f4a7c15ull;
  x = ( x ^ ( x >> 30 ) ) * 0xbf58476d1ce4e5b9ull;
  x = ( x ^ ( x >> 27 ) ) * 0x94d049bb133111ebull;
  return x ^ ( x >> 31 );
}

inline std::uint64_t hash_cube( const cube& c )
{
  return mix64( c.mask * 0x9e3779b97f4a7c15ull ^ c.polarity );
}

constexpr std::uint32_t invalid_index = 0xffffffffu;

/// Open-addressing multimap from a 64-bit signature hash to slot indices.
/// Insert-only (stale entries are filtered by the caller), linear probing,
/// no per-entry allocation.
class sig_table
{
public:
  void reset( std::size_t expected )
  {
    std::size_t cap = 64;
    while ( cap < 2u * expected )
    {
      cap <<= 1;
    }
    entries_.assign( cap, { 0u, invalid_index } );
    mask_ = cap - 1u;
    size_ = 0;
  }

  void insert( std::uint64_t h, std::uint32_t v )
  {
    if ( 4u * ( size_ + 1u ) >= 3u * entries_.size() )
    {
      grow();
    }
    auto i = h & mask_;
    while ( entries_[i].value != invalid_index )
    {
      i = ( i + 1u ) & mask_;
    }
    entries_[i] = { h, v };
    ++size_;
  }

  /// Invokes f on every value stored under hash h; stops (returning true)
  /// when f returns true.  Contract: f must not mutate this table unless it
  /// returns true (iteration stops immediately in that case).
  template<typename F>
  bool for_each_match( std::uint64_t h, F&& f ) const
  {
    for ( auto i = h & mask_; entries_[i].value != invalid_index; i = ( i + 1u ) & mask_ )
    {
      if ( entries_[i].hash == h && f( entries_[i].value ) )
      {
        return true;
      }
    }
    return false;
  }

private:
  struct entry
  {
    std::uint64_t hash;
    std::uint32_t value;
  };

  void grow()
  {
    std::vector<entry> old;
    old.swap( entries_ );
    entries_.assign( old.size() * 2u, { 0u, invalid_index } );
    mask_ = entries_.size() - 1u;
    for ( const auto& e : old )
    {
      if ( e.value != invalid_index )
      {
        auto i = e.hash & mask_;
        while ( entries_[i].value != invalid_index )
        {
          i = ( i + 1u ) & mask_;
        }
        entries_[i] = e;
      }
    }
  }

  std::vector<entry> entries_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Open-addressing exact map from a cube to its slot index, with erase
/// support (backward-shift deletion is avoided by tombstones; the table is
/// rebuilt every pass, which bounds tombstone accumulation).
class exact_table
{
public:
  void reset( std::size_t expected )
  {
    std::size_t cap = 64;
    while ( cap < 2u * expected )
    {
      cap <<= 1;
    }
    entries_.assign( cap, entry{} );
    mask_ = cap - 1u;
    used_ = 0;
  }

  /// Returns the slot index stored for `c`, or invalid_index.
  std::uint32_t find( const cube& c ) const
  {
    for ( auto i = hash_cube( c ) & mask_; entries_[i].state != state_empty;
          i = ( i + 1u ) & mask_ )
    {
      if ( entries_[i].state == state_full && entries_[i].key == c )
      {
        return entries_[i].value;
      }
    }
    return invalid_index;
  }

  void insert( const cube& c, std::uint32_t v )
  {
    if ( 4u * ( used_ + 1u ) >= 3u * entries_.size() )
    {
      grow();
    }
    auto i = hash_cube( c ) & mask_;
    while ( entries_[i].state == state_full )
    {
      i = ( i + 1u ) & mask_;
    }
    if ( entries_[i].state == state_empty )
    {
      ++used_;
    }
    entries_[i] = { c, v, state_full };
  }

  void erase( const cube& c )
  {
    for ( auto i = hash_cube( c ) & mask_; entries_[i].state != state_empty;
          i = ( i + 1u ) & mask_ )
    {
      if ( entries_[i].state == state_full && entries_[i].key == c )
      {
        entries_[i].state = state_tombstone;
        return;
      }
    }
  }

private:
  static constexpr std::uint8_t state_empty = 0;
  static constexpr std::uint8_t state_full = 1;
  static constexpr std::uint8_t state_tombstone = 2;

  struct entry
  {
    cube key;
    std::uint32_t value = invalid_index;
    std::uint8_t state = state_empty;
  };

  void grow()
  {
    std::vector<entry> old;
    old.swap( entries_ );
    entries_.assign( old.size() * 2u, entry{} );
    mask_ = entries_.size() - 1u;
    used_ = 0;
    for ( const auto& e : old )
    {
      if ( e.state == state_full )
      {
        insert( e.key, e.value );
      }
    }
  }

  std::vector<entry> entries_;
  std::size_t mask_ = 0;
  std::size_t used_ = 0;
};

/// The minimization engine.  Terms live in a slot array where
/// output_mask == 0 marks a tombstone; dead slots are compacted once per
/// pass.  An exact (mask, polarity) -> slot map maintains the invariant
/// that all alive cubes are distinct (identical cubes are merged eagerly by
/// XOR-ing their output masks), and per-output-group structures provide the
/// pair-generation index: distance-1 partners are found by exact lookups of
/// the single-literal perturbations of a cube, distance-2 partners by
/// probes of a two-position wildcard signature table.  Slots carry a dirty
/// bit so that passes after the first only re-examine cubes whose
/// neighborhood changed.
class minimizer
{
public:
  explicit minimizer( esop& expression ) : expression_( expression )
  {
    slots_.reserve( expression.terms.size() );
    for ( const auto& t : expression.terms )
    {
      slots_.push_back( { t.product, t.output_mask, true } );
    }
  }

  void run( const exorcism_params& params, exorcism_stats& stats )
  {
    stop_ = params.stop;
    for ( unsigned pass = 0; pass < params.max_passes && !exhausted_; ++pass )
    {
      ++stats.passes;
      improved_ = false;
      if ( needs_rebuild_ )
      {
        compact();
        build_indexes();
        needs_rebuild_ = false;
      }
      for ( std::uint32_t i = 0; i < slots_.size() && !exhausted_; ++i )
      {
        if ( !slots_[i].dirty || !alive( i ) )
        {
          continue;
        }
        while ( alive( i ) && improve_once( i ) )
        {
        }
        // i is exhausted: any future pair involving it will be discovered
        // from the partner's side when that partner becomes dirty.  Flush
        // its (possibly stale) signature entries once, with the final cube.
        slots_[i].dirty = false;
        if ( alive( i ) && slots_[i].sig_stale )
        {
          flush_sig( i );
        }
      }
      if ( !improved_ )
      {
        break;
      }
    }
    stats.pairs_attempted = attempts_;
    stats.budget_exhausted = exhausted_;
    compact();
    expression_.terms.clear();
    expression_.terms.reserve( slots_.size() );
    for ( const auto& s : slots_ )
    {
      expression_.terms.push_back( { s.product, s.output_mask } );
    }
  }

private:
  struct slot
  {
    cube product;
    std::uint64_t output_mask = 0;
    bool dirty = true;
    bool sig_stale = false; ///< signature entries lag the cube; flushed on exhaust
  };

  struct group
  {
    std::uint64_t output_mask = 0;
    std::vector<std::uint32_t> members;
    std::uint64_t universe = 0; ///< union of member cube masks
    bool indexed = false;       ///< perturbation probes instead of member scan
    bool use_sig2 = false;      ///< wildcard signature table for distance 2
    bool sig2_built = false;    ///< built lazily on first dirty member
    sig_table sig2;
  };

  bool alive( std::uint32_t i ) const { return slots_[i].output_mask != 0u; }

  static std::uint64_t sig2_hash( const cube& c, std::uint64_t pq )
  {
    return mix64( ( c.mask & ~pq ) * 0x9e3779b97f4a7c15ull ^ ( c.polarity & ~pq ) ^
                  ( pq * 0xc2b2ae3d27d4eb4full ) );
  }

  void build_indexes()
  {
    exact_.reset( slots_.size() );
    groups_.clear();
    for ( std::uint32_t i = 0; i < slots_.size(); ++i )
    {
      if ( !alive( i ) )
      {
        continue;
      }
      insert_exact( i );
      if ( !alive( i ) ) // absorbed into an identical cube
      {
        continue;
      }
      auto& g = groups_[slots_[i].output_mask];
      g.output_mask = slots_[i].output_mask;
      g.members.push_back( i );
      g.universe |= slots_[i].product.mask;
    }
    for ( auto& [mask, g] : groups_ )
    {
      const auto ubits = static_cast<std::size_t>( popcount64( g.universe ) );
      // Perturbation probes cost ~2|U| hash lookups per cube (each an order
      // of magnitude pricier than the word ops of a member scan); a member
      // scan costs |members| word operations.  The factor is the measured
      // cost ratio of a cache-missing probe to a scan step.
      g.indexed = g.members.size() > 24u * std::max<std::size_t>( 1u, ubits );
      // The signature table costs ~|U|^2/2 insertions and probes per cube;
      // cap its footprint so wide universes fall back to the member scan.
      const auto sig2_entries = g.members.size() * ( ubits * ubits / 2u );
      g.use_sig2 = g.indexed && g.members.size() > ubits * ubits / 2u &&
                   sig2_entries <= ( std::size_t{ 1 } << 22 );
    }
  }

  /// Registers slot i in the exact map; if an identical alive cube exists,
  /// the two terms are merged (output masks XOR-ed) and i dies.
  void insert_exact( std::uint32_t i )
  {
    const auto k = exact_.find( slots_[i].product );
    if ( k == invalid_index )
    {
      exact_.insert( slots_[i].product, i );
      return;
    }
    absorb( k, i );
  }

  /// Merges slot i into slot k holding an identical cube: the output masks
  /// XOR, i dies, and k migrates to the group of the combined mask.
  void absorb( std::uint32_t k, std::uint32_t i )
  {
    slots_[k].output_mask ^= slots_[i].output_mask;
    slots_[k].dirty = true;
    slots_[i].output_mask = 0;
    if ( slots_[k].output_mask == 0u )
    {
      exact_.erase( slots_[k].product );
    }
    else
    {
      move_to_group( k );
    }
    improved_ = true;
  }

  /// Registers slot k in the group of its (new) output mask.  Incremental:
  /// only when k's cube would widen the group's variable universe (which
  /// would invalidate the signature table of every other member) do we fall
  /// back to a full reindex.
  void move_to_group( std::uint32_t k )
  {
    auto& g = groups_[slots_[k].output_mask];
    if ( g.members.empty() )
    {
      g.output_mask = slots_[k].output_mask;
      g.universe = slots_[k].product.mask;
      g.members.push_back( k );
      return;
    }
    if ( ( slots_[k].product.mask & ~g.universe ) != 0u )
    {
      needs_rebuild_ = true;
      return;
    }
    g.members.push_back( k );
    if ( g.use_sig2 && g.sig2_built )
    {
      insert_sig2( g, k );
    }
  }

  void build_sig2( group& g )
  {
    const auto ubits = static_cast<std::size_t>( popcount64( g.universe ) );
    g.sig2.reset( g.members.size() * ( ubits * ( ubits - 1u ) / 2u + 1u ) );
    for ( const auto i : g.members )
    {
      if ( alive( i ) && slots_[i].output_mask == g.output_mask )
      {
        insert_sig2( g, i );
        slots_[i].sig_stale = false;
      }
    }
    g.sig2_built = true;
  }

  void insert_sig2( group& g, std::uint32_t i )
  {
    const auto& c = slots_[i].product;
    for ( auto wp = g.universe; wp != 0u; wp &= wp - 1u )
    {
      const auto pbit = lowest_bit( wp );
      for ( auto wq = wp & ( wp - 1u ); wq != 0u; wq &= wq - 1u )
      {
        const auto qbit = lowest_bit( wq );
        // Mirror of the probe-side restriction: a profitable distance-2
        // pair always has a diff position held by both cubes, so pairs
        // touching none of this cube's literals need no entry.
        if ( ( ( pbit | qbit ) & c.mask ) == 0u )
        {
          continue;
        }
        g.sig2.insert( sig2_hash( c, pbit | qbit ), i );
      }
    }
  }

  void kill( std::uint32_t i )
  {
    exact_.erase( slots_[i].product );
    slots_[i].output_mask = 0;
  }

  /// Gives slot i a new cube, eagerly merging with an existing identical
  /// cube (which may tombstone i, or annihilate both).
  void set_product( std::uint32_t i, const cube& c )
  {
    exact_.erase( slots_[i].product );
    const auto k = exact_.find( c );
    if ( k != invalid_index )
    {
      absorb( k, i );
      return;
    }
    slots_[i].product = c;
    slots_[i].dirty = true;
    slots_[i].sig_stale = true;
    exact_.insert( c, i );
  }

  /// Re-registers the final cube of an exhausted slot in its group's
  /// signature table.  Deferred from set_product: a slot rewritten several
  /// times in one improvement chain inserts its signatures only once, and
  /// completeness is preserved because a stale slot is always dirty and
  /// thus probes for its own partners before the algorithm converges.
  void flush_sig( std::uint32_t i )
  {
    slots_[i].sig_stale = false;
    const auto git = groups_.find( slots_[i].output_mask );
    if ( git != groups_.end() && git->second.use_sig2 && git->second.sig2_built )
    {
      insert_sig2( git->second, i );
    }
  }

  /// Applies the best rewrite available for the (alive, same-group) pair
  /// (i, j); returns true if one was applied.
  bool try_pair( std::uint32_t i, std::uint32_t j )
  {
    const auto& a = slots_[i].product;
    const auto& b = slots_[j].product;
    const auto diff = a.difference_mask( b );
    const auto d = popcount64( diff );
    if ( d == 1 )
    {
      const auto merged = exorlink_merge( a, b );
      kill( j );
      set_product( i, merged );
      improved_ = true;
      return true;
    }
    if ( d == 2 )
    {
      const int old_literals = a.num_literals() + b.num_literals();
      const auto rw = exorlink_two( a, b );
      const cube* ca = nullptr;
      const cube* cb = nullptr;
      if ( rw.a1.num_literals() + rw.b1.num_literals() < old_literals )
      {
        ca = &rw.a1;
        cb = &rw.b1;
      }
      else if ( rw.a2.num_literals() + rw.b2.num_literals() < old_literals )
      {
        ca = &rw.a2;
        cb = &rw.b2;
      }
      if ( ca == nullptr )
      {
        return false;
      }
      set_product( j, *cb );
      set_product( i, *ca );
      improved_ = true;
      return true;
    }
    return false;
  }

  bool valid_partner( std::uint32_t i, std::uint32_t j, const group& g ) const
  {
    return j != i && slots_[j].output_mask == g.output_mask;
  }

  /// One pair-improvement attempt against the run's deadline.  Polling
  /// the clock (and the `exorcism.stop` fault site, whose trip reads as an
  /// expired deadline) every 256 attempts, starting with the first so a
  /// pre-expired deadline stops the run promptly, keeps the overhead
  /// negligible against the index probes an attempt performs.
  bool budget_hit()
  {
    if ( exhausted_ )
    {
      return true;
    }
    ++attempts_;
    if ( ( attempts_ & 255u ) == 1u &&
         ( fault_injection::poll( "exorcism.stop" ) || stop_.expired() ) )
    {
      exhausted_ = true;
      return true;
    }
    return false;
  }

  /// Looks for one improving rewrite involving slot i via the group's pair
  /// index (or a member scan for small groups).
  bool improve_once( std::uint32_t i )
  {
    if ( budget_hit() )
    {
      return false;
    }
    const auto git = groups_.find( slots_[i].output_mask );
    if ( git == groups_.end() )
    {
      return false; // output mask changed mid-pass; regrouped next pass
    }
    auto& g = git->second;
    if ( !g.indexed )
    {
      // Two-phase scan: apply a term-count-reducing distance-1 merge
      // before any literal-only distance-2 rewrite.
      for ( const auto j : g.members )
      {
        if ( valid_partner( i, j, g ) &&
             popcount64( slots_[i].product.difference_mask( slots_[j].product ) ) == 1u &&
             try_pair( i, j ) )
        {
          return true;
        }
      }
      for ( const auto j : g.members )
      {
        if ( valid_partner( i, j, g ) &&
             popcount64( slots_[i].product.difference_mask( slots_[j].product ) ) == 2u &&
             try_pair( i, j ) )
        {
          return true;
        }
      }
      return false;
    }
    // Distance-1 partners: exact lookups of the single-literal
    // perturbations of the cube (the two other literal states at each
    // position of the group's variable universe).
    {
      const auto a = slots_[i].product;
      for ( auto w = g.universe; w != 0u; w &= w - 1u )
      {
        const auto pbit = lowest_bit( w );
        cube alt1, alt2;
        if ( a.mask & pbit )
        {
          alt1 = cube{ a.mask & ~pbit, a.polarity & ~pbit };      // drop the literal
          alt2 = cube{ a.mask, a.polarity ^ pbit };               // flip its polarity
        }
        else
        {
          alt1 = cube{ a.mask | pbit, a.polarity | pbit };        // add positive
          alt2 = cube{ a.mask | pbit, a.polarity & ~pbit };       // add negative
        }
        for ( const auto* alt : { &alt1, &alt2 } )
        {
          const auto j = exact_.find( *alt );
          if ( j != invalid_index && valid_partner( i, j, g ) && try_pair( i, j ) )
          {
            return true;
          }
        }
      }
    }
    // Distance-2 partners: wildcard-signature probes (or a member scan when
    // the group is too small to amortize the signature table).
    if ( g.use_sig2 )
    {
      if ( !g.sig2_built )
      {
        build_sig2( g );
      }
      const auto a = slots_[i].product;
      for ( auto wp = g.universe; wp != 0u; wp &= wp - 1u )
      {
        const auto pbit = lowest_bit( wp );
        for ( auto wq = wp & ( wp - 1u ); wq != 0u; wq &= wq - 1u )
        {
          const auto qbit = lowest_bit( wq );
          // A distance-2 rewrite only reduces literals when the merged
          // state is `absent` at some position, which requires both cubes
          // to hold that variable — so at least one of p, q must be a
          // literal of this cube.
          if ( ( ( pbit | qbit ) & a.mask ) == 0u )
          {
            continue;
          }
          const bool applied = g.sig2.for_each_match(
              sig2_hash( a, pbit | qbit ), [&]( std::uint32_t j ) {
                if ( !valid_partner( i, j, g ) )
                {
                  return false;
                }
                const auto d =
                    popcount64( slots_[i].product.difference_mask( slots_[j].product ) );
                return d >= 1u && d <= 2u && try_pair( i, j );
              } );
          if ( applied )
          {
            return true;
          }
        }
      }
    }
    else
    {
      for ( const auto j : g.members )
      {
        if ( valid_partner( i, j, g ) &&
             popcount64( slots_[i].product.difference_mask( slots_[j].product ) ) == 2u &&
             try_pair( i, j ) )
        {
          return true;
        }
      }
    }
    return false;
  }

  void compact()
  {
    slots_.erase( std::remove_if( slots_.begin(), slots_.end(),
                                  []( const slot& s ) { return s.output_mask == 0u; } ),
                  slots_.end() );
  }

  esop& expression_;
  std::vector<slot> slots_;
  exact_table exact_;
  std::unordered_map<std::uint64_t, group> groups_;
  bool improved_ = false;
  bool needs_rebuild_ = true;
  deadline stop_;
  std::uint64_t attempts_ = 0;
  bool exhausted_ = false;
};

} // namespace

exorcism_stats exorcism( esop& expression, unsigned max_passes )
{
  exorcism_params params;
  params.max_passes = max_passes;
  return exorcism( expression, params );
}

exorcism_stats exorcism( esop& expression, const exorcism_params& params )
{
  exorcism_stats stats;
  expression.merge_identical_cubes();
  stats.initial_terms = expression.num_terms();
  stats.initial_literals = expression.num_literals();

  minimizer engine( expression );
  engine.run( params, stats );

  stats.final_terms = expression.num_terms();
  stats.final_literals = expression.num_literals();
  return stats;
}

} // namespace qsyn
