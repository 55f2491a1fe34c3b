#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <unordered_map>

#include "common/strash_table.hpp"
#include "logic/aig.hpp"
#include "logic/aig_slots.hpp"
#include "logic/xmg.hpp"
#include "sat/incremental.hpp"

using namespace qsyn;

TEST( aig, constant_folding )
{
  aig_network aig( 2 );
  const auto a = aig.pi( 0 );
  EXPECT_EQ( aig.create_and( a, aig_network::const0 ), aig_network::const0 );
  EXPECT_EQ( aig.create_and( a, aig_network::const1 ), a );
  EXPECT_EQ( aig.create_and( a, a ), a );
  EXPECT_EQ( aig.create_and( a, lit_not( a ) ), aig_network::const0 );
  EXPECT_EQ( aig.num_ands(), 0u );
}

TEST( aig, structural_hashing )
{
  aig_network aig( 2 );
  const auto a = aig.pi( 0 );
  const auto b = aig.pi( 1 );
  const auto g1 = aig.create_and( a, b );
  const auto g2 = aig.create_and( b, a ); // commuted
  EXPECT_EQ( g1, g2 );
  EXPECT_EQ( aig.num_ands(), 1u );
}

TEST( aig, xor_simulation )
{
  aig_network aig( 2 );
  const auto f = aig.create_xor( aig.pi( 0 ), aig.pi( 1 ) );
  aig.add_po( f );
  const auto tts = aig.simulate_outputs();
  EXPECT_EQ( tts[0].to_binary(), "0110" );
}

TEST( aig, mux_and_maj_simulation )
{
  aig_network aig( 3 );
  const auto s = aig.pi( 0 );
  const auto t = aig.pi( 1 );
  const auto e = aig.pi( 2 );
  aig.add_po( aig.create_mux( s, t, e ) );
  aig.add_po( aig.create_maj( s, t, e ) );
  const auto tts = aig.simulate_outputs();
  for ( std::uint64_t i = 0; i < 8; ++i )
  {
    const bool sv = i & 1u, tv = i & 2u, ev = i & 4u;
    EXPECT_EQ( tts[0].get_bit( i ), sv ? tv : ev );
    EXPECT_EQ( tts[1].get_bit( i ), ( sv && tv ) || ( sv && ev ) || ( tv && ev ) );
  }
}

TEST( aig, nary_builders )
{
  aig_network aig( 5 );
  std::vector<aig_lit> lits;
  for ( unsigned i = 0; i < 5; ++i )
  {
    lits.push_back( aig.pi( i ) );
  }
  aig.add_po( aig.create_nary_and( lits ) );
  aig.add_po( aig.create_nary_or( lits ) );
  aig.add_po( aig.create_nary_xor( lits ) );
  const auto tts = aig.simulate_outputs();
  for ( std::uint64_t i = 0; i < 32; ++i )
  {
    EXPECT_EQ( tts[0].get_bit( i ), i == 31u );
    EXPECT_EQ( tts[1].get_bit( i ), i != 0u );
    EXPECT_EQ( tts[2].get_bit( i ), popcount64( i ) % 2 == 1 );
  }
}

TEST( aig, nary_empty_cases )
{
  aig_network aig( 1 );
  EXPECT_EQ( aig.create_nary_and( {} ), aig_network::const1 );
  EXPECT_EQ( aig.create_nary_or( {} ), aig_network::const0 );
  EXPECT_EQ( aig.create_nary_xor( {} ), aig_network::const0 );
}

TEST( aig, pattern_simulation_matches_tt )
{
  aig_network aig( 3 );
  const auto f =
      aig.create_or( aig.create_and( aig.pi( 0 ), aig.pi( 1 ) ), lit_not( aig.pi( 2 ) ) );
  aig.add_po( f );
  const auto tts = aig.simulate_outputs();
  // Patterns enumerating all 8 assignments in one 64-bit word.
  std::vector<std::uint64_t> patterns( 3 );
  for ( unsigned v = 0; v < 3; ++v )
  {
    patterns[v] = projections[v];
  }
  const auto words = aig.simulate_patterns( patterns );
  for ( std::uint64_t i = 0; i < 8; ++i )
  {
    EXPECT_EQ( ( words[0] >> i ) & 1u, tts[0].get_bit( i ) );
  }
}

/// A seeded random AIG: `ands` AND nodes over random earlier literals, and
/// outputs on random literals plus both constants and a complemented PI.
static aig_network random_aig( unsigned num_pis, unsigned ands, std::uint64_t seed )
{
  std::mt19937_64 rng( seed );
  aig_network aig( num_pis );
  std::vector<aig_lit> lits{ aig_network::const1 };
  for ( unsigned i = 0; i < num_pis; ++i )
  {
    lits.push_back( aig.pi( i ) );
  }
  const auto pick = [&] { return lit_not_cond( lits[rng() % lits.size()], rng() & 1u ); };
  for ( unsigned g = 0; g < ands; ++g )
  {
    lits.push_back( aig.create_and( pick(), pick() ) );
  }
  for ( unsigned o = 0; o < 6; ++o )
  {
    aig.add_po( pick() );
  }
  aig.add_po( aig_network::const0 );
  aig.add_po( aig_network::const1 );
  if ( num_pis > 0u )
  {
    aig.add_po( lit_not( aig.pi( num_pis - 1u ) ) );
  }
  return aig;
}

TEST( aig, simulate_outputs_matches_pattern_simulation_word_by_word )
{
  // simulate_outputs runs the dispatched slot kernel over lane groups of
  // eight table words; ctest repeats this suite with the backend capped at
  // AVX2 and at the portable kernels.  n = 0 and n < 6 mask the single
  // (replicated) word; n = 6 and 7 fill one or two words of a group; n = 8
  // is exactly one group; 9 and 13 sweep several groups.
  for ( const unsigned n : { 0u, 1u, 5u, 6u, 7u, 8u, 9u, 13u } )
  {
    for ( std::uint64_t seed = 1; seed <= 3; ++seed )
    {
      const auto aig = random_aig( n, 40u * n + 10u, 100u * n + seed );
      const auto tts = aig.simulate_outputs();
      ASSERT_EQ( tts.size(), aig.num_pos() );
      const auto num_words = num_blocks_for( n );
      std::vector<std::uint64_t> patterns( n );
      for ( std::uint64_t w = 0; w < num_words; ++w )
      {
        // Word w: projections below x6, x_i = bit (i - 6) of w from x6 up.
        for ( unsigned i = 0; i < n; ++i )
        {
          patterns[i] = i < 6u ? projections[i] : ( ( w >> ( i - 6u ) ) & 1u ? ~std::uint64_t{ 0 } : 0u );
        }
        const auto words = aig.simulate_patterns( patterns );
        for ( unsigned o = 0; o < aig.num_pos(); ++o )
        {
          ASSERT_EQ( tts[o].num_vars(), n );
          ASSERT_EQ( tts[o].blocks()[w], words[o] & block_mask( n ) )
              << "n = " << n << ", seed " << seed << ", word " << w << ", output " << o;
        }
      }
    }
  }
}

TEST( aig, slot_program_reuses_the_slots_of_dead_values )
{
  // A chain of ANDs with a dead AND hanging off every link: each link
  // takes the slot of the link it reads last, each dead AND gives its slot
  // back at once, so two AND slots serve the whole chain.
  aig_network aig( 2 );
  auto link = aig.pi( 0 );
  for ( unsigned k = 0; k < 500; ++k )
  {
    aig.create_and( link, lit_not( aig.pi( 0 ) ) ); // dead
    link = aig.create_and( link, lit_not_cond( aig.pi( 1 ), k & 1u ) );
  }
  aig.add_po( link );
  aig.add_po( lit_not( link ) );
  const auto program = compile_slot_program( aig );
  EXPECT_EQ( program.num_ands(), aig.num_ands() );
  EXPECT_EQ( program.num_slots, aig.num_pis() + 3u );
  ASSERT_EQ( program.pos.size(), 2u );
  EXPECT_EQ( program.pos[0] ^ 1u, program.pos[1] );
  for ( std::size_t op = 0; op < program.ands.size(); op += 3u )
  {
    // AND values never land on the constant or a PI.
    EXPECT_GT( program.ands[op], aig.num_pis() );
    EXPECT_LT( program.ands[op], program.num_slots );
  }
  const auto tts = aig.simulate_outputs();
  const auto words = aig.simulate_patterns( { projections[0], projections[1] } );
  for ( unsigned o = 0; o < 2; ++o )
  {
    EXPECT_EQ( tts[o].blocks()[0], words[o] & block_mask( 2 ) );
  }
}

TEST( aig, evaluate_single_assignment )
{
  aig_network aig( 2 );
  aig.add_po( aig.create_and( aig.pi( 0 ), lit_not( aig.pi( 1 ) ) ) );
  EXPECT_EQ( aig.evaluate( { true, false } ), std::vector<bool>{ true } );
  EXPECT_EQ( aig.evaluate( { true, true } ), std::vector<bool>{ false } );
}

TEST( aig, cleanup_removes_dangling )
{
  aig_network aig( 3 );
  const auto used = aig.create_and( aig.pi( 0 ), aig.pi( 1 ) );
  aig.create_and( aig.pi( 1 ), aig.pi( 2 ) ); // dangling
  aig.add_po( used );
  EXPECT_EQ( aig.num_ands(), 2u );
  const auto before = aig.simulate_outputs();
  const auto clean = aig.cleanup();
  EXPECT_EQ( clean.num_ands(), 1u );
  EXPECT_EQ( clean.simulate_outputs(), before );
}

TEST( aig, cleanup_preserves_complemented_pos )
{
  aig_network aig( 2 );
  const auto g = aig.create_or( aig.pi( 0 ), aig.pi( 1 ) );
  aig.add_po( lit_not( g ) );
  aig.add_po( aig_network::const1 );
  const auto clean = aig.cleanup();
  EXPECT_EQ( clean.simulate_outputs(), aig.simulate_outputs() );
}

TEST( aig, cleanup_keeps_a_canonical_network_and_rebuilds_raw_nodes )
{
  // Without dangling nodes a strashed network is its own cleanup, node for
  // node, and keeps hash-consing.
  aig_network aig( 3 );
  const auto ab = aig.create_and( aig.pi( 0 ), aig.pi( 1 ) );
  aig.add_po( aig.create_or( ab, lit_not( aig.pi( 2 ) ) ) );
  aig.add_po( lit_not( ab ) );
  std::vector<aig_lit> map;
  auto clean = aig.cleanup( &map );
  EXPECT_EQ( clean.content_hash(), aig.content_hash() );
  ASSERT_EQ( map.size(), aig.num_nodes() );
  for ( std::uint32_t n = 0; n < aig.num_nodes(); ++n )
  {
    EXPECT_EQ( map[n], make_lit( n ) );
  }
  EXPECT_EQ( clean.create_and( aig.pi( 1 ), aig.pi( 0 ) ), ab );
  EXPECT_EQ( clean.num_ands(), aig.num_ands() );

  // Raw nodes that create_and would fold or merge are rebuilt by it: a
  // duplicate fanin pair, reversed fanins and a constant fanin.
  aig_network raw( 2 );
  const auto first = raw.append_raw_and( raw.pi( 0 ), raw.pi( 1 ) );
  const auto twin = raw.append_raw_and( raw.pi( 1 ), raw.pi( 0 ) );
  const auto with_const = raw.append_raw_and( aig_network::const1, twin );
  raw.add_po( raw.append_raw_and( first, with_const ) );
  const auto rebuilt = raw.cleanup();
  EXPECT_EQ( rebuilt.num_ands(), 1u );
  EXPECT_EQ( rebuilt.simulate_outputs(), raw.simulate_outputs() );
}

TEST( aig, levels_and_depth )
{
  aig_network aig( 4 );
  auto f = aig.create_and( aig.pi( 0 ), aig.pi( 1 ) );
  f = aig.create_and( f, aig.pi( 2 ) );
  f = aig.create_and( f, aig.pi( 3 ) );
  aig.add_po( f );
  EXPECT_EQ( aig.depth(), 3u );
}

TEST( aig, fanout_counts_include_pos )
{
  aig_network aig( 2 );
  const auto g = aig.create_and( aig.pi( 0 ), aig.pi( 1 ) );
  aig.add_po( g );
  aig.add_po( g );
  const auto counts = aig.fanout_counts();
  EXPECT_EQ( counts[lit_node( g )], 2u );
  EXPECT_EQ( counts[1], 1u ); // pi 0 feeds the AND once
}

TEST( aig, add_pi_after_gates_throws )
{
  aig_network aig( 1 );
  aig.create_and( aig.pi( 0 ), aig_network::const1 ); // folded, no node
  aig.add_pi();                                       // still fine
  aig.create_and( aig.pi( 0 ), aig.pi( 1 ) );
  EXPECT_THROW( aig.add_pi(), std::logic_error );
}

TEST( aig, dot_output_contains_nodes )
{
  aig_network aig( 2 );
  aig.add_po( aig.create_and( aig.pi( 0 ), aig.pi( 1 ) ) );
  const auto dot = aig.to_dot();
  EXPECT_NE( dot.find( "digraph" ), std::string::npos );
  EXPECT_NE( dot.find( "x0" ), std::string::npos );
  EXPECT_NE( dot.find( "y0" ), std::string::npos );
}

// --- flat strash table ---------------------------------------------------------

namespace
{

/// The node store behind a test table: node id -> key, appended before each
/// insert, as `aig_network::append_raw_and` does.  `key_of` rebuilds a
/// stored id's key from it.
template<unsigned KeyWords>
struct key_store
{
  using key_type = typename strash_table<KeyWords>::key_type;
  std::vector<key_type> keys;

  std::uint32_t append( const key_type& key )
  {
    keys.push_back( key );
    return static_cast<std::uint32_t>( keys.size() - 1u );
  }
  auto key_of() const
  {
    return [this]( std::uint32_t id ) { return keys.at( id ); };
  }
};

/// Replays one seeded insert/lookup stream against the flat table and a
/// std::unordered_map oracle.  The stream repeats keys (duplicate inserts
/// must keep the first value), and every step also looks up a fresh key
/// that is usually absent.  Returns the
/// number of table growths observed.
template<unsigned KeyWords>
unsigned replay_against_oracle( std::uint64_t seed, unsigned steps )
{
  using table = strash_table<KeyWords>;
  using key_type = typename table::key_type;
  struct key_hash
  {
    std::size_t operator()( const key_type& k ) const
    {
      std::size_t h = 0;
      for ( const auto w : k )
      {
        h = hash_combine( h, std::hash<std::uint64_t>{}( w ) );
      }
      return h;
    }
  };
  std::mt19937_64 rng( seed );
  const auto random_key = [&] {
    key_type k;
    for ( auto& w : k )
    {
      // Packed-fanin shape: two small literals per word.
      w = ( ( rng() % 512u ) << 32 ) | ( rng() % 512u );
    }
    return k;
  };
  key_store<KeyWords> store;
  const auto key_of = store.key_of();
  table flat;
  std::unordered_map<key_type, std::uint32_t, key_hash> oracle;
  unsigned growths = 0;
  std::size_t capacity = flat.capacity();
  std::vector<key_type> seen;
  for ( unsigned step = 0; step < steps; ++step )
  {
    // One step in three re-inserts an earlier key.
    const auto key = !seen.empty() && rng() % 3u == 0u ? seen[rng() % seen.size()] : random_key();
    seen.push_back( key );
    const auto value = store.append( key );
    const auto [it, oracle_inserted] = oracle.emplace( key, value );
    const auto [stored, inserted] = flat.insert( key, value, key_of );
    EXPECT_EQ( inserted, oracle_inserted ) << "step " << step;
    EXPECT_EQ( stored, it->second ) << "step " << step;
    EXPECT_EQ( flat.size(), oracle.size() ) << "step " << step;
    EXPECT_LE( 2u * flat.size(), flat.capacity() ) << "load factor above 1/2 at step " << step;
    EXPECT_TRUE( is_power_of_two( flat.capacity() ) );
    if ( flat.capacity() != capacity )
    {
      ++growths;
      capacity = flat.capacity();
      // Every stored key must survive the rehash.
      for ( const auto& [k, v] : oracle )
      {
        EXPECT_EQ( flat.find( k, key_of ), std::optional<std::uint32_t>( v ) ) << "step " << step;
      }
    }
    const auto probe = random_key();
    const auto expected = oracle.find( probe );
    EXPECT_EQ( flat.find( probe, key_of ), expected == oracle.end()
                                               ? std::nullopt
                                               : std::optional<std::uint32_t>( expected->second ) )
        << "step " << step;
  }
  for ( const auto& [k, v] : oracle )
  {
    EXPECT_EQ( flat.find( k, key_of ), std::optional<std::uint32_t>( v ) );
  }
  return growths;
}

} // namespace

TEST( strash_table, empty_table_finds_nothing )
{
  const strash_table<1> t;
  const auto never_called = []( std::uint32_t ) -> strash_table<1>::key_type {
    ADD_FAILURE() << "an empty table has no id to rebuild a key for";
    return {};
  };
  EXPECT_EQ( t.find( { 0u }, never_called ), std::nullopt );
  EXPECT_EQ( t.size(), 0u );
  EXPECT_EQ( t.capacity(), 0u );
}

TEST( strash_table, matches_unordered_map_oracle_one_word_keys )
{
  for ( const std::uint64_t seed : { 1u, 2u, 3u } )
  {
    EXPECT_GE( replay_against_oracle<1>( seed, 4000 ), 5u ) << "seed " << seed;
  }
}

TEST( strash_table, matches_unordered_map_oracle_two_word_keys )
{
  for ( const std::uint64_t seed : { 4u, 5u } )
  {
    EXPECT_GE( replay_against_oracle<2>( seed, 4000 ), 5u ) << "seed " << seed;
  }
}

TEST( strash_table, reserved_table_answers_like_a_grown_one )
{
  // A presized table must return the same find/insert results as one that
  // grew insert by insert, duplicate inserts keeping the first value
  // included, and reserve never shrinks the table.
  std::mt19937_64 rng( 17 );
  key_store<2> store;
  const auto key_of = store.key_of();
  strash_table<2> grown;
  strash_table<2> presized;
  presized.reserve( 3000, key_of );
  const auto reserved = presized.capacity();
  EXPECT_GE( reserved, 6000u );
  EXPECT_TRUE( is_power_of_two( reserved ) );
  std::vector<strash_table<2>::key_type> seen;
  for ( std::uint32_t step = 0; step < 3000u; ++step )
  {
    const bool repeat = !seen.empty() && rng() % 3u == 0u;
    const auto key = repeat ? seen[rng() % seen.size()]
                            : strash_table<2>::key_type{ rng() % 4096u, rng() % 4096u };
    seen.push_back( key );
    const auto id = store.append( key );
    EXPECT_EQ( presized.insert( key, id, key_of ), grown.insert( key, id, key_of ) )
        << "step " << step;
    const strash_table<2>::key_type probe{ rng() % 4096u, rng() % 4096u };
    EXPECT_EQ( presized.find( probe, key_of ), grown.find( probe, key_of ) ) << "step " << step;
  }
  EXPECT_EQ( presized.size(), grown.size() );
  EXPECT_EQ( presized.capacity(), reserved ); // no regrowth within the reservation
  for ( const auto& key : seen )
  {
    EXPECT_EQ( presized.find( key, key_of ), grown.find( key, key_of ) );
  }
  presized.reserve( 10, key_of );
  EXPECT_EQ( presized.capacity(), reserved ); // never shrinks
  grown.reserve( 4 * grown.size(), key_of );
  EXPECT_GE( grown.capacity(), 8 * grown.size() );
  for ( const auto& key : seen )
  {
    EXPECT_EQ( presized.find( key, key_of ), grown.find( key, key_of ) ); // survives a rehash
  }
}

namespace
{

/// Reference hash-consing of an AND over literals: the folding rules of
/// `aig_network::create_and` (shared by the SAT engine), then the first
/// node of the ordered fanin pair, `next` if the pair is new.
struct and_reference
{
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> first;
  std::size_t created = 0;
  std::size_t hits = 0;

  std::uint32_t create_and( std::uint32_t a, std::uint32_t b, std::uint32_t next )
  {
    if ( a == 0u || b == 0u || a == ( b ^ 1u ) )
    {
      return 0u;
    }
    if ( a == 1u || a == b )
    {
      return b;
    }
    if ( b == 1u )
    {
      return a;
    }
    const auto [it, fresh] = first.emplace( std::minmax( a, b ), next );
    ++( fresh ? created : hits );
    return it->second << 1;
  }
};

/// A random AIG over `num_pis` inputs: `steps` create_and calls on earlier
/// literals, each result checked against `ref`, with one raw duplicate
/// pair appended halfway (the first of the pair keeps the key).
aig_network random_strashed_aig( std::mt19937_64& rng, unsigned num_pis, unsigned steps,
                                 and_reference& ref )
{
  aig_network aig( num_pis );
  std::vector<aig_lit> pool = { aig_network::const0 };
  for ( unsigned i = 0; i < num_pis; ++i )
  {
    pool.push_back( aig.pi( i ) );
  }
  // Half the picks come from the first literals, so pairs repeat.
  const auto pick = [&] {
    const auto range = rng() % 2u == 0u ? std::min<std::size_t>( pool.size(), 32u ) : pool.size();
    return pool[rng() % range] ^ static_cast<aig_lit>( rng() & 1u );
  };
  for ( unsigned step = 0; step < steps; ++step )
  {
    if ( step == steps / 2u )
    {
      // The newest node feeds no node yet, so no node has this pair.
      const auto x = make_lit( static_cast<std::uint32_t>( aig.num_nodes() - 1u ) );
      const auto y = aig.pi( 0 );
      const auto raw_first = aig.append_raw_and( x, y ); // fanins reversed
      const auto raw_twin = aig.append_raw_and( y, x );
      EXPECT_EQ( ref.create_and( x, y, lit_node( raw_first ) ), raw_first );
      EXPECT_EQ( aig.create_and( x, y ), raw_first );
      EXPECT_EQ( aig.create_and( y, x ), raw_first );
      pool.push_back( raw_first );
      pool.push_back( raw_twin );
    }
    const auto a = pick();
    const auto b = pick();
    const auto next = static_cast<std::uint32_t>( aig.num_nodes() );
    const auto expected = ref.create_and( a, b, next );
    const auto got = aig.create_and( a, b );
    EXPECT_EQ( got, expected ) << "step " << step;
    EXPECT_EQ( aig.num_nodes(), lit_node( expected ) == next ? next + 1u : next )
        << "step " << step;
    pool.push_back( got );
  }
  return aig;
}

} // namespace

TEST( strash_table, owners_hash_cons_like_a_map_reference )
{
  // The slot format must not change an answer: every owner of a strash
  // table returns, for each normalized key, the first node built with it.
  std::mt19937_64 rng( 20 );

  // AIG: create_and on random literals plus one raw duplicate pair.
  and_reference aig_ref;
  const auto spec = random_strashed_aig( rng, 18, 4000, aig_ref );
  EXPECT_GT( aig_ref.hits, 100u );
  EXPECT_GT( aig_ref.created, 1000u );

  // XMG: MAJ over three distinct nodes with at most one complemented
  // fanin, and XOR over two distinct non-constant nodes, each passed in a
  // random order (these shapes are canonical up to fanin order), plus one
  // raw duplicate MAJ.
  {
    xmg_network xmg( 8 );
    using key = std::tuple<bool, xmg_lit, xmg_lit, xmg_lit>; // (is_xor, sorted fanins)
    std::map<key, std::uint32_t> first;
    std::size_t hits = 0;
    const auto reference = [&]( const key& k ) {
      const auto [it, fresh] = first.emplace( k, static_cast<std::uint32_t>( xmg.num_nodes() ) );
      hits += fresh ? 0u : 1u;
      return it->second;
    };
    // Half the tuples come from the first nodes, so keys repeat.
    const auto distinct_nodes = [&]( unsigned count ) {
      const auto range =
          rng() % 2u == 0u ? std::min<std::size_t>( xmg.num_nodes(), 12u ) : xmg.num_nodes();
      std::vector<std::uint32_t> nodes;
      while ( nodes.size() < count )
      {
        const auto n = static_cast<std::uint32_t>( rng() % range );
        if ( std::find( nodes.begin(), nodes.end(), n ) == nodes.end() )
        {
          nodes.push_back( n );
        }
      }
      std::sort( nodes.begin(), nodes.end() );
      return nodes;
    };
    for ( unsigned step = 0; step < 4000u; ++step )
    {
      if ( step == 2000u )
      {
        // The newest node feeds no node yet, so no node has this triple.
        const auto newest = static_cast<xmg_lit>( xmg.num_nodes() - 1u ) << 1;
        const std::array<xmg_lit, 3> fanin = { xmg.pi( 0 ), xmg.pi( 1 ), newest };
        const auto expected = reference( { false, fanin[0], fanin[1], fanin[2] } );
        const auto raw_first = xmg.append_raw_node( xmg_network::node_kind::maj, fanin );
        xmg.append_raw_node( xmg_network::node_kind::maj, fanin );
        EXPECT_EQ( raw_first, expected << 1 );
        EXPECT_EQ( xmg.create_maj( fanin[2], fanin[0], fanin[1] ), raw_first );
        continue;
      }
      if ( rng() % 2u == 0u )
      {
        const auto n = distinct_nodes( 3 );
        std::array<xmg_lit, 3> lits = { n[0] << 1, n[1] << 1, n[2] << 1 };
        const auto flip = rng() % 4u; // 3: no complemented fanin
        if ( flip < 3u )
        {
          lits[flip] ^= 1u;
        }
        const auto expected = reference( { false, lits[0], lits[1], lits[2] } ) << 1;
        std::shuffle( lits.begin(), lits.end(), rng );
        EXPECT_EQ( xmg.create_maj( lits[0], lits[1], lits[2] ), expected ) << "step " << step;
      }
      else if ( xmg.num_nodes() > 3u )
      {
        const auto n = distinct_nodes( 2 );
        if ( n[0] == 0u )
        {
          continue;
        }
        const auto ca = static_cast<xmg_lit>( rng() & 1u );
        const auto cb = static_cast<xmg_lit>( rng() & 1u );
        const auto expected =
            ( reference( { true, n[0] << 1, n[1] << 1, 0u } ) << 1 ) | ( ca ^ cb );
        const auto a = ( n[0] << 1 ) | ca;
        const auto b = ( n[1] << 1 ) | cb;
        EXPECT_EQ( rng() % 2u == 0u ? xmg.create_xor( a, b ) : xmg.create_xor( b, a ), expected )
            << "step " << step;
      }
    }
    EXPECT_GT( hits, 100u );
    EXPECT_EQ( xmg.num_gates(), first.size() + 1u ); // + the raw twin
  }

  // SAT engine: encoding hash-conses every AND of both networks into one
  // union store, so its node and hit counters follow the reference.
  {
    and_reference engine_ref;
    const auto encode = [&]( const aig_network& aig ) {
      std::vector<std::uint32_t> map( aig.num_nodes() );
      for ( std::uint32_t n = 1; n <= aig.num_pis(); ++n )
      {
        map[n] = n << 1; // the engine numbers PIs 1..num_pis on the first check
      }
      const auto conv = [&]( aig_lit l ) { return map[lit_node( l )] ^ ( l & 1u ); };
      for ( std::uint32_t n = aig.num_pis() + 1u; n < aig.num_nodes(); ++n )
      {
        const auto next = static_cast<std::uint32_t>( 1u + aig.num_pis() + engine_ref.created );
        map[n] = engine_ref.create_and( conv( aig.fanin0( n ) ), conv( aig.fanin1( n ) ), next );
      }
    };
    sat::incremental_cec engine;
    const auto same = engine.check( spec, spec );
    EXPECT_TRUE( same.equivalent );
    encode( spec );
    encode( spec );
    EXPECT_EQ( engine.stats().nodes, engine_ref.created );
    EXPECT_EQ( engine.stats().strash_hits, engine_ref.hits );

    and_reference other_ref;
    const auto other = random_strashed_aig( rng, 18, 2000, other_ref );
    engine.check( spec, other );
    encode( spec );
    encode( other );
    EXPECT_EQ( engine.stats().nodes, engine_ref.created );
    EXPECT_EQ( engine.stats().strash_hits, engine_ref.hits );
  }
}

TEST( aig, append_raw_and_duplicate_pair_keeps_first_node )
{
  // The deserializer may append two nodes with the same fanin pair; later
  // create_and calls must keep hash-consing to the first of them.
  aig_network aig( 2 );
  const auto first = aig.append_raw_and( aig.pi( 1 ), aig.pi( 0 ) );
  const auto second = aig.append_raw_and( aig.pi( 0 ), aig.pi( 1 ) );
  EXPECT_NE( first, second );
  EXPECT_EQ( aig.num_ands(), 2u );
  EXPECT_EQ( aig.create_and( aig.pi( 0 ), aig.pi( 1 ) ), first );
  EXPECT_EQ( aig.create_and( aig.pi( 1 ), aig.pi( 0 ) ), first );
  EXPECT_EQ( aig.num_ands(), 2u );
  // Raw nodes keep their fanin order as given.
  EXPECT_EQ( aig.fanin0( lit_node( first ) ), aig.pi( 1 ) );
  EXPECT_EQ( aig.fanin0( lit_node( second ) ), aig.pi( 0 ) );
}

TEST( aig, strash_survives_copies_and_growth )
{
  // Thousands of distinct ANDs force many table growths; a copy of the
  // network must hash-cons exactly like the original.
  aig_network aig( 8 );
  std::vector<aig_lit> pool;
  for ( unsigned i = 0; i < 8; ++i )
  {
    pool.push_back( aig.pi( i ) );
  }
  std::mt19937_64 rng( 99 );
  for ( int k = 0; k < 5000; ++k )
  {
    const auto a = pool[rng() % pool.size()] ^ ( rng() & 1u );
    const auto b = pool[rng() % pool.size()] ^ ( rng() & 1u );
    pool.push_back( aig.create_and( a, b ) );
  }
  const auto before = aig.num_ands();
  auto copy = aig;
  for ( std::uint32_t n = aig.num_pis() + 1u; n < aig.num_nodes(); ++n )
  {
    EXPECT_EQ( copy.create_and( aig.fanin1( n ), aig.fanin0( n ) ), make_lit( n ) );
  }
  EXPECT_EQ( copy.num_ands(), before );
  EXPECT_EQ( copy.content_hash(), aig.content_hash() );

  // The hash is memoized: a copy carries the memo, and every mutation of
  // the copy forgets it without touching the original's.
  const auto original = aig.content_hash();
  const auto last = make_lit( static_cast<std::uint32_t>( aig.num_nodes() - 1u ) ); // no fanout yet
  auto grown = aig;
  grown.create_and( last, aig.pi( 0 ) );
  ASSERT_EQ( grown.num_ands(), before + 1u );
  EXPECT_NE( grown.content_hash(), original );
  auto rewired = aig;
  rewired.add_po( last );
  const auto with_po = rewired.content_hash();
  EXPECT_NE( with_po, original );
  rewired.set_po( 0, lit_not( last ) );
  EXPECT_NE( rewired.content_hash(), with_po );
  EXPECT_EQ( aig.content_hash(), original );
}
