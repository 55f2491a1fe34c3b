#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "common/strash_table.hpp"
#include "logic/aig.hpp"

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
    const auto value = static_cast<std::uint32_t>( rng() % 1000000u );
    const auto [it, oracle_inserted] = oracle.emplace( key, value );
    const auto [stored, inserted] = flat.insert( key, value );
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
        EXPECT_EQ( flat.find( k ), std::optional<std::uint32_t>( v ) ) << "step " << step;
      }
    }
    const auto probe = random_key();
    const auto expected = oracle.find( probe );
    EXPECT_EQ( flat.find( probe ), expected == oracle.end()
                                       ? std::nullopt
                                       : std::optional<std::uint32_t>( expected->second ) )
        << "step " << step;
  }
  for ( const auto& [k, v] : oracle )
  {
    EXPECT_EQ( flat.find( k ), std::optional<std::uint32_t>( v ) );
  }
  return growths;
}

} // namespace

TEST( strash_table, empty_table_finds_nothing )
{
  const strash_table<1> t;
  EXPECT_EQ( t.find( { 0u } ), std::nullopt );
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
}
