#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "embed/embedding.hpp"
#include "synth/collapse.hpp"
#include "verilog/elaborator.hpp"
#include "verilog/generators.hpp"

using namespace qsyn;

namespace
{

std::vector<truth_table> reciprocal_tts( unsigned n )
{
  const auto mod = verilog::elaborate_verilog( verilog::generate_intdiv( n ) );
  return mod.aig.simulate_outputs();
}

bool is_bijection( const std::vector<std::uint64_t>& perm )
{
  std::vector<bool> seen( perm.size(), false );
  for ( const auto v : perm )
  {
    if ( v >= perm.size() || seen[v] )
    {
      return false;
    }
    seen[v] = true;
  }
  return true;
}

} // namespace

TEST( embedding, collision_count_identity_function )
{
  // f(x) = x is injective: mu = 1, no extra lines.
  std::vector<truth_table> outputs;
  for ( unsigned v = 0; v < 3; ++v )
  {
    outputs.push_back( truth_table::projection( 3, v ) );
  }
  EXPECT_EQ( max_collisions_explicit( outputs ), 1u );
  EXPECT_EQ( ceil_log2( max_collisions_explicit( outputs ) ), 0u );
}

TEST( embedding, collision_count_constant_function )
{
  // f(x) = 0 for all x: mu = 2^n.
  std::vector<truth_table> outputs{ truth_table( 4 ) };
  EXPECT_EQ( max_collisions_explicit( outputs ), 16u );
  EXPECT_EQ( ceil_log2( max_collisions_explicit( outputs ) ), 4u );
}

TEST( embedding, collision_count_and_gate )
{
  // AND: y=0 has 3 preimages -> 2 extra lines.
  std::vector<truth_table> outputs{ truth_table::projection( 2, 0 ) &
                                    truth_table::projection( 2, 1 ) };
  EXPECT_EQ( max_collisions_explicit( outputs ), 3u );
  EXPECT_EQ( ceil_log2( max_collisions_explicit( outputs ) ), 2u );
}

TEST( embedding, reciprocal_needs_2n_minus_1_lines )
{
  // The observation behind Table II: the reciprocal's optimum embedding has
  // 2n-1 lines (largest collision class has 2^(n-1)-1 elements).
  for ( const unsigned n : { 3u, 4u, 5u, 6u, 7u } )
  {
    const auto tts = reciprocal_tts( n );
    const auto emb = embed_optimum( tts );
    EXPECT_EQ( emb.num_lines, 2u * n - 1u ) << "n=" << n;
    EXPECT_EQ( emb.extra_lines, n - 1u ) << "n=" << n;
  }
}

TEST( embedding, optimum_embedding_is_bijective )
{
  const auto tts = reciprocal_tts( 4 );
  const auto emb = embed_optimum( tts );
  EXPECT_TRUE( is_bijection( emb.permutation ) );
}

TEST( embedding, optimum_embedding_satisfies_eq1 )
{
  // f'(x, 0) must carry f(x) on the top m bits (Eq. (1) of the paper).
  const auto tts = reciprocal_tts( 5 );
  const auto emb = embed_optimum( tts );
  const auto n = emb.num_inputs;
  const auto m = emb.num_outputs;
  const auto r = emb.num_lines;
  for ( std::uint64_t x = 0; x < ( std::uint64_t{ 1 } << n ); ++x )
  {
    const auto image = emb.permutation[x]; // ancilla bits are zero
    const auto y = image >> ( r - m );
    std::uint64_t expected = 0;
    for ( unsigned j = 0; j < m; ++j )
    {
      if ( tts[j].get_bit( x ) )
      {
        expected |= std::uint64_t{ 1 } << j;
      }
    }
    EXPECT_EQ( y, expected ) << "x=" << x;
  }
}

TEST( embedding, garbage_distinguishes_collisions )
{
  const auto tts = reciprocal_tts( 4 );
  const auto emb = embed_optimum( tts );
  // All valid inputs must map to distinct images (already implied by
  // bijectivity plus Eq. (1); checked directly for clarity).
  std::vector<std::uint64_t> images;
  for ( std::uint64_t x = 0; x < 16u; ++x )
  {
    images.push_back( emb.permutation[x] );
  }
  std::sort( images.begin(), images.end() );
  EXPECT_EQ( std::adjacent_find( images.begin(), images.end() ), images.end() );
}

TEST( embedding, optimum_beats_bennett_on_reciprocal )
{
  // 2n-1 < 2n = n + m, the Bennett embedding's line count (Thm. 1): the
  // functional flow's qubit advantage (paper Sec. V).
  const unsigned n = 6;
  const auto tts = reciprocal_tts( n );
  EXPECT_LT( embed_optimum( tts ).num_lines, n + static_cast<unsigned>( tts.size() ) );
}

TEST( embedding, injective_function_gets_no_extra_lines )
{
  // 3-bit cyclic increment: a permutation already.
  std::vector<truth_table> outputs( 3, truth_table( 3 ) );
  for ( std::uint64_t x = 0; x < 8; ++x )
  {
    const auto y = ( x + 1u ) & 7u;
    for ( unsigned j = 0; j < 3; ++j )
    {
      if ( ( y >> j ) & 1u )
      {
        outputs[j].set_bit( x, true );
      }
    }
  }
  const auto emb = embed_optimum( outputs );
  EXPECT_EQ( emb.num_lines, 3u );
  EXPECT_EQ( emb.extra_lines, 0u );
  EXPECT_TRUE( is_bijection( emb.permutation ) );
}
