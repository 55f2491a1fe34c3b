#include <gtest/gtest.h>

#include "logic/xmg.hpp"

using namespace qsyn;

TEST( xmg, maj_truth_table )
{
  xmg_network xmg( 3 );
  xmg.add_po( xmg.create_maj( xmg.pi( 0 ), xmg.pi( 1 ), xmg.pi( 2 ) ) );
  const auto tts = xmg.simulate_outputs();
  EXPECT_EQ( tts[0].to_hex(), "e8" );
}

TEST( xmg, and_or_via_maj_constants )
{
  xmg_network xmg( 2 );
  xmg.add_po( xmg.create_and( xmg.pi( 0 ), xmg.pi( 1 ) ) );
  xmg.add_po( xmg.create_or( xmg.pi( 0 ), xmg.pi( 1 ) ) );
  const auto tts = xmg.simulate_outputs();
  EXPECT_EQ( tts[0].to_binary(), "1000" );
  EXPECT_EQ( tts[1].to_binary(), "1110" );
  EXPECT_EQ( xmg.num_maj(), 2u );
  EXPECT_EQ( xmg.num_xor(), 0u );
}

TEST( xmg, xor_node_and_phase_folding )
{
  xmg_network xmg( 2 );
  const auto x = xmg.create_xor( xmg.pi( 0 ), xmg.pi( 1 ) );
  const auto xn = xmg.create_xor( xmg.pi( 0 ) ^ 1u, xmg.pi( 1 ) );
  // Complemented operand folds into the output phase: same node.
  EXPECT_EQ( x >> 1, xn >> 1 );
  EXPECT_EQ( x ^ 1u, xn );
  xmg.add_po( x );
  EXPECT_EQ( xmg.simulate_outputs()[0].to_binary(), "0110" );
}

TEST( xmg, xor_simplifications )
{
  xmg_network xmg( 1 );
  const auto a = xmg.pi( 0 );
  EXPECT_EQ( xmg.create_xor( a, a ), xmg_network::const0 );
  EXPECT_EQ( xmg.create_xor( a, a ^ 1u ), xmg_network::const1 );
  EXPECT_EQ( xmg.create_xor( a, xmg_network::const0 ), a );
  EXPECT_EQ( xmg.create_xor( a, xmg_network::const1 ), a ^ 1u );
}

TEST( xmg, maj_simplifications )
{
  xmg_network xmg( 2 );
  const auto a = xmg.pi( 0 );
  const auto b = xmg.pi( 1 );
  EXPECT_EQ( xmg.create_maj( a, a, b ), a );
  EXPECT_EQ( xmg.create_maj( a, a ^ 1u, b ), b );
  EXPECT_EQ( xmg.create_maj( xmg_network::const0, xmg_network::const1, b ), b );
  EXPECT_EQ( xmg.num_gates(), 0u );
}

TEST( xmg, maj_self_duality_canonicalization )
{
  xmg_network xmg( 3 );
  const auto a = xmg.pi( 0 );
  const auto b = xmg.pi( 1 );
  const auto c = xmg.pi( 2 );
  const auto m = xmg.create_maj( a, b, c );
  const auto m_compl = xmg.create_maj( a ^ 1u, b ^ 1u, c ^ 1u );
  EXPECT_EQ( m ^ 1u, m_compl );
  EXPECT_EQ( xmg.num_maj(), 1u );
}

TEST( xmg, structural_hashing_orders_fanins )
{
  xmg_network xmg( 3 );
  const auto m1 = xmg.create_maj( xmg.pi( 0 ), xmg.pi( 1 ), xmg.pi( 2 ) );
  const auto m2 = xmg.create_maj( xmg.pi( 2 ), xmg.pi( 0 ), xmg.pi( 1 ) );
  EXPECT_EQ( m1, m2 );
  EXPECT_EQ( xmg.num_maj(), 1u );
}

TEST( xmg, mux_semantics )
{
  xmg_network xmg( 3 );
  xmg.add_po( xmg.create_mux( xmg.pi( 0 ), xmg.pi( 1 ), xmg.pi( 2 ) ) );
  const auto tts = xmg.simulate_outputs();
  for ( std::uint64_t i = 0; i < 8; ++i )
  {
    const bool s = i & 1u, t = i & 2u, e = i & 4u;
    EXPECT_EQ( tts[0].get_bit( i ), s ? t : e );
  }
}

TEST( xmg, full_adder_costs_one_maj )
{
  // sum = a ^ b ^ cin (XOR only), carry = maj(a,b,cin) (one MAJ).
  xmg_network xmg( 3 );
  const auto a = xmg.pi( 0 );
  const auto b = xmg.pi( 1 );
  const auto cin = xmg.pi( 2 );
  xmg.add_po( xmg.create_nary_xor( { a, b, cin } ) );
  xmg.add_po( xmg.create_maj( a, b, cin ) );
  EXPECT_EQ( xmg.num_maj(), 1u );
  EXPECT_EQ( xmg.num_xor(), 2u );
  const auto tts = xmg.simulate_outputs();
  for ( std::uint64_t i = 0; i < 8; ++i )
  {
    const unsigned total = static_cast<unsigned>( popcount64( i ) );
    EXPECT_EQ( tts[0].get_bit( i ), total & 1u );
    EXPECT_EQ( tts[1].get_bit( i ), total >= 2u );
  }
}

TEST( xmg, cleanup_preserves_function )
{
  xmg_network xmg( 3 );
  const auto keep = xmg.create_maj( xmg.pi( 0 ), xmg.pi( 1 ), xmg.pi( 2 ) );
  xmg.create_xor( xmg.pi( 0 ), xmg.pi( 1 ) ); // dangling
  xmg.add_po( keep ^ 1u );
  const auto before = xmg.simulate_outputs();
  const auto clean = xmg.cleanup();
  EXPECT_LT( clean.num_gates(), xmg.num_gates() );
  EXPECT_EQ( clean.simulate_outputs(), before );
}

TEST( xmg, pattern_simulation_matches )
{
  xmg_network xmg( 3 );
  xmg.add_po( xmg.create_xor( xmg.create_and( xmg.pi( 0 ), xmg.pi( 1 ) ), xmg.pi( 2 ) ) );
  const auto tts = xmg.simulate_outputs();
  std::vector<std::uint64_t> patterns = { projections[0], projections[1], projections[2] };
  const auto words = xmg.simulate_patterns( patterns );
  for ( std::uint64_t i = 0; i < 8; ++i )
  {
    EXPECT_EQ( ( words[0] >> i ) & 1u, tts[0].get_bit( i ) );
  }
}
