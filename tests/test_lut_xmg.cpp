#include <gtest/gtest.h>

#include <random>

#include "common/content_hash.hpp"
#include "synth/aig_optimize.hpp"
#include "synth/lut_map.hpp"
#include "synth/xmg_resynth.hpp"
#include "verilog/elaborator.hpp"
#include "verilog/generators.hpp"

using namespace qsyn;

namespace
{

aig_network random_aig( unsigned num_pis, unsigned num_gates, std::uint64_t seed )
{
  std::mt19937_64 rng( seed );
  aig_network aig( num_pis );
  std::vector<aig_lit> pool;
  for ( unsigned i = 0; i < num_pis; ++i )
  {
    pool.push_back( aig.pi( i ) );
  }
  for ( unsigned g = 0; g < num_gates; ++g )
  {
    const auto a = pool[rng() % pool.size()] ^ static_cast<aig_lit>( rng() & 1u );
    const auto b = pool[rng() % pool.size()] ^ static_cast<aig_lit>( rng() & 1u );
    pool.push_back( aig.create_and( a, b ) );
  }
  for ( int o = 0; o < 3; ++o )
  {
    aig.add_po( pool[pool.size() - 1u - static_cast<std::size_t>( o ) % pool.size()] );
  }
  return aig;
}

bool networks_equal_by_simulation( const aig_network& aig, const lut_network& luts )
{
  if ( aig.num_pis() > 12u )
  {
    return false;
  }
  for ( std::uint64_t i = 0; i < ( std::uint64_t{ 1 } << aig.num_pis() ); ++i )
  {
    std::vector<bool> inputs( aig.num_pis() );
    for ( unsigned b = 0; b < aig.num_pis(); ++b )
    {
      inputs[b] = ( i >> b ) & 1u;
    }
    if ( aig.evaluate( inputs ) != luts.evaluate( inputs ) )
    {
      return false;
    }
  }
  return true;
}

/// Order-sensitive fingerprint of a LUT network: every LUT's fanins and
/// function blocks, then the outputs.
std::uint64_t fingerprint( const lut_network& net )
{
  content_hasher h;
  h.update( net.num_pis );
  for ( const auto& lut : net.luts )
  {
    h.update( lut.fanins.size() );
    for ( const auto f : lut.fanins )
    {
      h.update_u32( f );
    }
    h.update( lut.function.num_vars() );
    for ( const auto b : lut.function.blocks() )
    {
      h.update( b );
    }
  }
  for ( const auto& out : net.outputs )
  {
    h.update_u32( out.signal );
    h.update( out.complemented ? 1u : 0u );
  }
  return h.digest();
}

bool xmg_equals_aig( const aig_network& aig, const xmg_network& xmg )
{
  for ( std::uint64_t i = 0; i < ( std::uint64_t{ 1 } << aig.num_pis() ); ++i )
  {
    std::vector<bool> inputs( aig.num_pis() );
    for ( unsigned b = 0; b < aig.num_pis(); ++b )
    {
      inputs[b] = ( i >> b ) & 1u;
    }
    if ( aig.evaluate( inputs ) != xmg.evaluate( inputs ) )
    {
      return false;
    }
  }
  return true;
}

} // namespace

TEST( lut_map, covers_simple_network )
{
  aig_network aig( 4 );
  aig.add_po( aig.create_xor( aig.create_and( aig.pi( 0 ), aig.pi( 1 ) ),
                              aig.create_or( aig.pi( 2 ), aig.pi( 3 ) ) ) );
  const auto net = lut_map( aig );
  EXPECT_TRUE( networks_equal_by_simulation( aig, net ) );
  // A 4-input function fits one 4-LUT.
  EXPECT_EQ( net.luts.size(), 1u );
  EXPECT_LE( net.luts[0].fanins.size(), 4u );
}

TEST( lut_map, cut_size_limits_fanins )
{
  const auto aig = random_aig( 8, 40, 5 );
  for ( const unsigned k : { 2u, 3u, 4u, 5u, 6u } )
  {
    lut_map_params params;
    params.cut_size = k;
    const auto net = lut_map( aig, params );
    for ( const auto& lut : net.luts )
    {
      EXPECT_LE( lut.fanins.size(), k );
    }
    EXPECT_TRUE( networks_equal_by_simulation( aig, net ) );
  }
}

TEST( lut_map, constant_and_pi_outputs )
{
  aig_network aig( 2 );
  aig.add_po( aig_network::const1 );
  aig.add_po( aig.pi( 1 ) );
  aig.add_po( lit_not( aig.pi( 0 ) ) );
  const auto net = lut_map( aig );
  EXPECT_TRUE( networks_equal_by_simulation( aig, net ) );
}

class lut_map_random : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( lut_map_random, equivalence_on_random_networks )
{
  const auto seed = GetParam();
  const auto aig = random_aig( 7, 60, seed );
  const auto net = lut_map( aig );
  EXPECT_TRUE( networks_equal_by_simulation( aig, net ) );
}

INSTANTIATE_TEST_SUITE_P( seeds, lut_map_random, ::testing::Range( 1u, 9u ) );

TEST( lut_map, newton8_mapping_is_pinned )
{
  // Fingerprints recorded before the cut kernels moved to fixed-width words:
  // the enumeration order, the sort comparator and the cover extraction
  // must keep producing this exact LUT network.
  const auto aig = optimize( verilog::elaborate_verilog( verilog::generate_newton( 8 ) ).aig, 2 );
  const std::pair<unsigned, std::uint64_t> pins[] = {
      { 3u, 0x67577bcb60a6a5c7ull }, { 4u, 0xe36ea6d0e49d8069ull }, { 6u, 0x89a98e9a74bcbc68ull } };
  for ( const auto& [k, pin] : pins )
  {
    lut_map_params params;
    params.cut_size = k;
    const auto fp = fingerprint( lut_map( aig, params ) );
    EXPECT_EQ( fp, pin ) << "k = " << k << ": 0x" << std::hex << fp;
  }
}

TEST( lut_map, million_and_chain_maps_without_recursion )
{
  // A chain this deep overflowed the stack of a recursive cover walk.
  constexpr unsigned num_pis = 8;
  aig_network aig( num_pis );
  auto chain = aig.pi( 0 );
  for ( unsigned i = 1; i <= 1000000u; ++i )
  {
    const auto x = aig.pi( i % num_pis );
    chain = ( i & 1u ) ? aig.create_and( chain, x ) : aig.create_or( chain, x );
  }
  aig.add_po( chain );
  ASSERT_GE( aig.num_ands(), 1000000u );
  const auto net = lut_map( aig );
  ASSERT_EQ( net.outputs.size(), 1u );
  std::mt19937_64 rng( 7 );
  for ( int trial = 0; trial < 8; ++trial )
  {
    std::vector<bool> inputs( num_pis );
    for ( unsigned b = 0; b < num_pis; ++b )
    {
      inputs[b] = rng() & 1u;
    }
    EXPECT_EQ( aig.evaluate( inputs ), net.evaluate( inputs ) );
  }
}

TEST( xmg_resynth, detects_parity_luts )
{
  // A 3-input XOR chain should map to XOR nodes with zero MAJ cost.
  aig_network aig( 3 );
  aig.add_po( aig.create_xor( aig.create_xor( aig.pi( 0 ), aig.pi( 1 ) ), aig.pi( 2 ) ) );
  xmg_resynth_stats stats;
  const auto xmg = xmg_from_aig( aig, 4, &stats );
  EXPECT_TRUE( xmg_equals_aig( aig, xmg ) );
  EXPECT_EQ( xmg.num_maj(), 0u );
  EXPECT_GE( stats.direct_forms, 1u );
}

TEST( xmg_resynth, detects_maj_lut )
{
  aig_network aig( 3 );
  aig.add_po( aig.create_maj( aig.pi( 0 ), lit_not( aig.pi( 1 ) ), aig.pi( 2 ) ) );
  const auto xmg = xmg_from_aig( aig );
  EXPECT_TRUE( xmg_equals_aig( aig, xmg ) );
  EXPECT_EQ( xmg.num_maj(), 1u );
}

TEST( xmg_resynth, full_adder_is_one_maj )
{
  // sum + carry of a full adder: the classic showcase for XMGs.
  aig_network aig( 3 );
  const auto a = aig.pi( 0 );
  const auto b = aig.pi( 1 );
  const auto c = aig.pi( 2 );
  aig.add_po( aig.create_xor( aig.create_xor( a, b ), c ) );
  aig.add_po( aig.create_maj( a, b, c ) );
  const auto xmg = xmg_from_aig( aig );
  EXPECT_TRUE( xmg_equals_aig( aig, xmg ) );
  EXPECT_LE( xmg.num_maj(), 1u );
}

class xmg_resynth_random : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( xmg_resynth_random, equivalence_on_random_networks )
{
  const auto seed = GetParam();
  const auto aig = random_aig( 6, 45, seed * 23u );
  const auto xmg = xmg_from_aig( aig );
  EXPECT_TRUE( xmg_equals_aig( aig, xmg ) );
}

INSTANTIATE_TEST_SUITE_P( seeds, xmg_resynth_random, ::testing::Range( 1u, 11u ) );

TEST( xmg_resynth, intdiv_design_equivalence )
{
  const auto mod = verilog::elaborate_verilog( verilog::generate_intdiv( 5 ) );
  const auto xmg = xmg_from_aig( mod.aig );
  EXPECT_TRUE( xmg_equals_aig( mod.aig, xmg ) );
}

TEST( xmg_resynth, ripple_adder_is_maj_xor_friendly )
{
  // w-bit ripple adder: w MAJ (carries) + XORs; the resynthesis should get
  // close to that bound from the AIG's 4-feasible cuts.
  const auto mod = verilog::elaborate_verilog( R"(
    module add(input [5:0] a, input [5:0] b, output [5:0] y);
      assign y = a + b;
    endmodule
  )" );
  const auto xmg = xmg_from_aig( mod.aig );
  EXPECT_TRUE( xmg_equals_aig( mod.aig, xmg ) );
  // 6-bit adder: carries need ~2-3 MAJ each with 4-input cuts, far below
  // the ~5 AND/OR nodes per bit a plain AIG mapping would pay.
  EXPECT_LE( xmg.num_maj(), 18u );
  EXPECT_GE( xmg.num_xor(), 3u );
}
