#include <gtest/gtest.h>

#include <random>

#include "common/content_hash.hpp"
#include "reversible/verify.hpp"
#include "rsynth/hierarchical.hpp"
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

/// Order-sensitive structural fingerprint of an XMG: every node's kind and
/// fanin literals in topological order, then the outputs.
std::uint64_t fingerprint( const xmg_network& xmg )
{
  content_hasher h;
  h.update( xmg.num_pis() );
  h.update( xmg.num_nodes() );
  for ( std::uint32_t n = xmg.num_pis() + 1u; n < xmg.num_nodes(); ++n )
  {
    h.update( static_cast<unsigned>( xmg.kind( n ) ) );
    for ( const auto f : xmg.fanins( n ) )
    {
      h.update_u32( f );
    }
  }
  for ( const auto po : xmg.pos() )
  {
    h.update_u32( po );
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
  // Fingerprints of the area-flow cover, recorded when depth left the
  // comparator: the enumeration order, the sort comparator and the cover
  // extraction must keep producing this exact LUT network.
  const auto aig = optimize( verilog::elaborate_verilog( verilog::generate_newton( 8 ) ).aig, 2 );
  const std::pair<unsigned, std::uint64_t> pins[] = {
      { 3u, 0xd10b5bc7fd1dc4c8ull }, { 4u, 0x8f79063f2f926aafull }, { 6u, 0x1641217081056defull } };
  for ( const auto& [k, pin] : pins )
  {
    lut_map_params params;
    params.cut_size = k;
    const auto fp = fingerprint( lut_map( aig, params ) );
    EXPECT_EQ( fp, pin ) << "k = " << k << ": 0x" << std::hex << fp;
  }
}

TEST( lut_map, compile_cold_shapes_are_pinned )
{
  // The optimized AIG and its 4-LUT cover of the two Table IV shapes that
  // dominate a cold compile, recorded on the refactor-only optimizer and
  // the area-flow cover: cut pruning, cone evaluation and the presized
  // builders must keep producing these exact networks.
  struct pin
  {
    const char* design;
    std::string verilog;
    std::uint64_t optimized;
    std::uint64_t luts;
  };
  const pin pins[] = {
      { "NEWTON(16)", verilog::generate_newton( 16 ), 0xc0b3aa464b79f7b3ull, 0xc3f1b03d37c0251full },
      { "INTDIV(16)", verilog::generate_intdiv( 16 ), 0x08c1572f2eecac1dull, 0x68b221e745ad43a9ull },
  };
  for ( const auto& p : pins )
  {
    const auto aig = optimize( verilog::elaborate_verilog( p.verilog ).aig, 2 );
    const auto hash = aig.content_hash();
    EXPECT_EQ( hash, p.optimized ) << p.design << ": 0x" << std::hex << hash;
    const auto fp = fingerprint( lut_map( aig ) );
    EXPECT_EQ( fp, p.luts ) << p.design << ": 0x" << std::hex << fp;
  }
}

TEST( lut_map, million_and_chain_maps_without_recursion )
{
  // Chains this deep overflowed the stack of a recursive cover walk and of
  // a recursive refactor walk: an AND/OR chain (a million
  // small AND trees, each the input of the next) and a pure AND chain (one
  // AND tree of a million conjuncts).
  constexpr unsigned num_pis = 8;
  aig_network aig( num_pis );
  auto chain = aig.pi( 0 );
  auto conj = aig.pi( 1 );
  for ( unsigned i = 1; i <= 1000000u; ++i )
  {
    const auto x = aig.pi( i % num_pis );
    chain = ( i & 1u ) ? aig.create_and( chain, x ) : aig.create_or( chain, x );
    conj = aig.create_and( conj, x ^ ( ( i / num_pis ) & 1u ) );
  }
  aig.add_po( chain );
  aig.add_po( conj );
  ASSERT_GE( aig.num_ands(), 1999000u );
  const auto optimized = optimize( aig, 2 );
  const auto net = lut_map( optimized );
  ASSERT_EQ( net.outputs.size(), 2u );
  // The rest of the hierarchical tail: XMG resynthesis, synthesis, the
  // exhaustive check against the 8-input chain, and extraction back to an
  // AIG.
  const auto circuit = hierarchical_synthesize( xmg_from_luts( net ) );
  const auto report = verify_against_aig_exhaustive_budgeted( circuit, aig, deadline{} );
  EXPECT_TRUE( report.complete );
  EXPECT_EQ( report.assignments_completed, 1u << num_pis );
  EXPECT_FALSE( report.counterexample.has_value() );
  const auto extracted = circuit_to_aig( circuit );
  ASSERT_EQ( extracted.num_pis(), num_pis );
  ASSERT_EQ( extracted.num_pos(), 2u );
  std::mt19937_64 rng( 7 );
  for ( int trial = 0; trial < 8; ++trial )
  {
    std::vector<bool> inputs( num_pis );
    for ( unsigned b = 0; b < num_pis; ++b )
    {
      inputs[b] = rng() & 1u;
    }
    const auto expected = aig.evaluate( inputs );
    EXPECT_EQ( optimized.evaluate( inputs ), expected );
    EXPECT_EQ( net.evaluate( inputs ), expected );
    EXPECT_EQ( extracted.evaluate( inputs ), expected );
  }
}

TEST( xmg_resynth, newton8_xmg_is_pinned )
{
  // The XMG and the form counters of the resynthesis of optimized
  // NEWTON(8) on the area-flow cover: the per-function form memo must pick
  // the same form, with the same cubes, in the same first-wins order as
  // deciding every LUT afresh.
  const auto aig = optimize( verilog::elaborate_verilog( verilog::generate_newton( 8 ) ).aig, 2 );
  struct pin
  {
    unsigned k;
    std::uint64_t xmg;
    xmg_resynth_stats stats;
  };
  const pin pins[] = {
      { 3u, 0x0b003b34d278768eull, { 4485u, 2402u, 1958u, 125u } },
      { 4u, 0xb18494f26c05e73bull, { 3465u, 1448u, 1900u, 117u } },
      { 6u, 0x8768656a07467776ull, { 3281u, 1374u, 1766u, 141u } },
  };
  for ( const auto& p : pins )
  {
    xmg_resynth_stats stats;
    const auto xmg = xmg_from_aig( aig, p.k, &stats );
    const auto fp = fingerprint( xmg );
    EXPECT_EQ( fp, p.xmg ) << "k = " << p.k << ": 0x" << std::hex << fp;
    EXPECT_EQ( stats.luts, p.stats.luts ) << "k = " << p.k;
    EXPECT_EQ( stats.direct_forms, p.stats.direct_forms ) << "k = " << p.k;
    EXPECT_EQ( stats.pprm_forms, p.stats.pprm_forms ) << "k = " << p.k;
    EXPECT_EQ( stats.isop_forms, p.stats.isop_forms ) << "k = " << p.k;
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
