#include <gtest/gtest.h>

#include <random>

#include "common/content_hash.hpp"
#include "common/parallel_chunks.hpp"
#include "core/flows.hpp"
#include "sat/cnf.hpp"
#include "synth/aig_optimize.hpp"
#include "synth/esop_extract.hpp"
#include "synth/exorcism.hpp"
#include "synth/isop.hpp"
#include "verilog/elaborator.hpp"
#include "verilog/generators.hpp"

using namespace qsyn;

static truth_table random_tt( unsigned n, std::uint64_t seed )
{
  std::mt19937_64 rng( seed );
  return truth_table::from_function( n, [&]( std::uint64_t ) { return rng() & 1u; } );
}

/// --- ISOP ------------------------------------------------------------------

class isop_property : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( isop_property, covers_exactly )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 1; seed <= 12; ++seed )
  {
    const auto f = random_tt( n, seed * 131u );
    const auto cubes = isop( f );
    EXPECT_EQ( sop_cover( cubes, n ), f ) << "seed " << seed;
  }
}

TEST_P( isop_property, respects_dont_cares )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 1; seed <= 8; ++seed )
  {
    const auto on = random_tt( n, seed * 17u );
    const auto dc = random_tt( n, seed * 51u ) & ~on;
    const auto cubes = isop( on, dc );
    const auto cover = sop_cover( cubes, n );
    // on <= cover <= on | dc
    EXPECT_TRUE( ( on & ~cover ).is_const0() );
    EXPECT_TRUE( ( cover & ~( on | dc ) ).is_const0() );
  }
}

INSTANTIATE_TEST_SUITE_P( sizes, isop_property, ::testing::Values( 2u, 3u, 4u, 5u, 6u, 8u ) );

TEST( isop, constants )
{
  EXPECT_TRUE( isop( truth_table( 3 ) ).empty() );
  const auto ones = isop( truth_table::constant( 3, true ) );
  ASSERT_EQ( ones.size(), 1u );
  EXPECT_EQ( ones[0].num_literals(), 0 );
}

TEST( isop, cube_lists_are_pinned )
{
  // Every variable count the fixed-width kernel covers, dense and sparse
  // on-sets, with and without don't cares.  The fingerprint was recorded
  // before the kernel moved to fixed-width words: cube order must not move.
  content_hasher h;
  for ( unsigned n = 0; n <= 8u; ++n )
  {
    for ( std::uint64_t seed = 1; seed <= 40; ++seed )
    {
      const auto dense = random_tt( n, 1000u * n + seed );
      const auto sparse = dense & random_tt( n, 2000u * n + seed ) & random_tt( n, 3000u * n + seed );
      const auto dc = random_tt( n, 4000u * n + seed ) & ~sparse;
      for ( const auto& f : { dense, sparse } )
      {
        const auto cubes = isop( f );
        ASSERT_EQ( sop_cover( cubes, n ), f ) << "n = " << n << ", seed " << seed;
        h.update( cubes.size() );
        for ( const auto& c : cubes )
        {
          h.update( c.mask );
          h.update( c.polarity );
        }
      }
      for ( const auto& c : isop( sparse, dc ) )
      {
        h.update( c.mask );
        h.update( c.polarity );
      }
    }
  }
  EXPECT_EQ( h.digest(), 0xb92eceec76ff5f76ull ) << "0x" << std::hex << h.digest();
}

TEST( isop, single_cube_functions_stay_single )
{
  cube c;
  c.add_literal( 0, true );
  c.add_literal( 2, false );
  const auto cubes = isop( c.to_truth_table( 4 ) );
  ASSERT_EQ( cubes.size(), 1u );
  EXPECT_EQ( cubes[0], c );
}

/// --- ESOP extraction -----------------------------------------------------

class esop_property : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( esop_property, psdkro_is_exact )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 1; seed <= 10; ++seed )
  {
    const auto f = random_tt( n, seed * 997u );
    const auto cubes = esop_from_truth_table( f );
    truth_table rebuilt( n );
    for ( const auto& c : cubes )
    {
      rebuilt ^= c.to_truth_table( n );
    }
    EXPECT_EQ( rebuilt, f );
  }
}

TEST_P( esop_property, pprm_is_exact_and_positive )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 3; seed <= 9; ++seed )
  {
    const auto f = random_tt( n, seed * 61u );
    const auto monomials = pprm_from_truth_table( f );
    truth_table rebuilt( n );
    for ( const auto& m : monomials )
    {
      EXPECT_EQ( m.polarity, m.mask ); // positive literals only
      rebuilt ^= m.to_truth_table( n );
    }
    EXPECT_EQ( rebuilt, f );
  }
}

// 0..12 crosses the one-word boundary of the shrinking tables at six
// variables.
INSTANTIATE_TEST_SUITE_P( sizes, esop_property, ::testing::Range( 0u, 13u ) );

TEST( esop_extract, parity_needs_linear_terms )
{
  // PSDKRO of an n-variable parity has exactly n cubes (Davio all the way).
  truth_table parity( 6 );
  for ( unsigned v = 0; v < 6; ++v )
  {
    parity ^= truth_table::projection( 6, v );
  }
  EXPECT_EQ( esop_from_truth_table( parity ).size(), 6u );
}

TEST( esop_extract, from_aig_multi_output )
{
  aig_network aig( 4 );
  aig.add_po( aig.create_xor( aig.pi( 0 ), aig.pi( 1 ) ) );
  aig.add_po( aig.create_and( aig.pi( 2 ), aig.pi( 3 ) ) );
  aig.add_po( aig.create_xor( aig.pi( 0 ), aig.pi( 1 ) ) ); // shared with output 0
  const auto e = esop_from_aig( aig );
  EXPECT_EQ( e.num_inputs, 4u );
  EXPECT_EQ( e.num_outputs, 3u );
  const auto tts = aig.simulate_outputs();
  for ( unsigned o = 0; o < 3; ++o )
  {
    EXPECT_EQ( e.output_truth_table( o ), tts[o] );
  }
  // Shared cubes between outputs 0 and 2 must be merged terms.
  for ( const auto& t : e.terms )
  {
    if ( t.output_mask & 0b001u )
    {
      EXPECT_TRUE( t.output_mask & 0b100u );
    }
  }
}

TEST( esop_extract, from_aig_rejects_more_outputs_than_mask_bits )
{
  // A term's output mask has one bit per output: 64 outputs fit, 65 do not.
  for ( const unsigned num_pos : { 64u, 65u, 70u } )
  {
    aig_network aig( 2 );
    for ( unsigned o = 0; o < num_pos; ++o )
    {
      aig.add_po( aig.pi( o % 2u ) );
    }
    if ( num_pos <= esop::max_outputs )
    {
      const auto e = esop_from_aig( aig );
      ASSERT_EQ( e.num_outputs, num_pos );
      EXPECT_EQ( e.output_truth_table( num_pos - 1u ), aig.simulate_outputs().back() );
      continue;
    }
    try
    {
      esop_from_aig( aig );
      ADD_FAILURE() << num_pos << " outputs were accepted";
    }
    catch ( const std::invalid_argument& e )
    {
      EXPECT_NE( std::string( e.what() ).find( std::to_string( num_pos ) + " outputs exceed the 64-output limit" ),
                 std::string::npos )
          << e.what();
    }
  }
}

TEST( esop_extract, front_half_is_pinned )
{
  // INTDIV/NEWTON(3..16): the optimized AIG's output tables, its ESOP cube
  // list before EXORCISM, and the ESOP flow's costs at p = 0 and 1.  The
  // fingerprints were recorded while simulation and PSDKRO still held one
  // full 2^n-bit table per node and per subfunction; the word-sliced
  // simulator and the shrinking-table PSDKRO must not move them.
  content_hasher tables;
  content_hasher cubes;
  content_hasher costs;
  for ( const auto design : { reciprocal_design::intdiv, reciprocal_design::newton } )
  {
    for ( unsigned n = 3; n <= 16u; ++n )
    {
      const auto mod = verilog::elaborate_verilog( reciprocal_verilog( design, n ) );
      const auto opt = optimize( mod.aig, 2 );
      for ( const auto& tt : opt.simulate_outputs() )
      {
        tables.update( tt.num_vars() );
        for ( const auto b : tt.blocks() )
        {
          tables.update( b );
        }
      }
      const auto e = esop_from_aig( opt );
      cubes.update( e.terms.size() );
      for ( const auto& t : e.terms )
      {
        cubes.update( t.product.mask );
        cubes.update( t.product.polarity );
        cubes.update( t.output_mask );
      }
      for ( const unsigned p : { 0u, 1u } )
      {
        flow_params params;
        params.kind = flow_kind::esop_based;
        params.esop_p = p;
        params.verify = false;
        const auto r = run_flow_on_aig( mod.aig, params );
        ASSERT_EQ( r.status, flow_status::ok ) << r.status_detail;
        costs.update( r.esop_terms );
        costs.update( r.costs.qubits );
        costs.update( r.costs.t_count );
        costs.update( r.costs.gates );
      }
    }
  }
  EXPECT_EQ( tables.digest(), 0xe74c6045dd099e3dull ) << "tables 0x" << std::hex << tables.digest();
  EXPECT_EQ( cubes.digest(), 0xb428879137d40325ull ) << "cubes 0x" << std::hex << cubes.digest();
  EXPECT_EQ( costs.digest(), 0x4af3614458be2dd1ull ) << "costs 0x" << std::hex << costs.digest();
}

/// --- exorcism ---------------------------------------------------------------

TEST( exorcism, cancels_identical_cubes )
{
  esop e;
  e.num_inputs = 3;
  e.num_outputs = 1;
  cube c;
  c.add_literal( 0, true );
  e.terms.push_back( { c, 1u } );
  e.terms.push_back( { c, 1u } );
  exorcism( e );
  EXPECT_EQ( e.num_terms(), 0u );
}

TEST( exorcism, merges_distance_one )
{
  // x0 x1 ^ x0 !x1 = x0
  esop e;
  e.num_inputs = 2;
  e.num_outputs = 1;
  cube c1;
  c1.add_literal( 0, true );
  c1.add_literal( 1, true );
  cube c2;
  c2.add_literal( 0, true );
  c2.add_literal( 1, false );
  e.terms.push_back( { c1, 1u } );
  e.terms.push_back( { c2, 1u } );
  const auto before = e.output_truth_table( 0 );
  exorcism( e );
  EXPECT_EQ( e.num_terms(), 1u );
  EXPECT_EQ( e.terms[0].product.num_literals(), 1 );
  EXPECT_EQ( e.output_truth_table( 0 ), before );
}

TEST( exorcism, merges_subsumed_distance_one )
{
  // x0 ^ x0 x1 = x0 !x1
  esop e;
  e.num_inputs = 2;
  e.num_outputs = 1;
  cube c1;
  c1.add_literal( 0, true );
  cube c2;
  c2.add_literal( 0, true );
  c2.add_literal( 1, true );
  e.terms.push_back( { c1, 1u } );
  e.terms.push_back( { c2, 1u } );
  const auto before = e.output_truth_table( 0 );
  exorcism( e );
  EXPECT_EQ( e.num_terms(), 1u );
  EXPECT_EQ( e.output_truth_table( 0 ), before );
}

class exorcism_property : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( exorcism_property, preserves_function_and_never_grows )
{
  const auto n = GetParam();
  for ( std::uint64_t seed = 1; seed <= 8; ++seed )
  {
    const auto f = random_tt( n, seed * 313u );
    esop e;
    e.num_inputs = n;
    e.num_outputs = 1;
    // Start from the (possibly redundant) minterm expansion.
    for ( std::uint64_t m = 0; m < f.num_bits(); ++m )
    {
      if ( f.get_bit( m ) )
      {
        cube c;
        for ( unsigned v = 0; v < n; ++v )
        {
          c.add_literal( v, ( m >> v ) & 1u );
        }
        e.terms.push_back( { c, 1u } );
      }
    }
    const auto initial = e.num_terms();
    const auto stats = exorcism( e );
    EXPECT_EQ( e.output_truth_table( 0 ), f ) << "seed " << seed;
    EXPECT_LE( e.num_terms(), initial );
    EXPECT_EQ( stats.initial_terms, initial );
    EXPECT_EQ( stats.final_terms, e.num_terms() );
  }
}

INSTANTIATE_TEST_SUITE_P( sizes, exorcism_property, ::testing::Values( 3u, 4u, 5u ) );

TEST( exorcism, reduces_minterm_parity_to_linear_size )
{
  // Parity of 4 vars has 8 minterms; ESOP minimum is 4 single-literal cubes.
  truth_table parity( 4 );
  for ( unsigned v = 0; v < 4; ++v )
  {
    parity ^= truth_table::projection( 4, v );
  }
  esop e;
  e.num_inputs = 4;
  e.num_outputs = 1;
  for ( std::uint64_t m = 0; m < 16; ++m )
  {
    if ( parity.get_bit( m ) )
    {
      cube c;
      for ( unsigned v = 0; v < 4; ++v )
      {
        c.add_literal( v, ( m >> v ) & 1u );
      }
      e.terms.push_back( { c, 1u } );
    }
  }
  exorcism( e, 64 );
  EXPECT_EQ( e.output_truth_table( 0 ), parity );
  EXPECT_LE( e.num_terms(), 5u ); // near-optimal
}

/// --- AIG optimization -------------------------------------------------------

static aig_network medium_test_network()
{
  // The INTDIV(5) divider: non-trivial, redundant, multi-output.
  const auto mod = verilog::elaborate_verilog( verilog::generate_intdiv( 5 ) );
  return mod.aig;
}

TEST( aig_optimize, refactor_preserves_function )
{
  const auto aig = medium_test_network();
  const auto refactored = aig_refactor( aig );
  EXPECT_TRUE( sat::check_equivalence( aig, refactored ).equivalent );
}

TEST( aig_optimize, optimize_shrinks_divider )
{
  const auto aig = medium_test_network();
  const auto optimized = optimize( aig, 2 );
  EXPECT_TRUE( sat::check_equivalence( aig, optimized ).equivalent );
  EXPECT_LE( optimized.num_ands(), aig.num_ands() );
}

TEST( aig_optimize, newton10_result_is_pinned )
{
  // Recorded when `optimize` became refactor-only (no balance pass).
  const auto mod = verilog::elaborate_verilog( verilog::generate_newton( 10 ) );
  const auto hash = optimize( mod.aig, 2 ).content_hash();
  EXPECT_EQ( hash, 0x1fc555bf82b6d7d7ull ) << "0x" << std::hex << hash;
}

TEST( aig_optimize, optimize_and_simulate_outputs_in_a_pool_job_match_a_top_level_call )
{
  // A top-level call plans and simulates on parallel_chunks threads; inside
  // a pool job (a worker, or the inline pool's submitting thread) the same
  // calls run inline.  Both give the same network and the same tables.
  const auto mod = verilog::elaborate_verilog( verilog::generate_newton( 16 ) );
  const auto top = optimize( mod.aig, 2 );
  const auto top_tables = top.simulate_outputs();
  EXPECT_EQ( top.content_hash(), 0xc0b3aa464b79f7b3ull ) << "0x" << std::hex << top.content_hash();
  for ( const unsigned workers : { 4u, 1u } )
  {
    unsigned width = 0;
    aig_network in_job;
    std::vector<truth_table> in_job_tables;
    {
      thread_pool pool( workers );
      pool.submit( [&] {
        width = parallel_chunks( 1000 ).width();
        in_job = optimize( mod.aig, 2 );
        in_job_tables = in_job.simulate_outputs();
      } );
    } // the destructor drains the queue and joins the workers
    EXPECT_EQ( width, 1u ) << workers << " workers";
    EXPECT_EQ( in_job.content_hash(), top.content_hash() ) << workers << " workers";
    EXPECT_EQ( in_job_tables, top_tables ) << workers << " workers";
  }
}

TEST( aig_optimize, optimize_matches_the_explicit_refactor_and_cleanup_loop )
{
  // `optimize` skips a round's cleanup when no AND is dangling; the result
  // must be node-identical to cleaning up after every round.  NEWTON(16)'s
  // first round leaves one dangling AND (72 911 -> 72 910), so that
  // cleanup must still run.
  unsigned dangling_rounds = 0;
  for ( const auto design : { reciprocal_design::intdiv, reciprocal_design::newton } )
  {
    for ( unsigned n = 5; n <= 16u; ++n )
    {
      const auto mod = verilog::elaborate_verilog( reciprocal_verilog( design, n ) );
      constexpr unsigned rounds = 3;
      auto expected = mod.aig.cleanup();
      for ( unsigned r = 0; r < rounds; ++r )
      {
        const auto before = expected.num_ands();
        const auto refactored = aig_refactor( expected );
        expected = refactored.cleanup();
        dangling_rounds += expected.num_ands() < refactored.num_ands() ? 1u : 0u;
        if ( expected.num_ands() >= before )
        {
          break;
        }
      }
      const auto optimized = optimize( mod.aig, rounds );
      const auto context = std::string( design == reciprocal_design::intdiv ? "INTDIV(" : "NEWTON(" ) +
                           std::to_string( n ) + ")";
      EXPECT_EQ( optimized.num_ands(), expected.num_ands() ) << context;
      EXPECT_EQ( optimized.content_hash(), expected.content_hash() ) << context;
    }
  }
  EXPECT_GE( dangling_rounds, 1u );
}

TEST( aig_optimize, refactor_output_is_pinned_where_cuts_cannot_grow )
{
  // r, s and t have cuts that never grow past their two fanins (a and b
  // fan out twice; t reads two PIs), so refactoring leaves them alone
  // without evaluating their cones.  w = x0 & x4 | x0 & !x4 grows to the
  // cut {x0, x4} and collapses to x0.  Recorded before the un-grown cuts
  // returned early.
  aig_network aig( 6 );
  const auto x = [&]( unsigned i ) { return aig.pi( i ); };
  const auto a = aig.create_and( x( 0 ), x( 1 ) );
  const auto b = aig.create_and( x( 2 ), x( 3 ) );
  const auto r = aig.create_and( a, b );
  const auto s = aig.create_and( a, lit_not( b ) );
  const auto t = aig.create_and( x( 4 ), lit_not( x( 5 ) ) );
  const auto w = aig.create_or( aig.create_and( x( 0 ), x( 4 ) ),
                                aig.create_and( x( 0 ), lit_not( x( 4 ) ) ) );
  for ( const auto po : { r, s, t, w, a, lit_not( b ) } )
  {
    aig.add_po( po );
  }
  const auto out = aig_refactor( aig );
  const std::vector<std::pair<aig_lit, aig_lit>> expected_ands = {
      { 6, 8 }, { 2, 4 }, { 14, 16 }, { 15, 16 }, { 10, 13 } };
  ASSERT_EQ( out.num_pis(), 6u );
  ASSERT_EQ( out.num_ands(), expected_ands.size() );
  for ( std::size_t i = 0; i < expected_ands.size(); ++i )
  {
    const auto node = static_cast<std::uint32_t>( out.num_pis() + 1u + i );
    EXPECT_EQ( out.fanin0( node ), expected_ands[i].first ) << "AND " << i;
    EXPECT_EQ( out.fanin1( node ), expected_ands[i].second ) << "AND " << i;
  }
  EXPECT_EQ( out.pos(), ( std::vector<aig_lit>{ 18, 20, 22, 2, 16, 15 } ) );
}

TEST( aig_optimize, newton_design_roundtrip )
{
  const auto mod = verilog::elaborate_verilog( verilog::generate_newton( 4 ) );
  const auto optimized = optimize( mod.aig, 2 );
  EXPECT_TRUE( sat::check_equivalence( mod.aig, optimized ).equivalent );
}
