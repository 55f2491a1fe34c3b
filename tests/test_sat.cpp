#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <random>

#include "common/bits.hpp"
#include "sat/cnf.hpp"
#include "sat/solver.hpp"

using namespace qsyn;
using namespace qsyn::sat;

TEST( sat, trivially_satisfiable )
{
  solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  s.add_clause( { pos_lit( a ), pos_lit( b ) } );
  EXPECT_EQ( s.solve(), result::satisfiable );
  EXPECT_TRUE( s.model_value( a ) || s.model_value( b ) );
}

TEST( sat, empty_instance_is_sat )
{
  solver s;
  EXPECT_EQ( s.solve(), result::satisfiable );
}

TEST( sat, unit_propagation_chain )
{
  solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  const auto c = s.new_var();
  s.add_clause( { pos_lit( a ) } );
  s.add_clause( { neg_lit( a ), pos_lit( b ) } );
  s.add_clause( { neg_lit( b ), pos_lit( c ) } );
  EXPECT_EQ( s.solve(), result::satisfiable );
  EXPECT_TRUE( s.model_value( a ) );
  EXPECT_TRUE( s.model_value( b ) );
  EXPECT_TRUE( s.model_value( c ) );
}

TEST( sat, contradiction_unsat )
{
  solver s;
  const auto a = s.new_var();
  s.add_clause( { pos_lit( a ) } );
  EXPECT_FALSE( s.add_clause( { neg_lit( a ) } ) );
  EXPECT_EQ( s.solve(), result::unsatisfiable );
}

TEST( sat, xor_chain_unsat )
{
  // (a xor b)(b xor c)(c xor a) forced odd: encode xor via 2 clauses each
  // plus parity contradiction a xor a = 1.
  solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  const auto c = s.new_var();
  const auto add_xor_true = [&]( std::uint32_t x, std::uint32_t y ) {
    s.add_clause( { pos_lit( x ), pos_lit( y ) } );
    s.add_clause( { neg_lit( x ), neg_lit( y ) } );
  };
  add_xor_true( a, b );
  add_xor_true( b, c );
  add_xor_true( c, a );
  EXPECT_EQ( s.solve(), result::unsatisfiable );
}

TEST( sat, pigeonhole_3_into_2 )
{
  // Pigeons p in {0,1,2}, holes h in {0,1}; var(p,h).
  solver s;
  std::uint32_t v[3][2];
  for ( auto& row : v )
  {
    for ( auto& x : row )
    {
      x = s.new_var();
    }
  }
  for ( int p = 0; p < 3; ++p )
  {
    s.add_clause( { pos_lit( v[p][0] ), pos_lit( v[p][1] ) } );
  }
  for ( int h = 0; h < 2; ++h )
  {
    for ( int p1 = 0; p1 < 3; ++p1 )
    {
      for ( int p2 = p1 + 1; p2 < 3; ++p2 )
      {
        s.add_clause( { neg_lit( v[p1][h] ), neg_lit( v[p2][h] ) } );
      }
    }
  }
  EXPECT_EQ( s.solve(), result::unsatisfiable );
}

TEST( sat, assumptions_select_branch )
{
  solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  s.add_clause( { pos_lit( a ), pos_lit( b ) } );
  s.add_clause( { neg_lit( a ), neg_lit( b ) } );
  EXPECT_EQ( s.solve( { pos_lit( a ) } ), result::satisfiable );
  EXPECT_TRUE( s.model_value( a ) );
  EXPECT_FALSE( s.model_value( b ) );
  EXPECT_EQ( s.solve( { pos_lit( a ), pos_lit( b ) } ), result::unsatisfiable );
  // Solver remains usable after UNSAT under assumptions.
  EXPECT_EQ( s.solve( { neg_lit( a ) } ), result::satisfiable );
  EXPECT_TRUE( s.model_value( b ) );
}

TEST( sat, random_3cnf_vs_brute_force )
{
  std::mt19937_64 rng( 7 );
  for ( int instance = 0; instance < 30; ++instance )
  {
    const unsigned num_vars = 8;
    const unsigned num_clauses = 28;
    std::vector<std::vector<literal>> clauses;
    for ( unsigned c = 0; c < num_clauses; ++c )
    {
      std::vector<literal> clause;
      for ( int k = 0; k < 3; ++k )
      {
        const auto var = static_cast<std::uint32_t>( rng() % num_vars );
        clause.push_back( ( rng() & 1u ) ? pos_lit( var ) : neg_lit( var ) );
      }
      clauses.push_back( clause );
    }
    // Brute force.
    bool brute_sat = false;
    for ( std::uint32_t assign = 0; assign < ( 1u << num_vars ) && !brute_sat; ++assign )
    {
      bool all = true;
      for ( const auto& clause : clauses )
      {
        bool any = false;
        for ( const auto l : clause )
        {
          const bool val = ( assign >> lit_var( l ) ) & 1u;
          if ( val != lit_sign( l ) )
          {
            any = true;
            break;
          }
        }
        if ( !any )
        {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    solver s;
    for ( unsigned v = 0; v < num_vars; ++v )
    {
      s.new_var();
    }
    bool consistent = true;
    for ( const auto& clause : clauses )
    {
      consistent = s.add_clause( clause ) && consistent;
    }
    const auto res = s.solve();
    EXPECT_EQ( res == result::satisfiable, brute_sat ) << "instance " << instance;
    if ( res == result::satisfiable )
    {
      // Verify the model.
      for ( const auto& clause : clauses )
      {
        bool any = false;
        for ( const auto l : clause )
        {
          if ( s.model_value( lit_var( l ) ) != lit_sign( l ) )
          {
            any = true;
          }
        }
        EXPECT_TRUE( any );
      }
    }
  }
}

TEST( sat, clause_deletion_on_off_agreement )
{
  // Learned-clause deletion is performance-only.  Random CNF made of 5-XOR
  // constraints in clause form (16 clauses each; hard for resolution, so
  // solves run through restarts and, at reduce base 8, database
  // reductions) must get the brute-force verdict with deletion on and off,
  // on a plain solve and under assumptions on the same solver.
  constexpr unsigned num_vars = 20;
  constexpr unsigned xor_width = 5;
  constexpr unsigned num_xors = 20;
  constexpr std::size_t num_words = ( std::size_t{ 1 } << num_vars ) / 64u;
  // Value of `l` on the 64 assignments of word k (bit j = assignment 64k+j).
  const auto lit_word = []( literal l, std::size_t k ) {
    const auto v = lit_var( l );
    const std::uint64_t value =
        v < 6u ? projections[v] : ( ( k >> ( v - 6u ) ) & 1u ) ? ~std::uint64_t{ 0 } : 0u;
    return lit_sign( l ) ? ~value : value;
  };
  std::mt19937_64 rng( 51 );
  std::uint64_t deleted = 0;
  for ( int instance = 0; instance < 10; ++instance )
  {
    std::vector<std::vector<literal>> clauses;
    for ( unsigned x = 0; x < num_xors; ++x )
    {
      std::uint32_t vars[xor_width];
      for ( unsigned k = 0; k < xor_width; ++k )
      {
        do
        {
          vars[k] = static_cast<std::uint32_t>( rng() % num_vars );
        } while ( std::find( vars, vars + k, vars[k] ) != vars + k );
      }
      // The XOR of the variables equals `parity`: forbid each
      // wrong-parity assignment with one clause.
      const unsigned parity = rng() & 1u;
      for ( unsigned m = 0; m < ( 1u << xor_width ); ++m )
      {
        if ( static_cast<unsigned>( std::popcount( m ) & 1 ) == parity )
        {
          continue;
        }
        std::vector<literal> clause;
        for ( unsigned k = 0; k < xor_width; ++k )
        {
          clause.push_back( ( m >> k ) & 1u ? neg_lit( vars[k] ) : pos_lit( vars[k] ) );
        }
        clauses.push_back( clause );
      }
    }
    // Brute force, 64 assignments per word: bit set = all clauses hold.
    std::vector<std::uint64_t> models( num_words, ~std::uint64_t{ 0 } );
    for ( std::size_t k = 0; k < num_words; ++k )
    {
      for ( const auto& clause : clauses )
      {
        std::uint64_t any = 0;
        for ( const auto l : clause )
        {
          any |= lit_word( l, k );
        }
        models[k] &= any;
      }
    }
    std::vector<std::vector<literal>> queries = { {} };
    for ( int q = 0; q < 3; ++q )
    {
      const auto v0 = static_cast<std::uint32_t>( rng() % num_vars );
      const auto v1 = static_cast<std::uint32_t>( ( v0 + 1u + rng() % ( num_vars - 1u ) ) % num_vars );
      queries.push_back( { ( rng() & 1u ) ? pos_lit( v0 ) : neg_lit( v0 ),
                           ( rng() & 1u ) ? pos_lit( v1 ) : neg_lit( v1 ) } );
    }
    for ( const bool deletion : { true, false } )
    {
      solver s;
      s.set_clause_deletion( deletion );
      s.set_reduce_base( 8 );
      for ( unsigned v = 0; v < num_vars; ++v )
      {
        s.new_var();
      }
      for ( const auto& clause : clauses )
      {
        s.add_clause( clause );
      }
      for ( const auto& assumptions : queries )
      {
        bool expected = false;
        for ( std::size_t k = 0; k < num_words && !expected; ++k )
        {
          auto word = models[k];
          for ( const auto l : assumptions )
          {
            word &= lit_word( l, k );
          }
          expected = word != 0u;
        }
        const auto res = s.solve( assumptions );
        ASSERT_NE( res, result::unknown );
        EXPECT_EQ( res == result::satisfiable, expected )
            << "instance " << instance << " deletion " << deletion;
        if ( res != result::satisfiable )
        {
          continue;
        }
        // The model satisfies every clause and every assumption.
        const auto holds = [&]( literal l ) { return s.model_value( lit_var( l ) ) != lit_sign( l ); };
        for ( const auto& clause : clauses )
        {
          EXPECT_TRUE( std::any_of( clause.begin(), clause.end(), holds ) );
        }
        EXPECT_TRUE( std::all_of( assumptions.begin(), assumptions.end(), holds ) );
      }
      if ( deletion )
      {
        deleted += s.num_learnts_deleted();
      }
      else
      {
        EXPECT_EQ( s.num_learnts_deleted(), 0u );
      }
    }
  }
  EXPECT_GT( deleted, 0u ); // reductions actually ran
}

TEST( cec, equivalent_networks )
{
  aig_network a( 3 );
  a.add_po( a.create_maj( a.pi( 0 ), a.pi( 1 ), a.pi( 2 ) ) );
  aig_network b( 3 );
  // maj via mux: s ? (t | e) : (t & e) with s = pi0
  const auto t_or_e = b.create_or( b.pi( 1 ), b.pi( 2 ) );
  const auto t_and_e = b.create_and( b.pi( 1 ), b.pi( 2 ) );
  b.add_po( b.create_mux( b.pi( 0 ), t_or_e, t_and_e ) );
  const auto result = check_equivalence( a, b );
  EXPECT_TRUE( result.equivalent );
}

TEST( cec, inequivalent_with_counterexample )
{
  aig_network a( 2 );
  a.add_po( a.create_and( a.pi( 0 ), a.pi( 1 ) ) );
  aig_network b( 2 );
  b.add_po( b.create_or( b.pi( 0 ), b.pi( 1 ) ) );
  const auto result = check_equivalence( a, b );
  EXPECT_FALSE( result.equivalent );
  ASSERT_TRUE( result.counterexample.has_value() );
  // The counterexample must actually distinguish the networks.
  const auto va = a.evaluate( *result.counterexample );
  const auto vb = b.evaluate( *result.counterexample );
  EXPECT_NE( va, vb );
}

TEST( cec, multi_output_differs_in_one )
{
  aig_network a( 2 );
  a.add_po( a.create_xor( a.pi( 0 ), a.pi( 1 ) ) );
  a.add_po( a.create_and( a.pi( 0 ), a.pi( 1 ) ) );
  aig_network b( 2 );
  b.add_po( b.create_xor( b.pi( 0 ), b.pi( 1 ) ) );
  b.add_po( b.create_and( b.pi( 0 ), lit_not( b.pi( 1 ) ) ) );
  EXPECT_FALSE( check_equivalence( a, b ).equivalent );
}

TEST( cec, counterexample_round_trips_through_both_aigs )
{
  // Randomized guard against polarity/index bugs in encode_aig: build
  // random AIG pairs, brute-force their true equivalence over all inputs,
  // and when the solver reports a counterexample, feed it back through BOTH
  // networks and require the outputs to actually differ.
  std::mt19937_64 rng( 321 );
  for ( int instance = 0; instance < 40; ++instance )
  {
    const unsigned num_pis = 3u + rng() % 3u;
    const unsigned num_pos = 1u + rng() % 3u;
    const auto random_aig = [&]( std::uint64_t seed ) {
      std::mt19937_64 gen( seed );
      aig_network aig( num_pis );
      std::vector<aig_lit> pool;
      for ( unsigned i = 0; i < num_pis; ++i )
      {
        pool.push_back( aig.pi( i ) );
      }
      for ( int k = 0; k < 12; ++k )
      {
        const auto a = pool[gen() % pool.size()] ^ ( gen() & 1u );
        const auto b = pool[gen() % pool.size()] ^ ( gen() & 1u );
        pool.push_back( gen() & 1u ? aig.create_xor( a, b ) : aig.create_and( a, b ) );
      }
      for ( unsigned o = 0; o < num_pos; ++o )
      {
        aig.add_po( pool[gen() % pool.size()] ^ ( gen() & 1u ) );
      }
      return aig;
    };
    const auto a = random_aig( rng() );
    // Half the instances compare an AIG against an independently built one,
    // half against a PO-perturbed copy of itself (near-equivalent pairs are
    // the polarity-sensitive case).
    auto b = ( instance & 1 ) ? random_aig( rng() ) : a;
    if ( !( instance & 1 ) && ( rng() & 1u ) )
    {
      b.set_po( static_cast<unsigned>( rng() % num_pos ), b.po( 0 ) ^ 1u );
    }

    bool brute_equivalent = true;
    std::vector<bool> inputs( num_pis );
    for ( std::uint32_t x = 0; x < ( 1u << num_pis ) && brute_equivalent; ++x )
    {
      for ( unsigned i = 0; i < num_pis; ++i )
      {
        inputs[i] = ( x >> i ) & 1u;
      }
      brute_equivalent = a.evaluate( inputs ) == b.evaluate( inputs );
    }

    const auto result = check_equivalence( a, b );
    EXPECT_EQ( result.equivalent, brute_equivalent ) << "instance " << instance;
    if ( !result.equivalent )
    {
      ASSERT_TRUE( result.counterexample.has_value() ) << "instance " << instance;
      const auto va = a.evaluate( *result.counterexample );
      const auto vb = b.evaluate( *result.counterexample );
      EXPECT_NE( va, vb ) << "instance " << instance;
    }
  }
}

TEST( cec, complemented_po_of_identical_structure_is_caught )
{
  // The pure polarity bug: identical AND structure, one complemented PO.
  // The miter must find a counterexample and it must round-trip.
  aig_network a( 2 );
  a.add_po( a.create_and( a.pi( 0 ), a.pi( 1 ) ) );
  aig_network b( 2 );
  b.add_po( lit_not( b.create_and( b.pi( 0 ), b.pi( 1 ) ) ) );
  const auto result = check_equivalence( a, b );
  ASSERT_FALSE( result.equivalent );
  ASSERT_TRUE( result.counterexample.has_value() );
  EXPECT_NE( a.evaluate( *result.counterexample ), b.evaluate( *result.counterexample ) );
}

TEST( cec, constant_output_pair )
{
  // Constant-false vs constant-true POs exercise the encoded constant node.
  aig_network a( 1 );
  a.add_po( aig_network::const0 );
  aig_network b( 1 );
  b.add_po( aig_network::const1 );
  const auto result = check_equivalence( a, b );
  ASSERT_FALSE( result.equivalent );
  ASSERT_TRUE( result.counterexample.has_value() );
  EXPECT_NE( a.evaluate( *result.counterexample ), b.evaluate( *result.counterexample ) );

  aig_network c( 1 );
  c.add_po( aig_network::const0 );
  aig_network d( 1 );
  d.add_po( d.create_and( d.pi( 0 ), lit_not( d.pi( 0 ) ) ) );
  EXPECT_TRUE( check_equivalence( c, d ).equivalent );
}

TEST( cec, interface_mismatch_throws )
{
  aig_network a( 2 );
  a.add_po( a.pi( 0 ) );
  aig_network b( 3 );
  b.add_po( b.pi( 0 ) );
  EXPECT_THROW( check_equivalence( a, b ), std::invalid_argument );
}

// --- incremental engine ------------------------------------------------------
//
// The SAT tier only hands the engine designs with more than 16 inputs
// (narrower ones are enumerated), but the engine itself accepts any width;
// these suites pin its contract against exhaustive simulation.

#include "sat/incremental.hpp"

namespace
{

/// Random multi-output AIG over `num_pis` inputs (XOR/AND mix, random
/// complementations) — the generator of the `cec` round-trip test, shared
/// by the incremental-engine suites.  `sop_xor` builds every XOR as
/// (a & !b) | (!a & b), which shares no AND node with `create_xor`'s
/// decomposition: the same seed then gives an equivalent network with
/// different structure.
aig_network random_test_aig( std::uint64_t seed, unsigned num_pis, unsigned num_pos,
                             int num_gates = 12, bool sop_xor = false )
{
  std::mt19937_64 gen( seed );
  aig_network aig( num_pis );
  const auto xor2 = [&]( aig_lit a, aig_lit b ) {
    return sop_xor ? aig.create_or( aig.create_and( a, lit_not( b ) ),
                                    aig.create_and( lit_not( a ), b ) )
                   : aig.create_xor( a, b );
  };
  std::vector<aig_lit> pool;
  for ( unsigned i = 0; i < num_pis; ++i )
  {
    pool.push_back( aig.pi( i ) );
  }
  for ( int k = 0; k < num_gates; ++k )
  {
    const auto a = pool[gen() % pool.size()] ^ ( gen() & 1u );
    const auto b = pool[gen() % pool.size()] ^ ( gen() & 1u );
    pool.push_back( gen() & 1u ? xor2( a, b ) : aig.create_and( a, b ) );
  }
  for ( unsigned o = 0; o < num_pos; ++o )
  {
    aig.add_po( pool[gen() % pool.size()] ^ ( gen() & 1u ) );
  }
  return aig;
}

/// XOR of a chain over all inputs and a balanced tree over the inputs
/// rotated left by `rotation`: constant 0, but no window proof reaches
/// across the two parities, so only the solver can show it.  A `flip`
/// other than const0 is XORed into the tree's first leaf, which makes the
/// result equal `flip` instead, buried where propagation does not see it.
aig_lit parity_zero( aig_network& aig, unsigned rotation = 0,
                     aig_lit flip = aig_network::const0 )
{
  const auto n = aig.num_pis();
  auto chain = aig.pi( 0 );
  std::vector<aig_lit> level = { aig.create_xor( aig.pi( rotation % n ), flip ) };
  for ( unsigned i = 1; i < n; ++i )
  {
    chain = aig.create_xor( chain, aig.pi( i ) );
    level.push_back( aig.pi( ( i + rotation ) % n ) );
  }
  while ( level.size() > 1u )
  {
    std::vector<aig_lit> next;
    for ( std::size_t i = 0; i + 1u < level.size(); i += 2 )
    {
      next.push_back( aig.create_xor( level[i], level[i + 1u] ) );
    }
    if ( level.size() % 2u != 0u )
    {
      next.push_back( level.back() );
    }
    level = std::move( next );
  }
  return aig.create_xor( chain, level[0] );
}

/// `aig` with every output XORed with `parity_zero`: the same function,
/// but only the solver can prove the outputs.
aig_network with_parity_pair( aig_network aig )
{
  const auto zero = parity_zero( aig );
  for ( unsigned o = 0; o < aig.num_pos(); ++o )
  {
    aig.set_po( o, aig.create_xor( aig.po( o ), zero ) );
  }
  return aig;
}

/// Exhaustive reference: nullopt if equivalent, else the lowest-indexed
/// output whose truth tables differ.
std::optional<unsigned> lowest_differing_output( const aig_network& a, const aig_network& b )
{
  const auto ta = a.simulate_outputs();
  const auto tb = b.simulate_outputs();
  for ( unsigned o = 0; o < ta.size(); ++o )
  {
    if ( ta[o].blocks() != tb[o].blocks() )
    {
      return o;
    }
  }
  return std::nullopt;
}

/// Checks one engine outcome against the exhaustive reference: verdict,
/// lowest-failing-output index, and counterexample round-trip through both
/// networks at exactly that output.
void expect_matches_brute_force( const sat::cec_outcome& outcome, const aig_network& a,
                                 const aig_network& b, const char* context )
{
  const auto expected = lowest_differing_output( a, b );
  EXPECT_EQ( outcome.equivalent, !expected.has_value() ) << context;
  if ( expected )
  {
    ASSERT_TRUE( outcome.failing_output.has_value() ) << context;
    EXPECT_EQ( *outcome.failing_output, *expected ) << context;
    ASSERT_TRUE( outcome.counterexample.has_value() ) << context;
    const auto va = a.evaluate( *outcome.counterexample );
    const auto vb = b.evaluate( *outcome.counterexample );
    EXPECT_NE( va[*expected], vb[*expected] ) << context;
  }
}

} // namespace

TEST( incremental, matches_brute_force )
{
  // Every output goes through structural hashing, window proofs, the
  // batched miter and ordered per-output miters on the persistent solver;
  // verdicts,
  // failing-output indices and counterexamples must match brute force.
  std::mt19937_64 rng( 23 );
  for ( int instance = 0; instance < 60; ++instance )
  {
    const unsigned num_pis = 3u + rng() % 4u;
    const unsigned num_pos = 1u + rng() % 4u;
    const auto a = random_test_aig( rng(), num_pis, num_pos );
    auto b = ( instance % 3 == 0 ) ? random_test_aig( rng(), num_pis, num_pos ) : a;
    if ( instance % 3 == 1 )
    {
      b.set_po( static_cast<unsigned>( rng() % num_pos ), b.po( 0 ) ^ 1u );
    }
    sat::incremental_cec engine;
    const auto outcome = engine.check( a, b );
    expect_matches_brute_force( outcome, a, b, "fresh engine" );
  }
}

TEST( incremental, matches_brute_force_above_the_enumeration_bound )
{
  // 17- and 18-input miters, the widths the SAT tier actually hands the
  // engine: equivalent pairs with different structure, and the same pairs
  // with one output flipped.  One persistent engine sees them all.
  sat::incremental_cec engine;
  std::mt19937_64 rng( 1017 );
  std::size_t differing = 0;
  for ( const unsigned num_pis : { 17u, 18u } )
  {
    for ( int instance = 0; instance < 6; ++instance )
    {
      const unsigned num_pos = 2u + rng() % 3u;
      const auto seed = rng();
      const auto a = random_test_aig( seed, num_pis, num_pos, 48 );
      auto b = with_parity_pair( random_test_aig( seed, num_pis, num_pos, 48, true ) );
      const auto context = std::to_string( num_pis ) + " inputs, instance " +
                           std::to_string( instance );
      expect_matches_brute_force( engine.check( a, b ), a, b, context.c_str() );
      const auto flipped = static_cast<unsigned>( rng() % num_pos );
      b.set_po( flipped, lit_not( b.po( flipped ) ) );
      const auto outcome = engine.check( a, b );
      expect_matches_brute_force( outcome, a, b, ( context + ", flipped" ).c_str() );
      differing += outcome.equivalent ? 0u : 1u;
    }
  }
  EXPECT_EQ( differing, 12u );
  EXPECT_GE( engine.stats().sat_proven_outputs, 12u );
}

TEST( incremental, large_checks_decide_outputs_lowest_first )
{
  // A check that adds at least 30000 fresh AND nodes to the union first
  // tries a budgeted miter per output.  `b` copies a ~33000-node 17-input
  // network and XORs output 0 with a chain-vs-rotated-tree parity: still
  // equal, but beyond the window and the per-output budget, so output 0
  // stays open while a later output may already be refuted.  Variants:
  //   0: equivalent (the open output goes to the batched miter);
  //   1: output 1 flipped: output 0 is proven first, output 1 reported;
  //   2: output 0 flipped: refuted by its own budgeted miter;
  //   3: output 1 flipped and the parity of output 0 flipped on the
  //      all-ones input only: the unbounded miter of output 0 refutes it
  //      before output 1 is reported.
  // Every check runs on a fresh engine, so no earlier lemma proves the
  // parity.
  std::mt19937_64 rng( 3301 );
  for ( int instance = 0; instance < 2; ++instance )
  {
    const auto a = random_test_aig( rng(), 17, 3, 17000 );
    for ( int variant = 0; variant < 4; ++variant )
    {
      auto b = a;
      auto flip = aig_network::const0;
      if ( variant == 3 )
      {
        flip = b.pi( 0 );
        for ( unsigned i = 1; i < b.num_pis(); ++i )
        {
          flip = b.create_and( flip, b.pi( i ) );
        }
      }
      b.set_po( 0, b.create_xor( b.po( 0 ), parity_zero( b, 8, flip ) ) );
      if ( variant == 1 || variant == 3 )
      {
        b.set_po( 1, lit_not( b.po( 1 ) ) );
      }
      if ( variant == 2 )
      {
        b.set_po( 0, lit_not( b.po( 0 ) ) );
      }
      sat::incremental_cec engine;
      const auto outcome = engine.check( a, b );
      const auto context =
          "instance " + std::to_string( instance ) + ", variant " + std::to_string( variant );
      EXPECT_GE( engine.stats().nodes, 30000u ) << context;
      expect_matches_brute_force( outcome, a, b, context.c_str() );
      const std::optional<unsigned> expected[] = { std::nullopt, 1u, 0u, 0u };
      EXPECT_EQ( outcome.failing_output, expected[variant] ) << context;
    }
  }
}

TEST( incremental, engine_reuse_matches_fresh_engines )
{
  // One persistent engine across many successive checks (shared structure,
  // learned lemmas, merges) must give exactly the verdicts of a fresh
  // engine per call.
  std::mt19937_64 rng( 37 );
  sat::incremental_cec persistent;
  for ( int round = 0; round < 8; ++round )
  {
    const unsigned num_pis = 4u + rng() % 3u;
    const unsigned num_pos = 1u + rng() % 3u;
    const auto a = random_test_aig( rng(), num_pis, num_pos, 16 );
    auto b = ( round & 1 ) ? random_test_aig( rng(), num_pis, num_pos, 16 ) : a;
    if ( round % 4 == 2 )
    {
      b.set_po( 0, b.po( 0 ) ^ 1u );
    }
    const auto reused = persistent.check( a, b );
    sat::incremental_cec fresh;
    const auto baseline = fresh.check( a, b );
    EXPECT_EQ( reused.equivalent, baseline.equivalent ) << "round " << round;
    EXPECT_EQ( reused.failing_output, baseline.failing_output ) << "round " << round;
    expect_matches_brute_force( reused, a, b, "reused engine" );
  }
  EXPECT_EQ( persistent.stats().checks, 8u );
}

TEST( incremental, interface_mismatch_throws )
{
  aig_network a( 2 );
  a.add_po( a.pi( 0 ) );
  aig_network b( 3 );
  b.add_po( b.pi( 0 ) );
  sat::incremental_cec engine;
  EXPECT_THROW( engine.check( a, b ), std::invalid_argument );
  aig_network c( 2 );
  c.add_po( c.pi( 0 ) );
  c.add_po( c.pi( 1 ) );
  EXPECT_THROW( engine.check( a, c ), std::invalid_argument );
}

TEST( incremental, mixed_interface_sizes_on_one_engine )
{
  // The engine may be reused across designs with different PI/PO counts;
  // PIs are extended on demand and earlier structure stays valid.
  sat::incremental_cec engine;
  const auto small_a = random_test_aig( 1, 3, 2 );
  const auto small_b = random_test_aig( 2, 3, 2 );
  const auto wide_a = random_test_aig( 3, 6, 3, 20 );
  const auto wide_b = random_test_aig( 4, 6, 3, 20 );
  expect_matches_brute_force( engine.check( small_a, small_b ), small_a, small_b, "small" );
  expect_matches_brute_force( engine.check( wide_a, wide_b ), wide_a, wide_b, "wide" );
  expect_matches_brute_force( engine.check( small_a, small_a ), small_a, small_a, "repeat" );
}
