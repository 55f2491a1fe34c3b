/// The bit-parallel simulation engine (every lane width) vs. the scalar
/// `evaluate_circuit` oracle, plus the exhaustive / sampled / SAT tiers
/// built on top of it.

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/flows.hpp"
#include "logic/aig.hpp"
#include "reversible/circuit.hpp"
#include "reversible/verify.hpp"
#include "synth/aig_optimize.hpp"
#include "verilog/elaborator.hpp"

using namespace qsyn;

namespace
{

/// Deterministic random Toffoli/CNOT/NOT network over `num_lines` lines with
/// random primary-input / constant-ancilla roles and random output placement.
reversible_circuit random_circuit( std::mt19937_64& rng, unsigned num_lines, unsigned num_gates,
                                   unsigned num_inputs )
{
  reversible_circuit circuit( num_lines );
  // Roles: the first num_inputs lines carry inputs (shuffling the carrier
  // lines would not change coverage — input i is "the i-th input line in
  // line order" either way), the rest are constant ancillae with random
  // initial values.
  for ( unsigned l = 0; l < num_lines; ++l )
  {
    auto& info = circuit.line( l );
    if ( l < num_inputs )
    {
      info.is_primary_input = true;
    }
    else
    {
      info.is_constant_input = true;
      info.constant_value = rng() & 1u;
    }
  }
  // Outputs: a random nonempty subset of lines, indexed in line order.
  int next_output = 0;
  for ( unsigned l = 0; l < num_lines; ++l )
  {
    if ( ( rng() & 3u ) == 0u || ( l + 1u == num_lines && next_output == 0 ) )
    {
      circuit.line( l ).output_index = next_output++;
      circuit.line( l ).is_garbage = false;
    }
  }
  for ( unsigned g = 0; g < num_gates; ++g )
  {
    const auto target = static_cast<std::uint32_t>( rng() % num_lines );
    std::vector<control> controls;
    for ( std::uint32_t l = 0; l < num_lines; ++l )
    {
      if ( l != target && ( rng() & 3u ) == 0u )
      {
        controls.push_back( { l, static_cast<bool>( rng() & 1u ) } );
      }
    }
    circuit.add_mct( controls, target );
  }
  return circuit;
}

std::vector<bool> random_assignment( std::mt19937_64& rng, unsigned num_inputs )
{
  std::vector<bool> assignment( num_inputs );
  for ( unsigned i = 0; i < num_inputs; ++i )
  {
    assignment[i] = rng() & 1u;
  }
  return assignment;
}

std::vector<bool> counter_assignment( std::uint64_t x, unsigned num_inputs )
{
  std::vector<bool> assignment( num_inputs );
  for ( unsigned i = 0; i < num_inputs; ++i )
  {
    assignment[i] = ( x >> i ) & 1u;
  }
  return assignment;
}

/// Spec = AND of all `n` inputs; circuit = constant 0 on an ancilla
/// output line.  They differ only on the all-one assignment.
std::pair<aig_network, reversible_circuit> and_vs_constant_zero( unsigned n )
{
  aig_network aig( n );
  std::vector<aig_lit> pis;
  for ( unsigned i = 0; i < n; ++i )
  {
    pis.push_back( aig.pi( i ) );
  }
  aig.add_po( aig.create_nary_and( pis ) );
  reversible_circuit circuit( n + 1u );
  for ( unsigned l = 0; l < n; ++l )
  {
    circuit.line( l ).is_primary_input = true;
  }
  circuit.line( n ).is_constant_input = true;
  circuit.line( n ).output_index = 0;
  circuit.line( n ).is_garbage = false;
  return { std::move( aig ), std::move( circuit ) };
}

/// A simulation tier's contract, one assignment at a time: evaluates
/// `assignment_of( 0 .. requested - 1 )` in order and reports the first
/// failing `x` with `x + 1` assignments completed, or all of them.
template<typename AssignmentOf>
partial_verify_report scalar_report( const reversible_circuit& circuit, const aig_network& spec,
                                     std::uint64_t requested, AssignmentOf&& assignment_of )
{
  partial_verify_report report;
  report.assignments_requested = requested;
  for ( std::uint64_t x = 0; x < requested; ++x )
  {
    const auto assignment = assignment_of( x );
    if ( evaluate_circuit( circuit, assignment ) != spec.evaluate( assignment ) )
    {
      report.counterexample = assignment;
      report.assignments_completed = x + 1u;
      return report;
    }
  }
  report.assignments_completed = requested;
  return report;
}

/// The exhaustive tier's reference: counter order over all 2^n inputs.
partial_verify_report scalar_exhaustive_report( const reversible_circuit& circuit,
                                                const aig_network& spec )
{
  const auto n = spec.num_pis();
  return scalar_report( circuit, spec, std::uint64_t{ 1 } << n,
                        [n]( std::uint64_t x ) { return counter_assignment( x, n ); } );
}

/// The sampled tier's reference for spaces larger than the budget: the
/// `mt19937_64` stream replayed as one word per input per 64-lane block,
/// lanes 0 and 1 of block 0 pinned to all-zero and all-one, evaluated lane
/// by lane up to the request (which masks the last block).
partial_verify_report scalar_sampled_report( const reversible_circuit& circuit,
                                             const aig_network& spec, unsigned num_samples,
                                             std::uint64_t seed )
{
  const auto n = spec.num_pis();
  const std::uint64_t requested = std::uint64_t{ num_samples } + 2u;
  std::mt19937_64 rng( seed );
  std::vector<std::uint64_t> words( ( requested + 63u ) / 64u * n );
  for ( std::size_t w = 0; w < words.size(); ++w )
  {
    words[w] = w < n ? ( rng() & ~std::uint64_t{ 3 } ) | 2u : rng();
  }
  return scalar_report( circuit, spec, requested, [&words, n]( std::uint64_t x ) {
    std::vector<bool> assignment( n );
    for ( unsigned i = 0; i < n; ++i )
    {
      assignment[i] = ( words[x / 64u * n + i] >> ( x % 64u ) ) & 1u;
    }
    return assignment;
  } );
}

constexpr sim_width all_widths[] = { sim_width::w64, sim_width::w256, sim_width::w512 };

/// Packs `batch` (at most one lane group) into lane j = word j / 64, bit
/// j % 64 of each input's group, simulates it at `width`, and checks every
/// lane's outputs against `evaluate_circuit`.
void expect_lanes_match_scalar( const reversible_circuit& circuit, sim_width width,
                                const std::vector<std::vector<bool>>& batch,
                                const std::string& context )
{
  const auto W = words_of( width );
  wide_simulator sim( circuit, width );
  ASSERT_EQ( sim.width(), width );
  std::vector<std::uint64_t> inputs( sim.input_lines().size() * W, 0u );
  for ( std::size_t j = 0; j < batch.size(); ++j )
  {
    for ( std::size_t i = 0; i < batch[j].size(); ++i )
    {
      inputs[i * W + j / 64u] |= std::uint64_t{ batch[j][i] } << ( j % 64u );
    }
  }
  const auto& words = sim.evaluate( inputs );
  for ( std::size_t j = 0; j < batch.size(); ++j )
  {
    const auto expected = evaluate_circuit( circuit, batch[j] );
    ASSERT_EQ( words.size(), expected.size() * W ) << context;
    for ( std::size_t o = 0; o < expected.size(); ++o )
    {
      EXPECT_EQ( ( words[o * W + j / 64u] >> ( j % 64u ) ) & 1u,
                 static_cast<std::uint64_t>( expected[o] ) )
          << context << " width " << lanes_of( width ) << " lane " << j << " output " << o;
    }
  }
  // One group too many: the input arity is checked.
  EXPECT_THROW( sim.evaluate( std::vector<std::uint64_t>( inputs.size() + W ) ),
                std::invalid_argument );
}

/// Full report equality: verdict, counterexample, and the per-assignment
/// coverage accounting must match the oracle exactly.
void expect_report_equal( const partial_verify_report& got, const partial_verify_report& want,
                          const std::string& context )
{
  EXPECT_EQ( got.counterexample, want.counterexample ) << context;
  EXPECT_EQ( got.assignments_requested, want.assignments_requested ) << context;
  EXPECT_EQ( got.assignments_completed, want.assignments_completed ) << context;
  EXPECT_EQ( got.complete, want.complete ) << context;
}

/// Corrupts a circuit behind its extracted specification: an extra NOT on
/// the lowest output line flips that output for every assignment.
reversible_circuit corrupt_first_output( const reversible_circuit& circuit )
{
  auto corrupted = circuit;
  corrupted.add_not( output_lines_of( circuit ).front() );
  return corrupted;
}

/// Corrupts a circuit late in counter order: a Toffoli onto the lowest
/// output line, controlled by input lines 0..2 (or the input lines other
/// than the target), fires only when all its controls are one, so the
/// candidate survives several wide passes before it can fail.
reversible_circuit corrupt_late( const reversible_circuit& circuit )
{
  auto corrupted = circuit;
  const auto target = output_lines_of( circuit ).front();
  std::vector<control> controls;
  for ( const auto line : input_lines_of( circuit ) )
  {
    if ( line != target && controls.size() < 3u )
    {
      controls.push_back( { line, true } );
    }
  }
  corrupted.add_mct( controls, target );
  return corrupted;
}

} // namespace

// --- line roles ----------------------------------------------------------------

TEST( verify_lines, output_lines_follow_the_output_indices )
{
  reversible_circuit circuit( 4 );
  circuit.line( 3 ).output_index = 0;
  circuit.line( 1 ).output_index = 1;
  EXPECT_EQ( output_lines_of( circuit ), ( std::vector<std::uint32_t>{ 3, 1 } ) );
  EXPECT_TRUE( output_lines_of( reversible_circuit( 2 ) ).empty() );
}

TEST( verify_lines, output_index_gaps_and_duplicates_throw )
{
  reversible_circuit gap( 3 );
  gap.line( 0 ).output_index = 0;
  gap.line( 2 ).output_index = 2; // no output 1
  EXPECT_THROW( output_lines_of( gap ), std::invalid_argument );
  // A stray huge index is a gap too; it must not size the table.
  reversible_circuit huge( 1 );
  huge.line( 0 ).output_index = 0x7fffffff;
  EXPECT_THROW( output_lines_of( huge ), std::invalid_argument );
  reversible_circuit twice( 3 );
  twice.line( 0 ).output_index = 0;
  twice.line( 1 ).output_index = 1;
  twice.line( 2 ).output_index = 1;
  EXPECT_THROW( output_lines_of( twice ), std::invalid_argument );
  // Every consumer of the output lines refuses such a circuit.
  EXPECT_THROW( wide_simulator( twice, sim_width::w64 ), std::invalid_argument );
  EXPECT_THROW( evaluate_circuit( gap, {} ), std::invalid_argument );
}

// --- truth-table tier --------------------------------------------------------

TEST( verify_truth_tables, agrees_with_scalar_oracle_and_detects_single_bit_flips )
{
  std::mt19937_64 rng( 37 );
  for ( const unsigned num_inputs : { 3u, 6u, 8u } )
  {
    const auto circuit = random_circuit( rng, num_inputs + 2u, 30u, num_inputs );
    const auto num_outputs = output_lines_of( circuit ).size();
    // Reference tables from the scalar oracle.
    std::vector<truth_table> outputs( num_outputs, truth_table( num_inputs ) );
    for ( std::uint64_t x = 0; x < ( std::uint64_t{ 1 } << num_inputs ); ++x )
    {
      const auto value = evaluate_circuit( circuit, counter_assignment( x, num_inputs ) );
      for ( std::size_t o = 0; o < num_outputs; ++o )
      {
        outputs[o].set_bit( x, value[o] );
      }
    }
    EXPECT_TRUE( verify_against_truth_tables( circuit, outputs ) ) << num_inputs;

    auto corrupted = outputs;
    const auto flip_output = rng() % num_outputs;
    const auto flip_index = rng() % ( std::uint64_t{ 1 } << num_inputs );
    corrupted[flip_output].set_bit( flip_index, !corrupted[flip_output].get_bit( flip_index ) );
    EXPECT_FALSE( verify_against_truth_tables( circuit, corrupted ) ) << num_inputs;
  }
}

TEST( verify_truth_tables, output_count_and_arity_mismatches_are_rejected )
{
  reversible_circuit circuit( 2 );
  circuit.line( 0 ).is_primary_input = true;
  circuit.line( 1 ).is_primary_input = true;
  circuit.line( 1 ).output_index = 0;
  circuit.line( 1 ).is_garbage = false;
  EXPECT_FALSE( verify_against_truth_tables( circuit, {} ) );
  EXPECT_FALSE(
      verify_against_truth_tables( circuit, { truth_table( 3 ) } ) ); // wrong variable count
}

// --- exhaustive tier ---------------------------------------------------------

TEST( verify_exhaustive, certifies_extraction_and_finds_first_counterexample )
{
  std::mt19937_64 rng( 51 );
  for ( const unsigned num_inputs : { 1u, 2u, 3u, 4u, 5u, 6u, 8u } )
  {
    const auto circuit = random_circuit( rng, num_inputs + 2u, 20u, num_inputs );
    const auto spec = circuit_to_aig( circuit );
    // Ragged tails included: for num_inputs < 6 the whole space is one
    // partial word.
    EXPECT_EQ( verify_against_aig_exhaustive( circuit, spec ), std::nullopt ) << num_inputs;

    // Complement one PO: the verifier must return the first failing
    // assignment in counter order (the scalar enumeration's contract).
    auto corrupted = spec;
    corrupted.set_po( 0, lit_not( corrupted.po( 0 ) ) );
    const auto cex = verify_against_aig_exhaustive( circuit, corrupted );
    ASSERT_TRUE( cex.has_value() ) << num_inputs;
    EXPECT_NE( evaluate_circuit( circuit, *cex ), corrupted.evaluate( *cex ) );
    EXPECT_EQ( cex, scalar_exhaustive_report( circuit, corrupted ).counterexample ) << num_inputs;
  }
}

TEST( verify_exhaustive, output_arity_mismatch_throws )
{
  // One circuit output vs. two AIG POs: both simulation tiers must reject
  // the interface instead of comparing past the shorter result vector.
  reversible_circuit circuit( 2 );
  circuit.line( 0 ).is_primary_input = true;
  circuit.line( 1 ).is_primary_input = true;
  circuit.line( 1 ).output_index = 0;
  circuit.line( 1 ).is_garbage = false;
  aig_network aig( 2 );
  aig.add_po( aig.pi( 1 ) );
  aig.add_po( aig.pi( 0 ) );
  EXPECT_THROW( verify_against_aig_exhaustive( circuit, aig ), std::invalid_argument );
  EXPECT_THROW( verify_against_aig_sampled( circuit, aig, 2, 1 ), std::invalid_argument );
  EXPECT_THROW( verify_against_aig_sat( circuit, aig ), std::invalid_argument );
}

TEST( verify_exhaustive, too_many_inputs_throws )
{
  reversible_circuit circuit( 25 );
  for ( unsigned l = 0; l < 25u; ++l )
  {
    circuit.line( l ).is_primary_input = true;
  }
  circuit.line( 0 ).output_index = 0;
  aig_network aig( 25 );
  aig.add_po( aig.pi( 0 ) );
  EXPECT_THROW( verify_against_aig_exhaustive( circuit, aig ), std::invalid_argument );
}

// --- sampled tier ------------------------------------------------------------

TEST( verify_sampled, small_spaces_are_enumerated_exhaustively )
{
  // f = x0 AND x1, circuit computes OR: wrong exactly on the two one-hot
  // patterns.  Sampling could miss them; the exhaustive branch cannot, and
  // must return the first failing assignment x = 1, i.e. (1, 0).  This is
  // the regression contract for the counterexample format of a scalar
  // counter-order enumeration.
  aig_network aig( 2 );
  aig.add_po( aig.create_and( aig.pi( 0 ), aig.pi( 1 ) ) );

  reversible_circuit circuit( 3 );
  circuit.line( 0 ).is_primary_input = true;
  circuit.line( 1 ).is_primary_input = true;
  circuit.line( 2 ).is_constant_input = true;
  circuit.line( 2 ).output_index = 0;
  circuit.line( 2 ).is_garbage = false;
  circuit.add_gate( std::array{ control{ 0, false }, control{ 1, false } }, 2 );
  circuit.add_not( 2 );

  const auto cex = verify_against_aig_sampled( circuit, aig, 256, 1 );
  ASSERT_TRUE( cex.has_value() );
  EXPECT_EQ( *cex, ( std::vector<bool>{ true, false } ) );
}

TEST( verify_sampled, ragged_budget_below_one_word_still_covers_extremes )
{
  // 7 inputs with a 5-sample budget: 2^7 > 5, so the random branch runs one
  // ragged 7-lane batch.  A circuit wrong only on the all-one pattern must
  // still be caught (lane 1 pins all-one).
  const unsigned n = 7;
  const auto [aig, circuit] = and_vs_constant_zero( n );
  const auto cex = verify_against_aig_sampled( circuit, aig, 5, 99 );
  ASSERT_TRUE( cex.has_value() );
  EXPECT_EQ( *cex, std::vector<bool>( n, true ) );
  EXPECT_NE( evaluate_circuit( circuit, *cex ), aig.evaluate( *cex ) );
}

TEST( verify_sampled, accepts_correct_extraction_on_wide_inputs )
{
  std::mt19937_64 rng( 77 );
  const unsigned num_inputs = 12; // 2^12 > 256: genuine random sampling
  const auto circuit = random_circuit( rng, num_inputs + 3u, 30u, num_inputs );
  EXPECT_EQ( verify_against_aig_sampled( circuit, circuit_to_aig( circuit ), 256, 7 ),
             std::nullopt );
}

// --- circuit -> AIG extraction and the SAT tier ------------------------------

TEST( verify_sat, extraction_matches_scalar_oracle )
{
  std::mt19937_64 rng( 91 );
  for ( int instance = 0; instance < 20; ++instance )
  {
    const unsigned num_inputs = 1u + rng() % 6u;
    const auto circuit = random_circuit( rng, num_inputs + 1u + rng() % 3u, 15u, num_inputs );
    const auto aig = circuit_to_aig( circuit );
    for ( std::uint64_t x = 0; x < ( std::uint64_t{ 1 } << num_inputs ); ++x )
    {
      const auto assignment = counter_assignment( x, num_inputs );
      EXPECT_EQ( aig.evaluate( assignment ), evaluate_circuit( circuit, assignment ) )
          << "instance " << instance << " x=" << x;
    }
  }
}

TEST( verify_sat, proves_correct_circuits_and_refutes_corrupted_ones )
{
  std::mt19937_64 rng( 123 );
  for ( int instance = 0; instance < 10; ++instance )
  {
    const unsigned num_inputs = 2u + rng() % 5u;
    const auto circuit = random_circuit( rng, num_inputs + 2u, 20u, num_inputs );
    const auto spec = circuit_to_aig( circuit );
    EXPECT_EQ( verify_against_aig_sat( circuit, spec ), std::nullopt ) << instance;

    auto corrupted = spec;
    corrupted.set_po( 0, lit_not( corrupted.po( 0 ) ) );
    const auto cex = verify_against_aig_sat( circuit, corrupted );
    ASSERT_TRUE( cex.has_value() ) << instance;
    // Counterexample round-trip: it must actually distinguish the circuit
    // from the (corrupted) specification.
    EXPECT_NE( evaluate_circuit( circuit, *cex ), corrupted.evaluate( *cex ) ) << instance;
  }
}

TEST( verify_sat, interface_mismatch_throws )
{
  reversible_circuit circuit( 2 );
  circuit.line( 0 ).is_primary_input = true;
  circuit.line( 1 ).is_primary_input = true;
  circuit.line( 1 ).output_index = 0;
  circuit.line( 1 ).is_garbage = false;
  aig_network aig( 3 );
  aig.add_po( aig.pi( 0 ) );
  EXPECT_THROW( verify_against_aig_sat( circuit, aig ), std::invalid_argument );
}

// --- the wide engine vs. the scalar oracle ----------------------------------
//
// The differential harness of the simulation engine: every lane width (on
// whichever SIMD backend the CPU and QSYN_SIMD select) is pinned against
// the scalar `evaluate_circuit` lane by lane, and every verification report
// against a scalar replay of the tier's contract — bit-identical verdicts,
// counterexamples, and coverage accounting, ragged tails and constant
// ancillae included.

TEST( verify_wide, wide_simulator_matches_scalar_on_random_circuits )
{
  std::mt19937_64 rng( 11 );
  for ( int instance = 0; instance < 40; ++instance )
  {
    const unsigned num_lines = 2u + rng() % 9u;
    const unsigned num_inputs = 1u + rng() % num_lines;
    const auto circuit = random_circuit( rng, num_lines, 1u + rng() % 40u, num_inputs );
    for ( const auto width : all_widths )
    {
      std::vector<std::vector<bool>> batch;
      for ( unsigned j = 0; j < lanes_of( width ); ++j )
      {
        batch.push_back( random_assignment( rng, num_inputs ) );
      }
      expect_lanes_match_scalar( circuit, width, batch, "instance " + std::to_string( instance ) );
    }
  }
}

TEST( verify_wide, wide_simulator_matches_scalar_exhaustively_up_to_ten_inputs )
{
  // Ragged tails on purpose: below 6 inputs the whole space is part of one
  // word, and 2^7 fills two of a w512 group's eight words.
  std::mt19937_64 rng( 23 );
  for ( const unsigned num_inputs : { 1u, 2u, 5u, 6u, 7u, 10u } )
  {
    const unsigned num_lines = num_inputs + 1u + rng() % 3u;
    const auto circuit = random_circuit( rng, num_lines, 25u, num_inputs );
    const std::uint64_t space = std::uint64_t{ 1 } << num_inputs;
    for ( const auto width : all_widths )
    {
      for ( std::uint64_t base = 0; base < space; base += lanes_of( width ) )
      {
        std::vector<std::vector<bool>> batch;
        const auto end = std::min<std::uint64_t>( space, base + lanes_of( width ) );
        for ( std::uint64_t x = base; x < end; ++x )
        {
          batch.push_back( counter_assignment( x, num_inputs ) );
        }
        expect_lanes_match_scalar( circuit, width, batch,
                                   "n=" + std::to_string( num_inputs ) + " base " +
                                       std::to_string( base ) );
      }
    }
  }
}

TEST( verify_wide, wide_simulator_matches_scalar_on_constant_ancillae )
{
  // out = (1 AND x0) XOR x1 realized with a constant-1 ancilla as control:
  // the constant must be broadcast to every lane of every word.
  reversible_circuit circuit( 3 );
  circuit.line( 0 ).is_primary_input = true;
  circuit.line( 1 ).is_primary_input = true;
  circuit.line( 2 ).is_constant_input = true;
  circuit.line( 2 ).constant_value = true;
  circuit.line( 1 ).output_index = 0;
  circuit.line( 1 ).is_garbage = false;
  circuit.add_toffoli( 0, 2, 1 ); // fires iff x0 (ancilla is constant 1)
  for ( const auto width : all_widths )
  {
    std::vector<std::vector<bool>> batch;
    for ( std::uint64_t x = 0; x < lanes_of( width ); ++x )
    {
      batch.push_back( counter_assignment( x % 4u, 2u ) );
    }
    expect_lanes_match_scalar( circuit, width, batch, "ancilla" );
  }
}

TEST( verify_wide, exhaustive_reports_match_oracle_at_every_width )
{
  std::mt19937_64 rng( 223 );
  // Ragged tails on purpose: 2^3 is a fraction of one word, 2^7 fills two
  // of a w512 group's eight words, 2^9 is exactly one w512 group.  The
  // random circuits carry constant ancillae and garbage lines.
  for ( const unsigned num_inputs : { 3u, 5u, 7u, 9u } )
  {
    const auto circuit = random_circuit( rng, num_inputs + 3u, 30u, num_inputs );
    const auto spec = circuit_to_aig( circuit );
    const auto corrupted = corrupt_first_output( circuit );
    const auto late = corrupt_late( circuit );

    const auto pass_oracle = scalar_exhaustive_report( circuit, spec );
    EXPECT_FALSE( pass_oracle.counterexample.has_value() ) << num_inputs;
    EXPECT_EQ( pass_oracle.assignments_completed, std::uint64_t{ 1 } << num_inputs );
    const auto fail_oracle = scalar_exhaustive_report( corrupted, spec );
    ASSERT_TRUE( fail_oracle.counterexample.has_value() ) << num_inputs;
    const auto late_oracle = scalar_exhaustive_report( late, spec );

    for ( const auto width : all_widths )
    {
      const auto context =
          "n=" + std::to_string( num_inputs ) + " width=" + std::to_string( lanes_of( width ) );
      expect_report_equal( verify_against_aig_exhaustive_budgeted( circuit, spec, deadline{}, width ),
                           pass_oracle, "pass " + context );
      expect_report_equal(
          verify_against_aig_exhaustive_budgeted( corrupted, spec, deadline{}, width ),
          fail_oracle, "fail " + context );
      expect_report_equal( verify_against_aig_exhaustive_budgeted( late, spec, deadline{}, width ),
                           late_oracle, "late " + context );
    }
  }
}

TEST( verify_wide, first_counterexample_is_lowest_column_at_every_width )
{
  // Spec = AND of all 7 inputs, circuit = constant 0: the only difference
  // is the all-one assignment — the LAST column of the space.  Every width
  // must report exactly it (not an earlier lane of the same wide group)
  // and count all 128 assignments as covered.
  const unsigned n = 7;
  const auto [aig, circuit] = and_vs_constant_zero( n );
  for ( const auto width : all_widths )
  {
    const auto report = verify_against_aig_exhaustive_budgeted( circuit, aig, deadline{}, width );
    ASSERT_TRUE( report.counterexample.has_value() ) << lanes_of( width );
    EXPECT_EQ( *report.counterexample, std::vector<bool>( n, true ) ) << lanes_of( width );
    EXPECT_EQ( report.assignments_completed, 128u ) << lanes_of( width );
    EXPECT_TRUE( report.complete ) << lanes_of( width );
  }

  // And the dual: a circuit wrong everywhere fails on column 0 with exactly
  // one assignment counted, at every width.
  auto everywhere = circuit;
  everywhere.add_not( n ); // constant 1 vs AND: differs on all but all-one
  for ( const auto width : all_widths )
  {
    const auto report =
        verify_against_aig_exhaustive_budgeted( everywhere, aig, deadline{}, width );
    ASSERT_TRUE( report.counterexample.has_value() ) << lanes_of( width );
    EXPECT_EQ( *report.counterexample, std::vector<bool>( n, false ) ) << lanes_of( width );
    EXPECT_EQ( report.assignments_completed, 1u ) << lanes_of( width );
  }
}

TEST( verify_wide, sampled_reports_match_oracle_at_every_width )
{
  std::mt19937_64 rng( 239 );
  const unsigned num_inputs = 13; // 2^13 > every budget below: genuine sampling
  const auto circuit = random_circuit( rng, num_inputs + 3u, 35u, num_inputs );
  const auto spec = circuit_to_aig( circuit );
  const auto corrupted = corrupt_first_output( circuit );
  const auto late = corrupt_late( circuit );

  for ( const unsigned num_samples : { 5u, 70u, 250u, 512u } )
  {
    for ( const std::uint64_t seed : { 1u, 42u } )
    {
      const auto pass_oracle = scalar_sampled_report( circuit, spec, num_samples, seed );
      const auto fail_oracle = scalar_sampled_report( corrupted, spec, num_samples, seed );
      ASSERT_TRUE( fail_oracle.counterexample.has_value() ) << num_samples;
      const auto late_oracle = scalar_sampled_report( late, spec, num_samples, seed );
      for ( const auto width : all_widths )
      {
        const auto context = "samples=" + std::to_string( num_samples ) +
                             " seed=" + std::to_string( seed ) +
                             " width=" + std::to_string( lanes_of( width ) );
        expect_report_equal( verify_against_aig_sampled_budgeted( circuit, spec, deadline{},
                                                                  num_samples, seed, width ),
                             pass_oracle, "pass " + context );
        expect_report_equal( verify_against_aig_sampled_budgeted( corrupted, spec, deadline{},
                                                                  num_samples, seed, width ),
                             fail_oracle, "fail " + context );
        expect_report_equal( verify_against_aig_sampled_budgeted( late, spec, deadline{},
                                                                  num_samples, seed, width ),
                             late_oracle, "late " + context );
      }
    }
  }
}

TEST( verify_wide, sampled_accounting_is_exact_for_non_lane_aligned_requests )
{
  // Regression: a batched sampler must count per assignment, never round up
  // to lane-group granularity.  num_samples + 2 (the two pinned extremes)
  // lands off every lane boundary here — 7, 72, and 252 patterns — and the
  // completed count must equal the request exactly at every width,
  // including the widths whose group (256 or 512 lanes) exceeds the whole
  // request.
  std::mt19937_64 rng( 241 );
  const unsigned num_inputs = 12;
  const auto circuit = random_circuit( rng, num_inputs + 2u, 25u, num_inputs );
  const auto spec = circuit_to_aig( circuit );
  for ( const unsigned num_samples : { 5u, 70u, 250u } )
  {
    const std::uint64_t total = std::uint64_t{ num_samples } + 2u;
    for ( const auto width : all_widths )
    {
      const auto report = verify_against_aig_sampled_budgeted( circuit, spec, deadline{},
                                                               num_samples, 17u, width );
      const auto context = "samples=" + std::to_string( num_samples ) +
                           " width=" + std::to_string( lanes_of( width ) );
      EXPECT_FALSE( report.counterexample.has_value() ) << context;
      EXPECT_TRUE( report.complete ) << context;
      EXPECT_EQ( report.assignments_requested, total ) << context;
      EXPECT_EQ( report.assignments_completed, total ) << context;
    }
  }
}

TEST( verify_wide, dispatcher_picks_the_widest_backend_cpuid_and_the_cap_allow )
{
  // The expected choice, derived without the dispatcher: cpuid says what
  // the CPU runs, and the QSYN_SIMD environment variable caps it.  ctest
  // runs this suite unset, at "avx2" and at "portable", so each kernel
  // family the CPU supports runs the differential tests above once.
  const char* env = std::getenv( "QSYN_SIMD" );
  const std::string cap = env == nullptr ? "" : env;
  const bool avx2_allowed = cap != "off" && cap != "portable";
  const bool avx512_allowed = avx2_allowed && cap != "avx2";
  const bool avx2 = avx2_allowed && __builtin_cpu_supports( "avx2" ) != 0;
  const bool avx512 = avx512_allowed && __builtin_cpu_supports( "avx512f" ) != 0;
  // A 256-bit group never takes AVX-512; w512 pairs AVX2 registers when
  // AVX-512 is out; w64 has nothing to vectorize.
  const auto w256 = avx2 ? simd_backend::avx2 : simd_backend::portable;
  const std::array<std::pair<sim_width, simd_backend>, 3> expected = { {
      { sim_width::w64, simd_backend::portable },
      { sim_width::w256, w256 },
      { sim_width::w512, avx512 ? simd_backend::avx512 : w256 },
  } };

  std::mt19937_64 rng( 91 );
  const auto circuit = random_circuit( rng, 6, 20, 4 );
  for ( const auto& [width, backend] : expected )
  {
    const auto context = "QSYN_SIMD='" + cap + "' width=" + std::to_string( lanes_of( width ) );
    EXPECT_EQ( active_simd_backend( width ), backend ) << context;
    EXPECT_EQ( wide_simulator( circuit, width ).backend(), backend ) << context;
  }
  EXPECT_STREQ( simd_backend_name( simd_backend::portable ), "portable" );
  EXPECT_STREQ( simd_backend_name( simd_backend::avx2 ), "avx2" );
  EXPECT_STREQ( simd_backend_name( simd_backend::avx512 ), "avx512" );
}

// --- spec simulation on live slots -------------------------------------------

namespace
{

/// AIGs at the corners of the slot compiler: dead ANDs, POs that are no
/// AND, one node as several POs, raw ANDs that `create_and` would have
/// folded or reordered, and networks without ANDs or without PIs.
std::vector<std::pair<std::string, aig_network>> awkward_aigs()
{
  std::vector<std::pair<std::string, aig_network>> aigs;
  {
    // Never cleaned up: most ANDs are dead, and dead ANDs read live ones.
    std::mt19937_64 rng( 401 );
    aig_network aig( 7 );
    std::vector<aig_lit> lits;
    for ( unsigned i = 0; i < aig.num_pis(); ++i )
    {
      lits.push_back( aig.pi( i ) );
    }
    const auto pick = [&] { return lit_not_cond( lits[rng() % lits.size()], rng() & 1u ); };
    for ( unsigned g = 0; g < 300; ++g )
    {
      lits.push_back( aig.create_and( pick(), pick() ) );
    }
    for ( unsigned o = 0; o < 3; ++o )
    {
      aig.add_po( pick() );
    }
    aigs.emplace_back( "dead ANDs", std::move( aig ) );
  }
  {
    aig_network aig( 3 );
    const auto g = aig.create_and( aig.pi( 0 ), lit_not( aig.pi( 2 ) ) );
    aig.add_po( aig_network::const0 );
    aig.add_po( aig_network::const1 );
    aig.add_po( aig.pi( 1 ) );
    aig.add_po( lit_not( aig.pi( 0 ) ) );
    aig.add_po( g );
    aigs.emplace_back( "POs on the constant and on PIs", std::move( aig ) );
  }
  {
    // The node stays live past later readers because it is a PO.
    aig_network aig( 4 );
    const auto x = aig.create_xor( aig.pi( 0 ), aig.pi( 1 ) );
    aig.add_po( x );
    aig.add_po( lit_not( x ) );
    const auto y = aig.create_and( x, aig.pi( 2 ) );
    aig.add_po( aig.create_or( y, aig.pi( 3 ) ) );
    aig.add_po( lit_not( x ) );
    aigs.emplace_back( "one node as POs of both polarities", std::move( aig ) );
  }
  {
    aig_network aig( 3 );
    const auto ab = aig.append_raw_and( aig.pi( 1 ), lit_not( aig.pi( 0 ) ) ); // reversed
    const auto same = aig.append_raw_and( ab, ab );
    const auto never = aig.append_raw_and( lit_not( same ), same );
    const auto chain = aig.append_raw_and( aig.pi( 2 ), lit_not( never ) );
    aig.add_po( aig.append_raw_and( aig_network::const1, chain ) );
    aig.add_po( never );
    aig.add_po( aig.append_raw_and( lit_not( aig.pi( 2 ) ), same ) );
    aigs.emplace_back( "raw ANDs on one node and reversed", std::move( aig ) );
  }
  {
    aig_network aig( 2 );
    aig.add_po( aig.pi( 1 ) );
    aig.add_po( lit_not( aig.pi( 0 ) ) );
    aig.add_po( aig_network::const1 );
    aigs.emplace_back( "no ANDs", std::move( aig ) );
  }
  {
    aig_network aig( 0 );
    aig.add_po( aig_network::const1 );
    aig.add_po( aig_network::const0 );
    aigs.emplace_back( "no PIs", std::move( aig ) );
  }
  return aigs;
}

} // namespace

TEST( verify_wide, spec_simulator_matches_evaluate_on_awkward_aigs )
{
  std::mt19937_64 rng( 409 );
  for ( const auto& [name, aig] : awkward_aigs() )
  {
    for ( const auto width : all_widths )
    {
      const auto W = words_of( width );
      const auto context = name + " width " + std::to_string( lanes_of( width ) );
      wide_aig_simulator sim( aig, width );
      ASSERT_EQ( sim.num_pos(), aig.num_pos() ) << context;
      EXPECT_LE( sim.num_slots(), aig.num_nodes() ) << context;
      // Two batches through one simulator: values a batch leaves in reused
      // slots must not reach the next.
      for ( int batch = 0; batch < 2; ++batch )
      {
        std::vector<std::uint64_t> words( std::size_t{ aig.num_pis() } * W );
        for ( auto& w : words )
        {
          w = rng();
        }
        const auto& out = sim.evaluate( words );
        ASSERT_EQ( out.size(), std::size_t{ aig.num_pos() } * W ) << context;
        for ( unsigned j = 0; j < lanes_of( width ); ++j )
        {
          std::vector<bool> assignment( aig.num_pis() );
          for ( unsigned i = 0; i < aig.num_pis(); ++i )
          {
            assignment[i] = ( words[i * W + j / 64u] >> ( j % 64u ) ) & 1u;
          }
          std::vector<bool> got( aig.num_pos() );
          for ( unsigned o = 0; o < aig.num_pos(); ++o )
          {
            got[o] = ( out[o * W + j / 64u] >> ( j % 64u ) ) & 1u;
          }
          ASSERT_EQ( got, aig.evaluate( assignment ) ) << context << " lane " << j;
        }
      }
    }
    const auto tts = aig.simulate_outputs();
    ASSERT_EQ( tts.size(), aig.num_pos() ) << name;
    for ( std::uint64_t x = 0; x < ( std::uint64_t{ 1 } << aig.num_pis() ); ++x )
    {
      std::vector<bool> got( aig.num_pos() );
      for ( unsigned o = 0; o < aig.num_pos(); ++o )
      {
        got[o] = tts[o].get_bit( x );
      }
      ASSERT_EQ( got, aig.evaluate( counter_assignment( x, aig.num_pis() ) ) )
          << name << " assignment " << x;
    }
  }
}

TEST( verify_wide, spec_simulator_live_state_stays_small )
{
  // Optimized NEWTON(16) has tens of thousands of nodes, but only a few
  // hundred values are live at once; the spec simulator holds only those.
  const auto mod = verilog::elaborate_verilog( reciprocal_verilog( reciprocal_design::newton, 16 ) );
  const auto opt = optimize( mod.aig, flow_params{}.optimization_rounds );
  const wide_aig_simulator sim( opt, sim_width::w512 );
  EXPECT_LE( std::uint64_t{ sim.num_slots() } * 100u, opt.num_nodes() )
      << sim.num_slots() << " slots for " << opt.num_nodes() << " nodes";
}
