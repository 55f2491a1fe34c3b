#include "verify.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>

#include "../common/bits.hpp"
#include "../sat/incremental.hpp"

namespace qsyn
{

namespace
{

constexpr std::uint64_t all_ones = ~std::uint64_t{ 0 };

/// Words per lane group: every tier simulates one group per pass.
constexpr unsigned W = lane_group_words;

/// Fills one lane group per input for the `W` consecutive counter blocks
/// starting at `blk0` (word k of input i covers assignments
/// `(blk0 + k) * 64 .. + 63`): the low six variables cycle through the
/// projection patterns in every word, the higher ones broadcast the
/// corresponding bit of the word's block index.
void fill_counter_wide( unsigned num_inputs, std::uint64_t blk0, std::vector<std::uint64_t>& words )
{
  for ( unsigned i = 0; i < num_inputs; ++i )
  {
    for ( unsigned k = 0; k < W; ++k )
    {
      words[std::size_t{ i } * W + k] =
          i < 6u ? projections[i] : ( ( ( blk0 + k ) >> ( i - 6u ) ) & 1u ) ? all_ones : 0u;
    }
  }
}

/// Unpacks assignment lane `j` of word `k` of a grouped input batch.
std::vector<bool> unpack_wide_lane( const std::vector<std::uint64_t>& words, unsigned k,
                                    unsigned j )
{
  std::vector<bool> assignment( words.size() / W );
  for ( std::size_t i = 0; i < assignment.size(); ++i )
  {
    assignment[i] = ( words[i * W + k] >> j ) & 1u;
  }
  return assignment;
}

/// OR of the per-output differences in word `k` of two grouped results.
std::uint64_t diff_word_wide( const std::vector<std::uint64_t>& a,
                              const std::vector<std::uint64_t>& b, unsigned k )
{
  std::uint64_t diff = 0;
  for ( std::size_t o = 0; o < a.size() / W; ++o )
  {
    diff |= a[o * W + k] ^ b[o * W + k];
  }
  return diff;
}

} // namespace

std::vector<std::uint32_t> input_lines_of( const reversible_circuit& circuit )
{
  std::vector<std::uint32_t> lines;
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    if ( circuit.line( l ).is_primary_input )
    {
      lines.push_back( l );
    }
  }
  return lines;
}

std::vector<std::uint32_t> output_lines_of( const reversible_circuit& circuit )
{
  // k lines carry an output index, so the indices must be exactly 0..k-1:
  // an index >= k means a gap, and the table is sized by k, never by a
  // stray large index.
  constexpr auto unset = ~std::uint32_t{ 0 };
  std::size_t num_outputs = 0;
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    num_outputs += circuit.line( l ).output_index >= 0 ? 1u : 0u;
  }
  std::vector<std::uint32_t> lines( num_outputs, unset );
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    const auto idx = circuit.line( l ).output_index;
    if ( idx < 0 )
    {
      continue;
    }
    if ( static_cast<std::size_t>( idx ) >= num_outputs )
    {
      throw std::invalid_argument( "output_lines_of: output indices have a gap below " +
                                   std::to_string( idx ) );
    }
    if ( lines[static_cast<std::size_t>( idx )] != unset )
    {
      throw std::invalid_argument( "output_lines_of: output index " + std::to_string( idx ) +
                                   " is on two lines" );
    }
    lines[static_cast<std::size_t>( idx )] = l;
  }
  return lines;
}

std::vector<bool> evaluate_circuit( const reversible_circuit& circuit,
                                    const std::vector<bool>& inputs )
{
  const auto in_lines = input_lines_of( circuit );
  if ( inputs.size() != in_lines.size() )
  {
    throw std::invalid_argument( "evaluate_circuit: input arity mismatch" );
  }
  std::vector<bool> state( circuit.num_lines(), false );
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    if ( circuit.line( l ).is_constant_input )
    {
      state[l] = circuit.line( l ).constant_value;
    }
  }
  for ( std::size_t i = 0; i < in_lines.size(); ++i )
  {
    state[in_lines[i]] = inputs[i];
  }
  circuit.apply( state );
  const auto out_lines = output_lines_of( circuit );
  std::vector<bool> outputs( out_lines.size() );
  for ( std::size_t o = 0; o < out_lines.size(); ++o )
  {
    outputs[o] = state[out_lines[o]];
  }
  return outputs;
}

// --- exhaustive tiers --------------------------------------------------------

bool verify_against_truth_tables( const reversible_circuit& circuit,
                                  const std::vector<truth_table>& outputs )
{
  const auto num_inputs = static_cast<unsigned>( input_lines_of( circuit ).size() );
  if ( num_inputs > 24u )
  {
    throw std::invalid_argument( "verify_against_truth_tables: too many inputs" );
  }
  wide_simulator sim( circuit );
  if ( sim.output_lines().size() != outputs.size() )
  {
    return false;
  }
  for ( const auto& tt : outputs )
  {
    if ( tt.num_vars() != num_inputs )
    {
      return false;
    }
  }
  const auto mask = block_mask( num_inputs );
  const auto num_blocks = num_blocks_for( num_inputs );
  std::vector<std::uint64_t> words( std::size_t{ num_inputs } * W );
  for ( std::uint64_t blk = 0; blk < num_blocks; blk += W )
  {
    fill_counter_wide( num_inputs, blk, words );
    const auto& result = sim.evaluate( words );
    for ( std::size_t o = 0; o < outputs.size(); ++o )
    {
      for ( unsigned k = 0; k < W && blk + k < num_blocks; ++k )
      {
        // The counter-order batch of block blk+k is exactly block blk+k of
        // the truth table (bit i of index x = value of variable i).
        if ( ( result[o * W + k] ^ outputs[o].blocks()[blk + k] ) & mask )
        {
          return false;
        }
      }
    }
  }
  return true;
}

// --- the wide engine ---------------------------------------------------------

namespace
{

/// Throws std::invalid_argument unless the circuit has the AIG's input and
/// output counts.  Reads only the line table, so every tier can run it
/// before its (much larger) setup.
void check_interface( const reversible_circuit& circuit, const aig_network& aig,
                      const std::string& tier )
{
  if ( input_lines_of( circuit ).size() != aig.num_pis() ||
       output_lines_of( circuit ).size() != aig.num_pos() )
  {
    throw std::invalid_argument( tier + ": interface mismatch" );
  }
}

} // namespace

// The exhaustive tier: a counter-order enumeration with the spec simulated
// once per lane group.  Word-by-word comparison in block order keeps the
// first-counterexample contract and the per-assignment coverage accounting
// identical to a scalar counter-order scan.
partial_verify_report verify_against_aig_exhaustive_budgeted( const reversible_circuit& circuit,
                                                              const aig_network& aig,
                                                              const deadline& stop )
{
  const auto num_pis = aig.num_pis();
  if ( num_pis > 24u )
  {
    throw std::invalid_argument( "verify_against_aig_exhaustive: too many inputs" );
  }
  check_interface( circuit, aig, "verify_against_aig_exhaustive" );
  partial_verify_report report;
  report.assignments_requested = std::uint64_t{ 1 } << num_pis;
  if ( stop.expired() )
  {
    // The report of a first poll that fires, without building the
    // simulators.
    report.complete = false;
    return report;
  }
  wide_simulator sim( circuit );
  wide_aig_simulator spec( aig );
  const auto poll_deadline = !stop.unlimited();
  const auto mask = block_mask( num_pis );
  const auto num_blocks = num_blocks_for( num_pis );
  std::vector<std::uint64_t> words( std::size_t{ num_pis } * W );
  for ( std::uint64_t blk = 0; blk < num_blocks; blk += W )
  {
    if ( poll_deadline && stop.expired() )
    {
      report.complete = false;
      return report;
    }
    fill_counter_wide( num_pis, blk, words );
    const auto& expected = spec.evaluate( words );
    const auto& actual = sim.evaluate( words );
    for ( unsigned k = 0; k < W && blk + k < num_blocks; ++k )
    {
      if ( const auto diff = diff_word_wide( expected, actual, k ) & mask )
      {
        report.counterexample =
            unpack_wide_lane( words, k, static_cast<unsigned>( lsb_index( diff ) ) );
        report.assignments_completed += lsb_index( diff ) + 1u;
        return report;
      }
      report.assignments_completed +=
          std::min<std::uint64_t>( 64u, report.assignments_requested - ( blk + k ) * 64u );
    }
  }
  return report;
}

std::optional<std::vector<bool>> verify_against_aig_exhaustive( const reversible_circuit& circuit,
                                                                const aig_network& aig )
{
  return verify_against_aig_exhaustive_budgeted( circuit, aig, deadline{} ).counterexample;
}

// The sampled tier.  The rng stream is consumed one word per input per
// 64-lane block, in block order.  Lane masking plus per-64-block
// accounting keeps `assignments_completed` exact (never rounded up to
// lane-group granularity) when the request size is not lane-aligned.
partial_verify_report verify_against_aig_sampled_budgeted( const reversible_circuit& circuit,
                                                           const aig_network& aig,
                                                           const deadline& stop,
                                                           unsigned num_samples,
                                                           std::uint64_t seed )
{
  const auto num_pis = aig.num_pis();
  // When the whole input space is no larger than the sample budget,
  // enumerate it exhaustively: random sampling would draw duplicate
  // vectors and could certify a tiny design without ever covering it.
  if ( num_pis <= 24u && ( std::uint64_t{ 1 } << num_pis ) <= num_samples )
  {
    return verify_against_aig_exhaustive_budgeted( circuit, aig, stop );
  }
  check_interface( circuit, aig, "verify_against_aig_sampled" );
  const std::uint64_t total = std::uint64_t{ num_samples } + 2u;
  partial_verify_report report;
  report.assignments_requested = total;
  if ( stop.expired() )
  {
    report.complete = false;
    return report;
  }
  std::mt19937_64 rng( seed );
  wide_simulator sim( circuit );
  wide_aig_simulator spec( aig );
  const auto poll_deadline = !stop.unlimited();
  std::vector<std::uint64_t> words( std::size_t{ num_pis } * W );
  for ( std::uint64_t base = 0; base < total; base += std::uint64_t{ 64 } * W )
  {
    if ( poll_deadline && stop.expired() )
    {
      report.complete = false;
      return report;
    }
    // One rng word per input per 64-lane block = 64 independent random
    // assignments per word; words past the request stay zero (masked out)
    // without consuming the stream.  The first block pins lane 0 to
    // all-zero and lane 1 to all-one.
    for ( unsigned k = 0; k < W; ++k )
    {
      const auto covered = base + std::uint64_t{ 64 } * k < total;
      for ( unsigned i = 0; i < num_pis; ++i )
      {
        auto w = covered ? rng() : 0u;
        if ( covered && base == 0 && k == 0 )
        {
          w = ( w & ~std::uint64_t{ 3 } ) | 2u;
        }
        words[std::size_t{ i } * W + k] = w;
      }
    }
    const auto& expected = spec.evaluate( words );
    const auto& actual = sim.evaluate( words );
    for ( unsigned k = 0; k < W && base + std::uint64_t{ 64 } * k < total; ++k )
    {
      const auto lanes = std::min<std::uint64_t>( 64u, total - ( base + std::uint64_t{ 64 } * k ) );
      const auto lane_mask = lanes == 64u ? all_ones : ( std::uint64_t{ 1 } << lanes ) - 1u;
      if ( const auto diff = diff_word_wide( expected, actual, k ) & lane_mask )
      {
        report.counterexample =
            unpack_wide_lane( words, k, static_cast<unsigned>( lsb_index( diff ) ) );
        report.assignments_completed += lsb_index( diff ) + 1u;
        return report;
      }
      report.assignments_completed += lanes;
    }
  }
  return report;
}

std::optional<std::vector<bool>> verify_against_aig_sampled( const reversible_circuit& circuit,
                                                             const aig_network& aig,
                                                             unsigned num_samples,
                                                             std::uint64_t seed )
{
  return verify_against_aig_sampled_budgeted( circuit, aig, deadline{}, num_samples, seed )
      .counterexample;
}

// --- SAT tier ----------------------------------------------------------------

aig_network circuit_to_aig( const reversible_circuit& circuit )
{
  const auto in_lines = input_lines_of( circuit );
  const auto out_lines = output_lines_of( circuit );
  aig_network aig( static_cast<unsigned>( in_lines.size() ) );
  // Symbolic line state: a literal per line, updated gate by gate.
  std::vector<aig_lit> state( circuit.num_lines(), aig_network::const0 );
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    if ( circuit.line( l ).is_constant_input )
    {
      state[l] = aig_network::get_constant( circuit.line( l ).constant_value );
    }
  }
  for ( std::size_t i = 0; i < in_lines.size(); ++i )
  {
    state[in_lines[i]] = aig.pi( static_cast<unsigned>( i ) );
  }
  for ( const auto g : circuit.gates() )
  {
    std::vector<aig_lit> controls;
    controls.reserve( g.controls.size() );
    for ( const auto& c : g.controls )
    {
      controls.push_back( lit_not_cond( state[c.line], !c.positive ) );
    }
    const auto fire = aig.create_nary_and( std::move( controls ) );
    state[g.target] = aig.create_xor( state[g.target], fire );
  }
  for ( const auto line : out_lines )
  {
    aig.add_po( state[line] );
  }
  return aig;
}

std::optional<std::vector<bool>> verify_against_aig_sat( const reversible_circuit& circuit,
                                                         const aig_network& aig )
{
  sat::incremental_cec engine;
  return verify_against_aig_sat_budgeted( circuit, aig, engine, sat::check_limits{} )
      .counterexample;
}

sat_verify_outcome verify_against_aig_sat_budgeted( const reversible_circuit& circuit,
                                                    const aig_network& aig,
                                                    sat::incremental_cec& engine,
                                                    const sat::check_limits& limits )
{
  check_interface( circuit, aig, "verify_against_aig_sat" );
  sat_verify_outcome outcome;
  if ( aig.num_pis() <= sat_tier_max_enumerated_pis )
  {
    auto report = verify_against_aig_exhaustive_budgeted( circuit, aig, limits.stop );
    outcome.resolved = report.complete || report.counterexample.has_value();
    outcome.equivalent = outcome.resolved && !report.counterexample.has_value();
    outcome.counterexample = std::move( report.counterexample );
    return outcome;
  }
  if ( limits.stop.expired() )
  {
    // No verdict: skip extracting the circuit's AIG and encoding the miter,
    // which take seconds on wide designs.
    outcome.resolved = false;
    return outcome;
  }
  const auto checked = engine.check( aig, circuit_to_aig( circuit ), limits );
  outcome.resolved = checked.resolved;
  outcome.equivalent = checked.resolved && checked.equivalent;
  outcome.counterexample = checked.counterexample;
  return outcome;
}

reversible_circuit corrupt_circuit( const reversible_circuit& circuit, const aig_network& spec )
{
  auto corrupted = circuit;
  for ( std::size_t g = corrupted.num_gates(); g-- > 0; )
  {
    const auto original = corrupted.gate( g ).target;
    for ( std::uint32_t t = 0; t < corrupted.num_lines(); ++t )
    {
      const auto controls = corrupted.gate( g ).controls;
      const auto on_control = std::any_of( controls.begin(), controls.end(),
                                           [t]( const control& c ) { return c.line == t; } );
      if ( t == original || on_control )
      {
        continue;
      }
      corrupted.set_target( g, t );
      if ( verify_against_aig_exhaustive( corrupted, spec ).has_value() )
      {
        return corrupted;
      }
      corrupted.set_target( g, original );
    }
  }
  throw std::logic_error( "corrupt_circuit: no single retarget changes the function" );
}

} // namespace qsyn
