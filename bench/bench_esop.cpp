/// \file bench_esop.cpp
/// \brief Microbenchmark of the ESOP pipeline: PSDKRO extraction and
/// EXORCISM-style cube minimization (Sec. IV-B).
///
/// Runs ESOP extraction + exorcism over the paper's arithmetic benchmark
/// functions (INTDIV / NEWTON at several sizes) and over large random
/// ESOPs, and writes a BENCH_esop.json file with per-stage wall times and
/// term/literal counts, so that every future PR can extend the perf
/// trajectory.  The pre-rewrite all-pairs implementation (exhaustive
/// xor-equivalence validation, vector::erase deletion) is embedded below as
/// the reference; the `speedup` field in the JSON compares against it on
/// the same input.
///
/// Usage: bench_esop [--out FILE] [--skip-reference] [--quick]

#include <cstdio>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "synth/aig_optimize.hpp"
#include "synth/esop_extract.hpp"
#include "synth/exorcism.hpp"
#include "verilog/elaborator.hpp"
#include "verilog/generators.hpp"

namespace reference
{

using qsyn::cube;
using qsyn::esop;

// --- pre-rewrite implementation, kept verbatim as the baseline -------------

enum class lit_state : std::uint8_t
{
  absent,
  positive,
  negative
};

lit_state state_of( const cube& c, unsigned var )
{
  if ( !c.has_var( var ) )
  {
    return lit_state::absent;
  }
  return c.var_polarity( var ) ? lit_state::positive : lit_state::negative;
}

void set_state( cube& c, unsigned var, lit_state s )
{
  switch ( s )
  {
  case lit_state::absent:
    c.remove_literal( var );
    break;
  case lit_state::positive:
    c.add_literal( var, true );
    break;
  case lit_state::negative:
    c.add_literal( var, false );
    break;
  }
}

lit_state merge_state( lit_state a, lit_state b )
{
  const int ia = static_cast<int>( a );
  const int ib = static_cast<int>( b );
  return static_cast<lit_state>( 3 - ia - ib );
}

std::vector<unsigned> diff_positions( const cube& a, const cube& b )
{
  const auto diff_mask =
      ( a.mask ^ b.mask ) | ( ( a.polarity ^ b.polarity ) & ( a.mask & b.mask ) );
  std::vector<unsigned> positions;
  for ( unsigned v = 0; v < 64; ++v )
  {
    if ( ( diff_mask >> v ) & 1u )
    {
      positions.push_back( v );
    }
  }
  return positions;
}

bool xor_equivalent( const cube& a, const cube& b, const cube& c1, const cube* c2 )
{
  std::uint64_t vars = a.mask | b.mask | c1.mask;
  if ( c2 )
  {
    vars |= c2->mask;
  }
  std::vector<unsigned> idx;
  for ( unsigned v = 0; v < 64; ++v )
  {
    if ( ( vars >> v ) & 1u )
    {
      idx.push_back( v );
    }
  }
  for ( std::uint64_t m = 0; m < ( std::uint64_t{ 1 } << idx.size() ); ++m )
  {
    std::uint64_t input = 0;
    for ( std::size_t i = 0; i < idx.size(); ++i )
    {
      if ( ( m >> i ) & 1u )
      {
        input |= std::uint64_t{ 1 } << idx[i];
      }
    }
    const bool lhs = a.evaluate( input ) ^ b.evaluate( input );
    bool rhs = c1.evaluate( input );
    if ( c2 )
    {
      rhs ^= c2->evaluate( input );
    }
    if ( lhs != rhs )
    {
      return false;
    }
  }
  return true;
}

struct replacement
{
  cube first;
  std::optional<cube> second;

  int num_literals() const
  {
    return first.num_literals() + ( second ? second->num_literals() : 0 );
  }
  int num_cubes() const { return second ? 2 : 1; }
};

std::vector<replacement> candidates( const cube& a, const cube& b )
{
  const auto positions = diff_positions( a, b );
  std::vector<replacement> result;
  if ( positions.size() == 1u )
  {
    cube merged = a;
    set_state( merged, positions[0],
               merge_state( state_of( a, positions[0] ), state_of( b, positions[0] ) ) );
    result.push_back( { merged, std::nullopt } );
  }
  else if ( positions.size() == 2u )
  {
    const auto p1 = positions[0];
    const auto p2 = positions[1];
    const auto m1 = merge_state( state_of( a, p1 ), state_of( b, p1 ) );
    const auto m2 = merge_state( state_of( a, p2 ), state_of( b, p2 ) );
    {
      cube c1 = a;
      set_state( c1, p2, m2 );
      cube c2 = b;
      set_state( c2, p1, m1 );
      result.push_back( { c1, c2 } );
    }
    {
      cube c1 = a;
      set_state( c1, p1, m1 );
      cube c2 = b;
      set_state( c2, p2, m2 );
      result.push_back( { c1, c2 } );
    }
  }
  return result;
}

qsyn::exorcism_stats exorcism( esop& expression, unsigned max_passes = 16 )
{
  qsyn::exorcism_stats stats;
  expression.merge_identical_cubes();
  stats.initial_terms = expression.num_terms();
  stats.initial_literals = expression.num_literals();

  for ( unsigned pass = 0; pass < max_passes; ++pass )
  {
    ++stats.passes;
    bool improved = false;
    auto& terms = expression.terms;

    for ( std::size_t i = 0; i < terms.size(); ++i )
    {
      bool merged_i = false;
      for ( std::size_t j = i + 1u; j < terms.size() && !merged_i; ++j )
      {
        if ( terms[i].output_mask != terms[j].output_mask )
        {
          continue;
        }
        const auto dist = terms[i].product.distance( terms[j].product );
        if ( dist == 0 )
        {
          terms.erase( terms.begin() + static_cast<std::ptrdiff_t>( j ) );
          terms.erase( terms.begin() + static_cast<std::ptrdiff_t>( i ) );
          improved = true;
          merged_i = true;
          --i;
          break;
        }
        if ( dist > 2 )
        {
          continue;
        }
        const int old_literals =
            terms[i].product.num_literals() + terms[j].product.num_literals();
        const int old_cubes = 2;
        for ( const auto& cand : candidates( terms[i].product, terms[j].product ) )
        {
          if ( cand.num_cubes() > old_cubes ||
               ( cand.num_cubes() == old_cubes && cand.num_literals() >= old_literals ) )
          {
            continue;
          }
          if ( !xor_equivalent( terms[i].product, terms[j].product, cand.first,
                                cand.second ? &*cand.second : nullptr ) )
          {
            continue;
          }
          terms[i].product = cand.first;
          if ( cand.second )
          {
            terms[j].product = *cand.second;
          }
          else
          {
            terms.erase( terms.begin() + static_cast<std::ptrdiff_t>( j ) );
          }
          improved = true;
          merged_i = true;
          break;
        }
      }
    }
    expression.merge_identical_cubes();
    if ( !improved )
    {
      break;
    }
  }
  stats.final_terms = expression.num_terms();
  stats.final_literals = expression.num_literals();
  return stats;
}

} // namespace reference

namespace
{

using namespace qsyn;

struct case_result
{
  std::string name;
  unsigned num_inputs = 0;
  unsigned num_outputs = 0;
  std::size_t terms_initial = 0;
  std::size_t terms_final = 0;
  std::size_t literals_initial = 0;
  std::size_t literals_final = 0;
  unsigned passes = 0;
  double extract_ms = -1.0;   ///< < 0: not applicable
  double exorcism_ms = 0.0;
  double reference_ms = -1.0; ///< < 0: not run
  std::size_t reference_terms_final = 0;
  int verified = -1;          ///< -1: not checked, 0/1: result
};

/// Checks that minimization preserved every output truth table.
bool outputs_preserved( const esop& before, const esop& after )
{
  for ( unsigned o = 0; o < before.num_outputs; ++o )
  {
    if ( before.output_truth_table( o ) != after.output_truth_table( o ) )
    {
      return false;
    }
  }
  return true;
}

case_result run_case( const std::string& name, const esop& input, double extract_ms,
                      bool with_reference, bool verify )
{
  case_result r;
  r.name = name;
  r.num_inputs = input.num_inputs;
  r.num_outputs = input.num_outputs;
  r.extract_ms = extract_ms;

  esop minimized = input;
  stopwatch watch;
  const auto stats = exorcism( minimized, 64 );
  r.exorcism_ms = watch.elapsed_seconds() * 1e3;
  r.terms_initial = stats.initial_terms;
  r.terms_final = stats.final_terms;
  r.literals_initial = stats.initial_literals;
  r.literals_final = stats.final_literals;
  r.passes = stats.passes;

  if ( verify )
  {
    r.verified = outputs_preserved( input, minimized ) ? 1 : 0;
  }

  if ( with_reference )
  {
    esop ref = input;
    watch.restart();
    const auto ref_stats = reference::exorcism( ref, 64 );
    r.reference_ms = watch.elapsed_seconds() * 1e3;
    r.reference_terms_final = ref_stats.final_terms;
  }

  std::printf( "%-28s %5u in %3u out | %6zu -> %4zu terms (%2u passes) | %9.2f ms",
               name.c_str(), r.num_inputs, r.num_outputs, r.terms_initial, r.terms_final,
               r.passes, r.exorcism_ms );
  if ( r.reference_ms >= 0.0 )
  {
    std::printf( " | ref %9.2f ms -> %4zu terms (%.1fx)", r.reference_ms,
                 r.reference_terms_final, r.reference_ms / ( r.exorcism_ms > 0 ? r.exorcism_ms : 1e-3 ) );
  }
  if ( r.verified >= 0 )
  {
    std::printf( " | %s", r.verified ? "verified" : "MISMATCH" );
  }
  std::printf( "\n" );
  return r;
}

esop random_esop( unsigned num_inputs, unsigned num_outputs, std::size_t num_terms,
                  std::uint64_t seed )
{
  std::mt19937_64 rng( seed );
  const std::uint64_t var_mask = ( std::uint64_t{ 1 } << num_inputs ) - 1u;
  const std::uint64_t out_mask = ( std::uint64_t{ 1 } << num_outputs ) - 1u;
  esop e;
  e.num_inputs = num_inputs;
  e.num_outputs = num_outputs;
  e.terms.reserve( num_terms );
  for ( std::size_t t = 0; t < num_terms; ++t )
  {
    const auto mask = rng() & var_mask;
    const auto polarity = rng() & mask;
    auto outputs = rng() & out_mask;
    if ( outputs == 0u )
    {
      outputs = 1u;
    }
    e.terms.push_back( { cube{ mask, polarity }, outputs } );
  }
  return e;
}

esop minterm_esop( unsigned num_inputs, std::uint64_t seed )
{
  std::mt19937_64 rng( seed );
  const auto f =
      truth_table::from_function( num_inputs, [&]( std::uint64_t ) { return rng() & 1u; } );
  esop e;
  e.num_inputs = num_inputs;
  e.num_outputs = 1;
  const std::uint64_t all = ( std::uint64_t{ 1 } << num_inputs ) - 1u;
  for ( std::uint64_t m = 0; m < f.num_bits(); ++m )
  {
    if ( f.get_bit( m ) )
    {
      e.terms.push_back( { cube{ all, m }, 1u } );
    }
  }
  return e;
}

case_result run_arith_case( const std::string& name, const std::string& source,
                            bool with_reference, bool verify )
{
  const auto mod = verilog::elaborate_verilog( source );
  const auto optimized = optimize( mod.aig, 2 );
  stopwatch watch;
  const auto expression = esop_from_aig( optimized );
  const auto extract_ms = watch.elapsed_seconds() * 1e3;
  return run_case( name, expression, extract_ms, with_reference, verify );
}

void write_json( const char* path, const std::vector<case_result>& cases )
{
  FILE* f = std::fopen( path, "w" );
  if ( !f )
  {
    std::fprintf( stderr, "cannot open %s for writing\n", path );
    std::exit( 1 );
  }
  std::fprintf( f, "{\n  \"bench\": \"esop\",\n  \"schema_version\": 1,\n  \"cases\": [\n" );
  for ( std::size_t i = 0; i < cases.size(); ++i )
  {
    const auto& c = cases[i];
    std::fprintf( f, "    {\n" );
    std::fprintf( f, "      \"name\": \"%s\",\n", c.name.c_str() );
    std::fprintf( f, "      \"num_inputs\": %u,\n", c.num_inputs );
    std::fprintf( f, "      \"num_outputs\": %u,\n", c.num_outputs );
    std::fprintf( f, "      \"terms_initial\": %zu,\n", c.terms_initial );
    std::fprintf( f, "      \"terms_final\": %zu,\n", c.terms_final );
    std::fprintf( f, "      \"literals_initial\": %zu,\n", c.literals_initial );
    std::fprintf( f, "      \"literals_final\": %zu,\n", c.literals_final );
    std::fprintf( f, "      \"passes\": %u,\n", c.passes );
    if ( c.extract_ms >= 0.0 )
    {
      std::fprintf( f, "      \"extract_ms\": %.3f,\n", c.extract_ms );
    }
    else
    {
      std::fprintf( f, "      \"extract_ms\": null,\n" );
    }
    std::fprintf( f, "      \"exorcism_ms\": %.3f,\n", c.exorcism_ms );
    if ( c.reference_ms >= 0.0 )
    {
      std::fprintf( f, "      \"reference_ms\": %.3f,\n", c.reference_ms );
      std::fprintf( f, "      \"reference_terms_final\": %zu,\n", c.reference_terms_final );
      std::fprintf( f, "      \"speedup\": %.2f,\n",
                    c.reference_ms / ( c.exorcism_ms > 0 ? c.exorcism_ms : 1e-3 ) );
    }
    else
    {
      std::fprintf( f, "      \"reference_ms\": null,\n" );
      std::fprintf( f, "      \"reference_terms_final\": null,\n" );
      std::fprintf( f, "      \"speedup\": null,\n" );
    }
    if ( c.verified >= 0 )
    {
      std::fprintf( f, "      \"verified\": %s\n", c.verified ? "true" : "false" );
    }
    else
    {
      std::fprintf( f, "      \"verified\": null\n" );
    }
    std::fprintf( f, "    }%s\n", i + 1 < cases.size() ? "," : "" );
  }
  std::fprintf( f, "  ]\n}\n" );
  std::fclose( f );
}

} // namespace

int main( int argc, char** argv )
{
  // An unknown flag (and --help) must stop before any case runs: a bare
  // run writes BENCH_esop.json into the current directory.
  constexpr const char* usage = "usage: bench_esop [--out FILE] [--skip-reference] [--quick]\n";
  const char* out_path = "BENCH_esop.json";
  bool with_reference = true;
  bool quick = false;
  for ( int i = 1; i < argc; ++i )
  {
    if ( std::strcmp( argv[i], "--out" ) == 0 && i + 1 < argc )
    {
      out_path = argv[++i];
    }
    else if ( std::strcmp( argv[i], "--skip-reference" ) == 0 )
    {
      with_reference = false;
    }
    else if ( std::strcmp( argv[i], "--quick" ) == 0 )
    {
      quick = true;
    }
    else
    {
      std::fputs( usage, stderr );
      return 2;
    }
  }

  std::vector<case_result> cases;

  // Large random multi-output ESOPs (the >= 500-term acceptance workloads).
  cases.push_back(
      run_case( "random-n10-m2-t600", random_esop( 10, 2, 600, 0xe50b1 ), -1.0, with_reference,
                true ) );
  cases.push_back(
      run_case( "random-n12-m3-t900", random_esop( 12, 3, 900, 0xe50b2 ), -1.0, with_reference,
                true ) );
  // Dense single-mask workloads: the minterm expansion of random functions.
  // minterms-n11 (~1000 terms) is the acceptance workload for the speedup
  // trajectory: dense cubes make the reference pay both the all-pairs scan
  // and the exponential xor-equivalence validation.
  cases.push_back(
      run_case( "minterms-n10", minterm_esop( 10, 0xe50b3 ), -1.0, with_reference, true ) );
  cases.push_back(
      run_case( "minterms-n11", minterm_esop( 11, 0xe50b4 ), -1.0, with_reference, true ) );

  // The paper's arithmetic benchmark functions (Verilog -> AIG -> dc2 ->
  // PSDKRO extraction -> exorcism).  Reference runs on the larger designs
  // are skipped: the pre-rewrite exhaustive validation is exponential in
  // the cube support and takes minutes there.
  cases.push_back(
      run_arith_case( "intdiv-n5", verilog::generate_intdiv( 5 ), with_reference, true ) );
  cases.push_back(
      run_arith_case( "intdiv-n6", verilog::generate_intdiv( 6 ), with_reference, true ) );
  cases.push_back(
      run_arith_case( "newton-n5", verilog::generate_newton( 5 ), with_reference, true ) );
  if ( !quick )
  {
    cases.push_back( run_arith_case( "intdiv-n8", verilog::generate_intdiv( 8 ),
                                     with_reference, false ) );
    cases.push_back( run_arith_case( "newton-n6", verilog::generate_newton( 6 ),
                                     with_reference, false ) );
    // Wide-cube designs: the reference minimizer's exhaustive validation is
    // exponential in the cube support (2^20+ evaluations per rewrite), so
    // only the new engine is timed.
    cases.push_back(
        run_arith_case( "intdiv-n10", verilog::generate_intdiv( 10 ), false, false ) );
    cases.push_back(
        run_arith_case( "intdiv-n12", verilog::generate_intdiv( 12 ), false, false ) );
  }

  write_json( out_path, cases );
  std::printf( "\nwrote %s\n", out_path );
  return 0;
}
