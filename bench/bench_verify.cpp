/// \file bench_verify.cpp
/// \brief Benchmark of the verification engine on exhaustive
/// circuit-vs-AIG verification of the INTDIV/NEWTON designs.
///
/// Per (design, bitwidth, flow) case it times the scalar seed path (one
/// `std::vector<bool>` assignment at a time) against the wide engine
/// (`speedup`), and the SAT tier three ways, each
/// including the circuit's extraction where it needs one: the monolithic
/// reference miter (`sat::check_equivalence` on `circuit_to_aig`), and
/// `verify_against_aig_sat_budgeted` as the flows call it — on a fresh
/// engine and as a re-check on a persistent engine.  The INTDIV/NEWTON
/// cases have 7-8 inputs, so the tier proves them by enumeration without
/// touching either engine: their cold and warm timings measure the same
/// enumeration.  One 17-input 9+8-bit adder (`adder-n17-hier`) is wider
/// than the enumeration bound, so its SAT timings measure
/// `sat::incremental_cec` itself.  Every tier must accept the correct
/// circuit and reject a corrupted copy with a *real* counterexample, and
/// below the enumeration bound the SAT tier's must be the exhaustive
/// tier's; the exhaustive tier's reports on mixed pass/fail candidates
/// must equal the scalar enumeration's (`reports_agree`), and the
/// corrupted circuit's counterexample is recorded as a bit string (`cex`)
/// so runs on the AVX and portable backends can be diffed.  It writes
/// BENCH_verify.json (schema 8, see docs/ARCHITECTURE.md), which
/// scripts/run_bench.sh gates on.
///
/// Usage: bench_verify [--out FILE] [--quick] [--sim-only]
///   --sim-only skips the SAT tier entirely (timings and verdicts); it is
///   what run_bench.sh uses for the cross-backend verdict-identity pass
///   (one binary, run with QSYN_SIMD unset and at `portable`), where only
///   the simulation tiers are SIMD-relevant.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/flows.hpp"
#include "reversible/verify.hpp"
#include "sat/cnf.hpp"
#include "sat/incremental.hpp"
#include "synth/aig_optimize.hpp"
#include "verilog/elaborator.hpp"

namespace
{

using namespace qsyn;

/// The seed's scalar exhaustive check as a coverage report: one
/// heap-allocated assignment and one full AIG + circuit evaluation per
/// input vector, stopping at the first failing `x` in counter order
/// (`x + 1` assignments completed).  Kept here as the reference the wide
/// engine is measured (and bit-compared) against.
partial_verify_report scalar_exhaustive( const reversible_circuit& circuit,
                                         const aig_network& aig )
{
  const auto num_pis = aig.num_pis();
  partial_verify_report report;
  report.assignments_requested = std::uint64_t{ 1 } << num_pis;
  for ( std::uint64_t x = 0; x < report.assignments_requested; ++x )
  {
    std::vector<bool> inputs( num_pis );
    for ( unsigned i = 0; i < num_pis; ++i )
    {
      inputs[i] = ( x >> i ) & 1u;
    }
    if ( aig.evaluate( inputs ) != evaluate_circuit( circuit, inputs ) )
    {
      report.counterexample = inputs;
      report.assignments_completed = x + 1u;
      return report;
    }
  }
  report.assignments_completed = report.assignments_requested;
  return report;
}

/// Runs `fn` repeatedly until ~0.5 s of wall clock accumulates (at least
/// once) and returns the average milliseconds per run.  The accumulation
/// window keeps the sub-millisecond wide timings stable enough for the
/// regression gate in scripts/run_bench.sh.
template<typename Fn>
double time_ms( Fn&& fn )
{
  stopwatch watch;
  unsigned reps = 0;
  double elapsed = 0.0;
  do
  {
    fn();
    ++reps;
    elapsed = watch.elapsed_seconds();
  } while ( elapsed < 0.5 && reps < 100000u );
  return elapsed * 1000.0 / reps;
}

struct case_result
{
  std::string name;
  unsigned pis = 0;
  unsigned lines = 0;
  std::size_t gates = 0;
  double scalar_ms = 0.0;
  double wide_ms = 0.0;      ///< wide single-candidate exhaustive pass
  double speedup = 0.0;      ///< wide vs scalar
  std::string simd_backend;  ///< dispatched kernel backend
  std::string cex;           ///< corrupted-circuit counterexample, bit i = input i
  double sat_mono_ms = 0.0;  ///< monolithic reference (sat::check_equivalence)
  double sat_ms = 0.0;       ///< SAT tier on a fresh engine (cold)
  double sat_warm_ms = 0.0;  ///< SAT tier re-check on a persistent engine (warm)
  double sat_speedup = 0.0;  ///< monolithic vs cold SAT tier
  bool tiers_agree = true;      ///< all tiers accept the correct circuit,
                                ///< scalar == wide bit-for-bit
  bool corrupt_rejected = true; ///< all tiers reject the corrupted circuit
  bool reports_agree = true;    ///< exhaustive reports bit-identical to the
                                ///< scalar enumeration's, per candidate
};

std::string cex_string( const std::optional<std::vector<bool>>& cex )
{
  if ( !cex )
  {
    return "none";
  }
  std::string s;
  s.reserve( cex->size() );
  for ( const auto bit : *cex )
  {
    s.push_back( bit ? '1' : '0' );
  }
  return s;
}

bool reports_equal( const partial_verify_report& a, const partial_verify_report& b )
{
  return a.counterexample == b.counterexample &&
         a.assignments_requested == b.assignments_requested &&
         a.assignments_completed == b.assignments_completed && a.complete == b.complete;
}

/// A 9+8-bit adder: 17 inputs, one more than the SAT tier enumerates.
const char* const wide_adder_verilog = "module add(a, b, s);\n"
                                       "  input [8:0] a;\n"
                                       "  input [7:0] b;\n"
                                       "  output [9:0] s;\n"
                                       "  assign s = a + b;\n"
                                       "endmodule\n";

case_result run_case( const std::string& name, const std::string& verilog, flow_kind kind,
                      bool sim_only )
{
  case_result r;
  r.name = name + ( kind == flow_kind::esop_based ? "-esop" : "-hier" );

  const auto mod = verilog::elaborate_verilog( verilog );
  flow_params params;
  params.kind = kind;
  params.verify = false;
  const auto flow = run_flow_on_aig( mod.aig, params );
  const auto spec = optimize( mod.aig, params.optimization_rounds );
  const auto& circuit = flow.circuit;
  r.pis = spec.num_pis();
  r.lines = circuit.num_lines();
  r.gates = circuit.num_gates();

  // --- correct circuit: every tier must accept -------------------------------
  const auto scalar_cex = scalar_exhaustive( circuit, spec ).counterexample;
  const auto wide_cex = verify_against_aig_exhaustive( circuit, spec );

  // SAT tier, three ways, each timed as a whole call.  Monolithic
  // reference: extraction plus a fresh solver and one global miter per
  // call (kept in sat/cnf.hpp).
  bool mono_ok = true;
  bool cold_ok = true;
  bool warm_ok = true;
  if ( !sim_only )
  {
    const auto proven = []( const sat_verify_outcome& o ) { return o.resolved && o.equivalent; };
    r.sat_mono_ms = time_ms(
        [&] { mono_ok = sat::check_equivalence( spec, circuit_to_aig( circuit ) ).equivalent; } );
    // Cold: a fresh engine per call.  Above the enumeration bound this is
    // what the first `sat`-tier check of a sweep costs; at or below it the
    // tier enumerates, so cold and warm time the same work.
    r.sat_ms = time_ms( [&] {
      sat::incremental_cec cold;
      cold_ok = proven( verify_against_aig_sat_budgeted( circuit, spec, cold, {} ) );
    } );
    // Warm: a persistent engine re-checking after a first call (above the
    // bound, the cost every further configuration of a sweep pays).
    sat::incremental_cec warm_engine;
    (void)verify_against_aig_sat_budgeted( circuit, spec, warm_engine, {} );
    r.sat_warm_ms = time_ms(
        [&] { warm_ok = proven( verify_against_aig_sat_budgeted( circuit, spec, warm_engine, {} ) ); } );
    r.sat_speedup = r.sat_ms > 0.0 ? r.sat_mono_ms / r.sat_ms : 0.0;
  }
  r.tiers_agree = !scalar_cex && !wide_cex && cold_ok && mono_ok && warm_ok;

  r.scalar_ms = time_ms( [&] { (void)scalar_exhaustive( circuit, spec ); } );

  // --- the SIMD-wide engine ---------------------------------------------------
  r.simd_backend = simd_backend_name( active_simd_backend() );
  r.wide_ms = time_ms( [&] { (void)verify_against_aig_exhaustive( circuit, spec ); } );
  r.speedup = r.wide_ms > 0.0 ? r.scalar_ms / r.wide_ms : 0.0;

  // --- corrupted circuit: every tier must reject, scalar == wide -------------
  const auto corrupted = corrupt_circuit( circuit, spec );
  const auto scalar_bad = scalar_exhaustive( corrupted, spec ).counterexample;
  const auto wide_bad = verify_against_aig_exhaustive( corrupted, spec );
  r.corrupt_rejected = scalar_bad.has_value() && wide_bad.has_value();
  // Scalar and wide enumerate in the same order: identical counterexample.
  r.tiers_agree = r.tiers_agree && scalar_bad == wide_bad;
  r.cex = cex_string( wide_bad );
  if ( !sim_only )
  {
    const auto sat_bad = verify_against_aig_sat( corrupted, spec );
    const auto mono_bad = sat::check_equivalence( spec, circuit_to_aig( corrupted ) );
    r.corrupt_rejected = r.corrupt_rejected && sat_bad.has_value() && !mono_bad.equivalent;
    // Below the enumeration bound the SAT tier reports the exhaustive
    // tier's first failing assignment; the engine's and the monolithic
    // miter's counterexamples are solver-dependent and only have to be real.
    const auto is_real = [&]( const std::vector<bool>& cex ) {
      return evaluate_circuit( corrupted, cex ) != spec.evaluate( cex );
    };
    if ( r.pis <= sat_tier_max_enumerated_pis )
    {
      r.tiers_agree = r.tiers_agree && sat_bad == wide_bad;
    }
    else if ( sat_bad )
    {
      r.corrupt_rejected = r.corrupt_rejected && is_real( *sat_bad );
    }
    if ( mono_bad.counterexample )
    {
      r.corrupt_rejected = r.corrupt_rejected && is_real( *mono_bad.counterexample );
    }
  }

  // --- report bit-identity on mixed pass/fail candidates ----------------------
  // Candidates failing at different columns (the NOT flips every column,
  // the 3-control MCT only fires from column 7 on) pin the
  // first-counterexample contract and the per-assignment accounting
  // against the scalar enumeration.
  auto flip_first = circuit;
  flip_first.add_not( output_lines_of( circuit ).front() );
  auto flip_late = circuit;
  {
    const auto ins = input_lines_of( circuit );
    const std::vector<control> controls = { { ins[0], true }, { ins[1], true }, { ins[2], true } };
    auto target = output_lines_of( circuit ).front();
    for ( const auto line : output_lines_of( circuit ) )
    {
      if ( line != ins[0] && line != ins[1] && line != ins[2] )
      {
        target = line;
        break;
      }
    }
    flip_late.add_mct( controls, target );
  }
  for ( const reversible_circuit* candidate :
        std::initializer_list<const reversible_circuit*>{ &circuit, &flip_first, &flip_late,
                                                          &corrupted } )
  {
    r.reports_agree = r.reports_agree &&
                      reports_equal( verify_against_aig_exhaustive_budgeted( *candidate, spec,
                                                                             deadline{} ),
                                     scalar_exhaustive( *candidate, spec ) );
  }

  std::printf( "%-16s pis %2u  gates %6zu | scalar %9.3f ms | wide %8.4f ms (%6.1fx, %s) | "
               "sat mono %8.2f ms  tier %7.3f ms (%5.1fx)  warm %7.3f ms | %s%s%s\n",
               r.name.c_str(), r.pis, r.gates, r.scalar_ms, r.wide_ms, r.speedup,
               r.simd_backend.c_str(), r.sat_mono_ms, r.sat_ms, r.sat_speedup, r.sat_warm_ms,
               r.tiers_agree ? "agree" : "TIERS DIVERGED",
               r.corrupt_rejected ? "" : ", CORRUPTION MISSED",
               r.reports_agree ? "" : ", REPORTS DIVERGED" );
  return r;
}

void write_json( const char* path, const std::vector<case_result>& cases, bool sim_only )
{
  bool all_agree = true;
  bool reports_agree = true;
  double min_speedup = 0.0;
  double min_sat_speedup = 0.0;
  for ( const auto& c : cases )
  {
    all_agree = all_agree && c.tiers_agree && c.corrupt_rejected && c.reports_agree;
    reports_agree = reports_agree && c.reports_agree;
    min_speedup = min_speedup == 0.0 ? c.speedup : std::min( min_speedup, c.speedup );
    min_sat_speedup =
        min_sat_speedup == 0.0 ? c.sat_speedup : std::min( min_sat_speedup, c.sat_speedup );
  }
  FILE* f = std::fopen( path, "w" );
  if ( !f )
  {
    std::fprintf( stderr, "cannot open %s for writing\n", path );
    std::exit( 1 );
  }
  std::fprintf( f, "{\n  \"bench\": \"verify\",\n  \"schema_version\": 8,\n" );
  std::fprintf( f, "  \"sim_only\": %s,\n", sim_only ? "true" : "false" );
  std::fprintf( f, "  \"simd_backend\": \"%s\",\n", simd_backend_name( active_simd_backend() ) );
  std::fprintf( f, "  \"all_agree\": %s,\n", all_agree ? "true" : "false" );
  std::fprintf( f, "  \"reports_agree\": %s,\n", reports_agree ? "true" : "false" );
  std::fprintf( f, "  \"min_speedup\": %.1f,\n", min_speedup );
  std::fprintf( f, "  \"min_sat_speedup\": %.1f,\n", min_sat_speedup );
  std::fprintf( f, "  \"cases\": [\n" );
  for ( std::size_t i = 0; i < cases.size(); ++i )
  {
    const auto& c = cases[i];
    std::fprintf( f, "    {\n" );
    std::fprintf( f, "      \"name\": \"%s\",\n", c.name.c_str() );
    std::fprintf( f, "      \"pis\": %u,\n", c.pis );
    std::fprintf( f, "      \"lines\": %u,\n", c.lines );
    std::fprintf( f, "      \"gates\": %zu,\n", c.gates );
    std::fprintf( f, "      \"scalar_ms\": %.4f,\n", c.scalar_ms );
    std::fprintf( f, "      \"wide_ms\": %.4f,\n", c.wide_ms );
    std::fprintf( f, "      \"speedup\": %.1f,\n", c.speedup );
    std::fprintf( f, "      \"simd_backend\": \"%s\",\n", c.simd_backend.c_str() );
    std::fprintf( f, "      \"cex\": \"%s\",\n", c.cex.c_str() );
    std::fprintf( f, "      \"sat_mono_ms\": %.2f,\n", c.sat_mono_ms );
    std::fprintf( f, "      \"sat_ms\": %.4f,\n", c.sat_ms );
    std::fprintf( f, "      \"sat_warm_ms\": %.4f,\n", c.sat_warm_ms );
    std::fprintf( f, "      \"sat_speedup\": %.1f,\n", c.sat_speedup );
    std::fprintf( f, "      \"tiers_agree\": %s,\n", c.tiers_agree ? "true" : "false" );
    std::fprintf( f, "      \"corrupt_rejected\": %s,\n", c.corrupt_rejected ? "true" : "false" );
    std::fprintf( f, "      \"reports_agree\": %s\n", c.reports_agree ? "true" : "false" );
    std::fprintf( f, "    }%s\n", i + 1 < cases.size() ? "," : "" );
  }
  std::fprintf( f, "  ]\n}\n" );
  std::fclose( f );
}

} // namespace

int main( int argc, char** argv )
{
  // An unknown flag (and --help) must stop before any case runs: a bare
  // run writes BENCH_verify.json into the current directory.
  constexpr const char* usage = "usage: bench_verify [--out FILE] [--quick] [--sim-only]\n";
  const char* out_path = "BENCH_verify.json";
  bool quick = false;
  bool sim_only = false;
  for ( int i = 1; i < argc; ++i )
  {
    if ( std::strcmp( argv[i], "--out" ) == 0 && i + 1 < argc )
    {
      out_path = argv[++i];
    }
    else if ( std::strcmp( argv[i], "--quick" ) == 0 )
    {
      quick = true;
    }
    else if ( std::strcmp( argv[i], "--sim-only" ) == 0 )
    {
      sim_only = true;
    }
    else
    {
      std::fputs( usage, stderr );
      return 2;
    }
  }

  std::vector<case_result> cases;
  const unsigned max_n = quick ? 7u : 8u;
  for ( unsigned n = 7u; n <= max_n; ++n )
  {
    for ( const auto design : { reciprocal_design::intdiv, reciprocal_design::newton } )
    {
      for ( const auto kind : { flow_kind::esop_based, flow_kind::hierarchical } )
      {
        const std::string name = design == reciprocal_design::intdiv ? "intdiv" : "newton";
        cases.push_back( run_case( name + "-n" + std::to_string( n ),
                                   reciprocal_verilog( design, n ), kind, sim_only ) );
      }
    }
  }
  cases.push_back( run_case( "adder-n17", wide_adder_verilog, flow_kind::hierarchical, sim_only ) );

  write_json( out_path, cases, sim_only );
  std::printf( "\nwrote %s\n", out_path );

  bool ok = true;
  for ( const auto& c : cases )
  {
    ok = ok && c.tiers_agree && c.corrupt_rejected && c.reports_agree;
  }
  return ok ? 0 : 1;
}
