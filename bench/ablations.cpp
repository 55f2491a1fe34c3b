/// \file ablations.cpp
/// \brief google-benchmark suite: ablations of the design choices the paper
/// (and docs/ARCHITECTURE.md) call out, plus micro-benchmarks of the
/// synthesis kernels.
///
/// Ablations:
///  * exorcism on/off       — ESOP minimization effect on cube count/T,
///  * REVS p sweep          — factoring depth vs. T-count,
///  * cleanup strategies    — keep_garbage vs. bennett (qubits vs. T-count),
///  * TBS direction         — unidirectional vs. bidirectional gate counts,
///  * optimization rounds   — dc2 iterations vs. AIG size.

#include <benchmark/benchmark.h>

#include <numeric>
#include <random>

#include "core/flows.hpp"
#include "rsynth/tbs.hpp"
#include "synth/aig_optimize.hpp"
#include "synth/esop_extract.hpp"
#include "synth/exorcism.hpp"
#include "verilog/elaborator.hpp"
#include "verilog/generators.hpp"

using namespace qsyn;

namespace
{

aig_network intdiv_aig( unsigned n )
{
  return verilog::elaborate_verilog( verilog::generate_intdiv( n ) ).aig;
}

} // namespace

static void ablation_exorcism( benchmark::State& state )
{
  const bool enabled = state.range( 0 ) != 0;
  const auto aig = optimize( intdiv_aig( 6 ), 2 );
  std::size_t terms = 0;
  std::uint64_t t_count = 0;
  for ( auto _ : state )
  {
    flow_params params;
    params.kind = flow_kind::esop_based;
    params.run_exorcism = enabled;
    params.verify = false;
    const auto r = run_flow_on_aig( aig, params );
    terms = r.esop_terms;
    t_count = r.costs.t_count;
  }
  state.counters["esop_terms"] = static_cast<double>( terms );
  state.counters["t_count"] = static_cast<double>( t_count );
}
BENCHMARK( ablation_exorcism )->Arg( 0 )->Arg( 1 )->Unit( benchmark::kMillisecond );

static void ablation_revs_p( benchmark::State& state )
{
  const auto p = static_cast<unsigned>( state.range( 0 ) );
  const auto aig = optimize( intdiv_aig( 7 ), 2 );
  std::uint64_t t_count = 0;
  unsigned qubits = 0;
  for ( auto _ : state )
  {
    flow_params params;
    params.kind = flow_kind::esop_based;
    params.esop_p = p;
    params.verify = false;
    const auto r = run_flow_on_aig( aig, params );
    t_count = r.costs.t_count;
    qubits = r.costs.qubits;
  }
  state.counters["t_count"] = static_cast<double>( t_count );
  state.counters["qubits"] = static_cast<double>( qubits );
}
BENCHMARK( ablation_revs_p )->DenseRange( 0, 3 )->Unit( benchmark::kMillisecond );

static void ablation_cleanup_strategy( benchmark::State& state, cleanup_strategy cleanup )
{
  const auto aig = optimize( intdiv_aig( 8 ), 2 );
  std::uint64_t t_count = 0;
  unsigned qubits = 0;
  for ( auto _ : state )
  {
    flow_params params;
    params.kind = flow_kind::hierarchical;
    params.cleanup = cleanup;
    params.verify = false;
    const auto r = run_flow_on_aig( aig, params );
    t_count = r.costs.t_count;
    qubits = r.costs.qubits;
  }
  state.counters["t_count"] = static_cast<double>( t_count );
  state.counters["qubits"] = static_cast<double>( qubits );
}
BENCHMARK_CAPTURE( ablation_cleanup_strategy, keep_garbage, cleanup_strategy::keep_garbage )
    ->Unit( benchmark::kMillisecond );
BENCHMARK_CAPTURE( ablation_cleanup_strategy, bennett, cleanup_strategy::bennett )
    ->Unit( benchmark::kMillisecond );

static void ablation_tbs_direction( benchmark::State& state )
{
  const bool bidirectional = state.range( 0 ) != 0;
  std::mt19937_64 rng( 12345 );
  std::vector<std::uint64_t> perm( 1u << 10 );
  std::iota( perm.begin(), perm.end(), 0u );
  std::shuffle( perm.begin(), perm.end(), rng );
  std::size_t gates = 0;
  for ( auto _ : state )
  {
    tbs_params params;
    params.bidirectional = bidirectional;
    const auto c = tbs_synthesize( perm, params );
    gates = c.num_gates();
    benchmark::DoNotOptimize( c );
  }
  state.counters["gates"] = static_cast<double>( gates );
}
BENCHMARK( ablation_tbs_direction )->Arg( 0 )->Arg( 1 )->Unit( benchmark::kMillisecond );

static void ablation_optimization_rounds( benchmark::State& state )
{
  const auto rounds = static_cast<unsigned>( state.range( 0 ) );
  const auto aig = intdiv_aig( 8 );
  std::size_t nodes = 0;
  for ( auto _ : state )
  {
    const auto optimized = optimize( aig, rounds );
    nodes = optimized.num_ands();
  }
  state.counters["aig_nodes"] = static_cast<double>( nodes );
}
BENCHMARK( ablation_optimization_rounds )->DenseRange( 0, 3 )->Unit( benchmark::kMillisecond );

/// --- micro benchmarks of the kernels -------------------------------------

static void micro_aig_simulation( benchmark::State& state )
{
  const auto aig = intdiv_aig( static_cast<unsigned>( state.range( 0 ) ) );
  for ( auto _ : state )
  {
    benchmark::DoNotOptimize( aig.simulate_outputs() );
  }
}
BENCHMARK( micro_aig_simulation )->Arg( 6 )->Arg( 8 )->Arg( 10 );

static void micro_esop_extraction( benchmark::State& state )
{
  const auto aig = optimize( intdiv_aig( static_cast<unsigned>( state.range( 0 ) ) ), 1 );
  for ( auto _ : state )
  {
    benchmark::DoNotOptimize( esop_from_aig( aig ) );
  }
}
BENCHMARK( micro_esop_extraction )->Arg( 6 )->Arg( 8 );

static void micro_tbs_random_permutation( benchmark::State& state )
{
  std::mt19937_64 rng( 99 );
  std::vector<std::uint64_t> perm( std::uint64_t{ 1 } << state.range( 0 ) );
  std::iota( perm.begin(), perm.end(), 0u );
  std::shuffle( perm.begin(), perm.end(), rng );
  for ( auto _ : state )
  {
    benchmark::DoNotOptimize( tbs_synthesize( perm ) );
  }
}
BENCHMARK( micro_tbs_random_permutation )->Arg( 8 )->Arg( 10 )->Arg( 12 );

static void micro_verilog_elaboration( benchmark::State& state )
{
  const auto source = verilog::generate_newton( static_cast<unsigned>( state.range( 0 ) ) );
  for ( auto _ : state )
  {
    benchmark::DoNotOptimize( verilog::elaborate_verilog( source ) );
  }
}
BENCHMARK( micro_verilog_elaboration )->Arg( 8 )->Arg( 16 )->Unit( benchmark::kMillisecond );

BENCHMARK_MAIN();
