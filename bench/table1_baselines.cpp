/// \file table1_baselines.cpp
/// \brief Reproduces Table I: baseline results with manual design.
///
/// RESDIV(n): restoring-division reciprocal at 2n bits [24].
/// QNEWTON(n): manual Newton-Raphson design with variable per-iteration
/// precision (in the spirit of [12], [13]).
///
/// Paper reference values (qubits / T-count):
///   n=8 :  RESDIV  48 /   8 512    QNEWTON 111 /    14 632
///   n=16:  RESDIV  96 /  34 944    QNEWTON 234 /    64 004
///   n=32:  RESDIV 192 / 141 568    QNEWTON 615 /   352 440
///   n=64:  RESDIV 384 / 569 856    QNEWTON 1226 / 1 405 284
///
/// Absolute values differ by constant factors (our adder/encoder
/// constructions are not byte-identical to the authors'), but the scaling
/// (T ~ n^2, QNEWTON using ~2-2.5x the qubits of RESDIV) is the
/// reproduction target; see EXPERIMENTS.md.

#include <cstdio>

#include "baseline/qnewton.hpp"
#include "baseline/resdiv.hpp"
#include "common/timer.hpp"
#include "reversible/cost.hpp"

#include "max_n_arg.hpp"

int main( int argc, char** argv )
{
  using namespace qsyn;
  const unsigned max_n = parse_max_n_arg( argc, argv, "table1_baselines", 64 );

  std::printf( "TABLE I: BASELINE RESULTS WITH MANUAL DESIGN\n" );
  std::printf( "%4s | %28s | %28s\n", "", "RESDIV(n)", "QNEWTON(n)" );
  std::printf( "%4s | %8s %12s %6s | %8s %12s %6s\n", "n", "qubits", "T-count", "time",
               "qubits", "T-count", "time" );
  std::printf( "-----+------------------------------+------------------------------\n" );
  for ( const unsigned n : { 8u, 16u, 32u, 64u } )
  {
    if ( n > max_n )
    {
      break;
    }
    stopwatch w1;
    const auto resdiv = build_resdiv_reciprocal( n );
    const auto rd = report_costs( resdiv.circuit );
    const auto t1 = w1.elapsed_seconds();
    stopwatch w2;
    const auto qnewton = build_qnewton( n );
    const auto qn = report_costs( qnewton.circuit );
    const auto t2 = w2.elapsed_seconds();
    std::printf( "%4u | %8u %12llu %5.2fs | %8u %12llu %5.2fs\n", n, rd.qubits,
                 static_cast<unsigned long long>( rd.t_count ), t1, qn.qubits,
                 static_cast<unsigned long long>( qn.t_count ), t2 );
  }
  std::printf( "\npaper:  RESDIV 48/96/192/384 qubits, 8512/34944/141568/569856 T\n" );
  std::printf( "        QNEWTON 111/234/615/1226 qubits, 14632/64004/352440/1405284 T\n" );
  return 0;
}
