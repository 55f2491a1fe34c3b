/// \file table2_functional.cpp
/// \brief Reproduces Table II: symbolic functional reversible synthesis.
///
/// Flow: Verilog -> AIG -> dc2 -> collapse -> optimum embedding -> TBS.
/// The paper's headline here is the *qubit* column: the optimum embedding
/// uses 2n-1 lines (less than the 2n of an out-of-place design), identical
/// for INTDIV and NEWTON, at the price of an enormous T-count (Toffoli
/// gates with controls on nearly all lines pay the quadratic no-ancilla
/// decomposition).
///
/// Paper reference (n: qubits / INTDIV T-count): 4: 7/597, 8: 15/51 386,
/// 10: 19/380 009, 16: 31/71 155 258.  Our explicit transformation-based
/// engine reproduces only the qubit column.  Our T-counts are far higher
/// and grow much faster: INTDIV goes from 13 421 at n = 4 to 22 169 259 at
/// n = 8, against the paper's 597 and 51 386 (the authors ran a
/// BDD-symbolic TBS; see docs/ARCHITECTURE.md and ROADMAP item 6).
///
/// Default sweep n = 4..8 (seconds); --max-n up to ~10 stays practical.

#include <cstdio>

#include "core/flows.hpp"

#include "max_n_arg.hpp"

int main( int argc, char** argv )
{
  using namespace qsyn;
  const unsigned max_n = parse_max_n_arg( argc, argv, "table2_functional", 8 );

  std::printf( "TABLE II: RESULTS WITH SYMBOLIC FUNCTIONAL REVERSIBLE SYNTHESIS\n" );
  std::printf( "%4s | %28s | %28s\n", "", "INTDIV(n)", "NEWTON(n)" );
  std::printf( "%4s | %6s %13s %7s | %6s %13s %7s\n", "n", "qubits", "T-count", "time",
               "qubits", "T-count", "time" );
  std::printf( "-----+------------------------------+------------------------------\n" );
  for ( unsigned n = 4; n <= max_n; ++n )
  {
    flow_params params;
    params.kind = flow_kind::functional;
    params.verify = n <= 8; // exhaustive check up to 2^8 inputs
    const auto rd = run_reciprocal_flow( reciprocal_design::intdiv, n, params );
    const auto rn = run_reciprocal_flow( reciprocal_design::newton, n, params );
    std::printf( "%4u | %6u %13llu %6.2fs | %6u %13llu %6.2fs%s\n", n, rd.costs.qubits,
                 static_cast<unsigned long long>( rd.costs.t_count ), rd.runtime_seconds,
                 rn.costs.qubits, static_cast<unsigned long long>( rn.costs.t_count ),
                 rn.runtime_seconds,
                 ( params.verify && ( !rd.verified || !rn.verified ) ) ? "  VERIFY-FAIL" : "" );
  }
  std::printf( "\npaper (INTDIV): n=4: 7 qb/597 T, n=8: 15 qb/51 386 T, n=10: 19 qb/380 009 T\n" );
  std::printf( "qubit column = 2n-1 (optimum embedding) is reproduced exactly.\n" );
  return 0;
}
