/// \file table4_hierarchical.cpp
/// \brief Reproduces Table IV: hierarchical synthesis via XMGs.
///
/// Flow: Verilog -> AIG -> dc2 -> 4-LUT mapping -> xmglut-style XMG
/// resynthesis -> hierarchical REVS synthesis (one Toffoli per MAJ, XOR
/// free, garbage kept — the configuration of the paper's Table IV).
///
/// Paper reference (INTDIV): n=16: 892 qb/5 607 T, n=32: 3 501/21 455,
/// n=64: 13 465/80 339, n=128: 51 897/308 364.  NEWTON pays roughly an
/// order of magnitude more on both axes (the flow cannot exploit the
/// Newton structure without collapsing it) — reproducing that gap is the
/// key qualitative target.
///
/// Default sweep: n in {8,16,32,64} for both designs; --max-n N stops at
/// N, and --max-n 128 extends both.

#include <cstdio>

#include "core/flows.hpp"

#include "max_n_arg.hpp"

int main( int argc, char** argv )
{
  using namespace qsyn;
  const unsigned max_n = parse_max_n_arg( argc, argv, "table4_hierarchical", 64 );

  std::printf( "TABLE IV: RESULTS WITH HIERARCHICAL SYNTHESIS\n" );
  std::printf( "%4s | %31s | %31s\n", "", "INTDIV(n)", "NEWTON(n)" );
  std::printf( "%4s | %9s %13s %7s | %9s %13s %7s\n", "n", "qubits", "T-count", "time",
               "qubits", "T-count", "time" );
  std::printf( "-----+---------------------------------+---------------------------------\n" );
  for ( const unsigned n : { 8u, 16u, 32u, 64u, 128u } )
  {
    if ( n > max_n )
    {
      break;
    }
    flow_params params;
    params.kind = flow_kind::hierarchical;
    params.cleanup = cleanup_strategy::keep_garbage;
    params.verify = n <= 16; // sampled simulation against the AIG
    const auto rd = run_reciprocal_flow( reciprocal_design::intdiv, n, params );
    std::printf( "%4u | %9u %13llu %6.1fs |", n, rd.costs.qubits,
                 static_cast<unsigned long long>( rd.costs.t_count ), rd.runtime_seconds );
    const auto rn = run_reciprocal_flow( reciprocal_design::newton, n, params );
    std::printf( " %9u %13llu %6.1fs\n", rn.costs.qubits,
                 static_cast<unsigned long long>( rn.costs.t_count ), rn.runtime_seconds );
  }
  std::printf( "\npaper (INTDIV): n=16: 892 qb/5607 T, n=32: 3501/21455, n=64: 13465/80339\n" );
  std::printf( "paper (NEWTON): n=16: 10713 qb/73080 T, n=32: 56207/392917\n" );
  return 0;
}
