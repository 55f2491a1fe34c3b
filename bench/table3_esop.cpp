/// \file table3_esop.cpp
/// \brief Reproduces Table III: ESOP-based synthesis (REVS), p = 0 and p = 1.
///
/// Flow: Verilog -> AIG -> dc2 -> ESOP extraction -> exorcism -> REVS-style
/// cube-to-Toffoli synthesis.  At p = 0 the circuit uses exactly 2n qubits;
/// p = 1 factors shared control pairs into ancilla lines, trading extra
/// qubits for T-count.
///
/// Paper reference (INTDIV, p=0): n=5: 10 qb/232 T, n=8: 16/1 342,
/// n=10: 20/3 415, n=16: 32/52 376.  p=1 rows add a few lines and cut T by
/// ~10-30%.  The 2n qubit column is exact by construction; T-counts track
/// the paper's growth with implementation-dependent constants.
///
/// Default sweep n = 5..10; --max-n extends up to the flow's 20-input limit
/// (collapse + PSDKRO extraction grow exponentially in n: --max-n 18 takes
/// ~3 s and --max-n 20 ~11 s in total on a 4-vCPU Xeon, Release).

#include <cstdio>

#include "core/flows.hpp"

#include "max_n_arg.hpp"

int main( int argc, char** argv )
{
  using namespace qsyn;
  const unsigned max_n = parse_max_n_arg( argc, argv, "table3_esop", 10 );

  std::printf( "TABLE III: RESULTS WITH ESOP-BASED SYNTHESIS (REVS)\n" );
  std::printf( "%3s |%30s|%30s|%30s|%30s\n", "", " INTDIV p=0", " NEWTON p=0", " INTDIV p=1",
               " NEWTON p=1" );
  std::printf( "%3s |%7s %13s %7s |%7s %13s %7s |%7s %13s %7s |%7s %13s %7s\n", "n", "qubits",
               "T-count", "time", "qubits", "T-count", "time", "qubits", "T-count", "time",
               "qubits", "T-count", "time" );
  for ( unsigned n = 5; n <= max_n; ++n )
  {
    std::printf( "%3u |", n );
    for ( const unsigned p : { 0u, 1u } )
    {
      for ( const auto design : { reciprocal_design::intdiv, reciprocal_design::newton } )
      {
        flow_params params;
        params.kind = flow_kind::esop_based;
        params.esop_p = p;
        params.verify = n <= 9;
        const auto r = run_reciprocal_flow( design, n, params );
        std::printf( "%7u %13llu %6.2fs |", r.costs.qubits,
                     static_cast<unsigned long long>( r.costs.t_count ), r.runtime_seconds );
      }
    }
    std::printf( "\n" );
  }
  std::printf( "\npaper (INTDIV p=0): n=5: 10 qb/232 T, n=8: 16/1342, n=10: 20/3415\n" );
  std::printf( "qubits = 2n at p = 0 is reproduced exactly; p = 1 adds ancillae and\n" );
  std::printf( "reduces the control-weighted T-count.\n" );
  return 0;
}
