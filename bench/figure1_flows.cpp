/// \file figure1_flows.cpp
/// \brief Reproduces Figure 1: the design-flow graph.
///
/// Figure 1 of the paper is the flow diagram connecting the four levels
/// (design, logic synthesis, reversible synthesis, quantum) with the
/// function representation at every interface.  This bench regenerates it
/// in two forms:
///   1. a Graphviz DOT rendering of the flow graph, and
///   2. a live end-to-end trace: INTDIV(4) is pushed down every path and
///      the representation sizes at each interface are printed.

#include <cstdio>

#include "core/flows.hpp"
#include "embed/embedding.hpp"
#include "synth/aig_optimize.hpp"
#include "synth/collapse.hpp"
#include "synth/esop_extract.hpp"
#include "synth/exorcism.hpp"
#include "synth/xmg_resynth.hpp"
#include "verilog/elaborator.hpp"
#include "verilog/generators.hpp"

int main()
{
  using namespace qsyn;

  std::printf( "FIGURE 1: DESIGN FLOWS (Graphviz)\n\n" );
  std::printf( "%s\n", R"DOT(digraph design_flows {
  rankdir=TB;
  subgraph cluster_design { label="design level";
    INTDIV [shape=box]; NEWTON [shape=box]; }
  subgraph cluster_logic { label="logic synthesis level";
    collapse [shape=box,label="optimize + collapse\n(dc2, truth table)"];
    exorcism [shape=box,label="optimize + exorcism\n(AIG -> ESOP)"];
    xmglut  [shape=box,label="optimize + xmglut\n(AIG -> XMG)"]; }
  subgraph cluster_rev { label="reversible synthesis level";
    functional [shape=box,label="symbolic functional\nsynthesis (embedding+TBS)"];
    esop_synth [shape=box,label="ESOP-based\nsynthesis (REVS, p)"];
    hier_synth [shape=box,label="hierarchical\nsynthesis (REVS)"]; }
  subgraph cluster_q { label="quantum level";
    arch [shape=box,label="architectures\n(qubits / T-count model)"]; }
  INTDIV -> collapse [label="Verilog"]; NEWTON -> collapse [label="Verilog"];
  INTDIV -> exorcism [label="Verilog"]; NEWTON -> exorcism [label="Verilog"];
  INTDIV -> xmglut  [label="Verilog"]; NEWTON -> xmglut  [label="Verilog"];
  collapse -> functional [label="truth table"];
  exorcism -> esop_synth [label="ESOP"];
  xmglut  -> hier_synth  [label="XMG"];
  functional -> arch [label="rev. circuit"];
  esop_synth -> arch [label="rev. circuit"];
  hier_synth -> arch [label="rev. circuit"];
})DOT" );

  std::printf( "\n\nLIVE TRACE: INTDIV(4) through every path\n\n" );
  const auto source = verilog::generate_intdiv( 4 );
  std::printf( "[design level]  Verilog, %zu characters\n", source.size() );
  const auto elaborated = verilog::elaborate_verilog( source );
  std::printf( "[logic level]   elaborated AIG: %zu AND nodes, depth %u\n",
               elaborated.aig.num_ands(), elaborated.aig.depth() );
  const auto optimized = optimize( elaborated.aig, 2 );
  std::printf( "[logic level]   dc2-optimized AIG: %zu AND nodes, depth %u\n",
               optimized.num_ands(), optimized.depth() );

  // Path 1: collapse -> truth table -> embedding -> TBS.
  {
    const auto tts = collapse_to_truth_tables( optimized );
    std::printf( "[interface]     truth table: %zu outputs over %u inputs, mu = %llu\n",
                 tts.size(), optimized.num_pis(),
                 static_cast<unsigned long long>( max_collisions_explicit( tts ) ) );
    flow_params params;
    params.kind = flow_kind::functional;
    const auto r = run_flow_on_aig( optimized, params );
    std::printf( "[reversible]    functional: %u qubits, %llu T, verified=%s\n",
                 r.costs.qubits, static_cast<unsigned long long>( r.costs.t_count ),
                 r.verified ? "yes" : "no" );
  }
  // Path 2: ESOP.
  {
    auto e = esop_from_aig( optimized );
    const auto stats = exorcism( e );
    std::printf( "[interface]     ESOP: %zu -> %zu cubes after exorcism\n",
                 stats.initial_terms, stats.final_terms );
    flow_params params;
    params.kind = flow_kind::esop_based;
    const auto r = run_flow_on_aig( optimized, params );
    std::printf( "[reversible]    ESOP-based: %u qubits, %llu T, verified=%s\n",
                 r.costs.qubits, static_cast<unsigned long long>( r.costs.t_count ),
                 r.verified ? "yes" : "no" );
  }
  // Path 3: XMG.
  {
    const auto xmg = xmg_from_aig( optimized );
    std::printf( "[interface]     XMG: %zu MAJ + %zu XOR nodes\n", xmg.num_maj(),
                 xmg.num_xor() );
    flow_params params;
    params.kind = flow_kind::hierarchical;
    const auto r = run_flow_on_aig( optimized, params );
    std::printf( "[reversible]    hierarchical: %u qubits, %llu T, verified=%s\n",
                 r.costs.qubits, static_cast<unsigned long long>( r.costs.t_count ),
                 r.verified ? "yes" : "no" );
  }
  std::printf( "\n[quantum level] cost model: see src/reversible/cost.hpp\n" );
  return 0;
}
