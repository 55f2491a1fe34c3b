#include "aig_slots.hpp"

#include "simd_kernels.hpp"

namespace qsyn
{

aig_slot_program compile_slot_program( const aig_network& aig )
{
  const auto num_nodes = static_cast<std::uint32_t>( aig.num_nodes() );
  const auto first_and = aig.num_pis() + 1u;

  // Pass 1: the last AND that reads each node.  0 means no reader (no AND
  // is node 0); `kept` marks the constant, the PIs and the PO nodes, whose
  // slots are never returned.  Both fields of a node sit side by side: a
  // fanin lookup of pass 2 touches one cache line.
  constexpr std::uint32_t kept = 0xffffffffu;
  struct node_state
  {
    std::uint32_t last_reader;
    std::uint32_t slot;
  };
  std::vector<node_state> state( num_nodes, node_state{ 0u, 0u } );
  for ( auto n = first_and; n < num_nodes; ++n )
  {
    state[lit_node( aig.fanin0( n ) )].last_reader = n;
    state[lit_node( aig.fanin1( n ) )].last_reader = n;
  }
  for ( const auto po : aig.pos() )
  {
    state[lit_node( po )].last_reader = kept;
  }
  for ( std::uint32_t n = 0; n < first_and; ++n )
  {
    state[n] = { kept, n };
  }

  // Pass 2: slots in topological order, branch-free (whether a slot is
  // freed or reused is data-dependent, so branches would mispredict at
  // every other node) and written in place (three push_backs per AND
  // measured ~1.4x slower).  The free stack never holds more than the
  // AND slots handed out so far, plus the two pushes before a pop.
  aig_slot_program program;
  program.ands.resize( 3u * aig.num_ands() );
  auto* op = program.ands.data();
  std::vector<std::uint32_t> free_slots( aig.num_ands() + 3u );
  std::uint32_t top = 0;
  auto num_slots = first_and;
  for ( auto n = first_and; n < num_nodes; ++n, op += 3 )
  {
    const auto f0 = aig.fanin0( n );
    const auto f1 = aig.fanin1( n );
    const auto n0 = lit_node( f0 );
    const auto n1 = lit_node( f1 );
    const auto s0 = state[n0].slot;
    const auto s1 = state[n1].slot;
    // Fanins read here for the last time free their slots before n takes
    // one: a simulator loads both fanins before it stores.
    free_slots[top] = s0;
    top += state[n0].last_reader == n ? 1u : 0u;
    free_slots[top] = s1;
    top += state[n1].last_reader == n && n1 != n0 ? 1u : 0u;
    const auto reuse = top != 0u;
    top -= reuse ? 1u : 0u;
    const auto out = reuse ? free_slots[top] : num_slots;
    num_slots += reuse ? 0u : 1u;
    state[n].slot = out;
    // Nothing reads n: its slot goes straight back.
    free_slots[top] = out;
    top += state[n].last_reader == 0u ? 1u : 0u;
    op[0] = out;
    op[1] = s0 << 1 | ( f0 & 1u );
    op[2] = s1 << 1 | ( f1 & 1u );
  }
  program.pos.reserve( aig.num_pos() );
  for ( const auto po : aig.pos() )
  {
    program.pos.push_back( state[lit_node( po )].slot << 1 | ( po & 1u ) );
  }
  program.num_slots = num_slots;
  return program;
}

void run_slot_program( const aig_slot_program& program, simd_backend backend,
                       std::uint64_t* values )
{
  simd_detail::slot_kernels_for( backend ).aig( program.ands.data(), program.num_ands(), values );
}

} // namespace qsyn
