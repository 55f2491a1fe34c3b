/// \file aig_slots.hpp
/// \brief Live-slot programs: an AIG compiled for simulation so that value
/// storage is kept only for the nodes live at each step.
///
/// A simulator that keeps one value per AIG node holds every node's value
/// until the end of the pass, although a node is needed only until its
/// last reader has been computed.  `compile_slot_program` walks the network
/// once to find each node's last reader and once more to give every AND a
/// *slot* from a LIFO free list, returning a fanin's slot as soon as its
/// last reader has been compiled.  On optimized designs the live set is a
/// tiny fraction of the network (424 slots for NEWTON(16)'s 72 709 nodes),
/// so both AIG simulators — `wide_aig_simulator` (verification) and
/// `aig_network::simulate_outputs` (ESOP extraction, collapse) — size their
/// value buffers by `num_slots` instead of `num_nodes`.  Both run the
/// program through one kernel, `run_slot_program`, dispatched to the
/// portable, AVX2 or AVX-512 backend by cpuid and the `QSYN_SIMD` cap
/// (simd.hpp): there is no other AIG simulation loop over a slot program.
///
/// Slot layout: slot 0 is the constant false, slots 1..num_pis the primary
/// inputs in order (both fixed), the rest are shared by AND nodes.  A
/// simulator runs `ands` in order; per AND it loads both fanins before it
/// stores the result, so an AND may take the slot of a fanin it reads for
/// the last time.  PO nodes keep their slot to the end; an AND nothing
/// reads gets its slot back at once.  Every output is bit-identical to a
/// per-node simulation by construction.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aig.hpp"
#include "simd.hpp"

namespace qsyn
{

/// An AIG compiled to slot operations.  A slot reference is `slot << 1 |
/// complement`, like an AIG literal over slots.
struct aig_slot_program
{
  /// Three words per AND node, in topological order: the out slot, then
  /// the two fanin slot references (12 B per AND).
  std::vector<std::uint32_t> ands;
  /// One slot reference per PO.
  std::vector<std::uint32_t> pos;
  /// Number of value slots a simulator must hold (>= 1 + num_pis).
  std::uint32_t num_slots = 0;

  std::size_t num_ands() const { return ands.size() / 3u; }
};

/// Compiles `aig` into a live-slot program (two linear passes; transient
/// memory of three 32-bit words per node).
aig_slot_program compile_slot_program( const aig_network& aig );

/// Runs `program`'s ANDs on `backend`'s kernel (as `active_simd_backend`
/// returns it) over one lane group of `lane_group_words` consecutive words
/// per slot.  The caller fills slot 0 (zero) and the PI slots and reads
/// the POs' slots afterwards.
void run_slot_program( const aig_slot_program& program, simd_backend backend,
                       std::uint64_t* values );

} // namespace qsyn
