/// \file wide_sim.hpp
/// \brief Width-generic bit-parallel simulation: 64/256/512 assignments per
/// gate pass, with runtime-dispatched portable / AVX2 / AVX-512 kernels.
///
/// The engine packs a *lane group* of `W` consecutive 64-bit words per
/// circuit line (`sim_width`: W = 1, 4, or 8 — 64, 256, or 512
/// assignments per gate pass).  Word k, bit j of a group is assignment
/// `k * 64 + j` of the batch, so every width produces bit-identical
/// verdicts and the same first-counterexample; only the wall clock
/// changes.  w64 is the plain one-word-per-line 64-bit simulator.
///
/// Width and backend are independent axes:
///   * **width** (`sim_width`) is a runtime parameter — tests exercise all
///     widths on any machine;
///   * **backend** (`simd_backend`, logic/simd.hpp) is how a width's group
///     operations are executed: portable unrolled `uint64` lanes, AVX2
///     256-bit words, or AVX-512 512-bit words.  Every build compiles all
///     three; the dispatcher picks one at runtime via cpuid, capped by the
///     `QSYN_SIMD` environment variable.
///
/// The per-circuit `wide_simulator` runs the gate-cascade kernel
/// (wide_sim_kernels.hpp).  The spec-side `wide_aig_simulator` runs the
/// library's one AIG slot-program kernel (`run_slot_program`,
/// logic/aig_slots.hpp), the same dispatched kernel that computes the
/// front end's output truth tables (`aig_network::simulate_outputs`).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "../logic/aig.hpp"
#include "../logic/aig_slots.hpp"
#include "../logic/simd.hpp"
#include "circuit.hpp"

namespace qsyn
{

/// Number of 64-bit words settled per gate pass: 64, 256, or 512
/// assignment lanes.
enum class sim_width : unsigned
{
  w64 = 1,
  w256 = 4,
  w512 = 8,
};

/// Words per lane group of a width.
constexpr unsigned words_of( sim_width w )
{
  return static_cast<unsigned>( w );
}

/// Assignment lanes per group of a width.
constexpr unsigned lanes_of( sim_width w )
{
  return words_of( w ) * 64u;
}

/// Smallest width whose lane group covers `assignments` in one pass, capped
/// at w512.  Verdicts are width-independent; this only picks the fastest
/// pass shape for a known batch size.
sim_width auto_sim_width( std::uint64_t assignments );

/// The backend the dispatcher selects for `width` on this machine
/// (`active_simd_backend( words_of( width ) )`, logic/simd.hpp).  w64
/// always runs portable.
inline simd_backend active_simd_backend( sim_width width )
{
  return active_simd_backend( words_of( width ) );
}

/// Reusable width-generic circuit simulator.  The dispatched kernel reads
/// the circuit's gate arrays in place, so every `evaluate` call runs
/// allocation-free and branch-free with no copy of the gate list.  The
/// referenced circuit must outlive the simulator and must not change while
/// the simulator is in use.
class wide_simulator
{
public:
  wide_simulator( const reversible_circuit& circuit, sim_width width );

  /// Simulates one lane group per input.  `input_words` holds `words_of
  /// (width())` consecutive words per input variable, input-major:
  /// `input_words[i * W + k]` is word k of input i (bit j = assignment
  /// `k * 64 + j`).  Returns one group per output in the same layout; the
  /// reference stays valid until the next call.
  const std::vector<std::uint64_t>& evaluate( const std::vector<std::uint64_t>& input_words );

  sim_width width() const { return width_; }
  simd_backend backend() const { return backend_; }
  const std::vector<std::uint32_t>& input_lines() const { return in_lines_; }
  const std::vector<std::uint32_t>& output_lines() const { return out_lines_; }

private:
  const reversible_circuit* circuit_;
  sim_width width_;
  simd_backend backend_;
  std::vector<std::uint32_t> in_lines_;
  std::vector<std::uint32_t> out_lines_;
  std::vector<std::uint32_t> one_lines_; ///< lines with constant-1 inputs
  std::vector<std::uint64_t> state_;
  std::vector<std::uint64_t> outputs_;
};

/// Width-generic AIG pattern simulator, the spec-side counterpart of
/// `wide_simulator`.  The constructor compiles the AIG once into a
/// live-slot program (logic/aig_slots.hpp, 12 B per AND); one walk of it
/// settles a whole lane group, and the value buffer holds one group per
/// *live* slot, not per node (424 groups for optimized NEWTON(16)'s 72 709
/// nodes).  Program and buffer persist across calls.
class wide_aig_simulator
{
public:
  wide_aig_simulator( const aig_network& aig, sim_width width );

  /// Simulates one lane group per PI (`pi_words[i * W + k]`, layout as in
  /// `wide_simulator::evaluate`).  Returns one group per PO; the reference
  /// stays valid until the next call.
  const std::vector<std::uint64_t>& evaluate( const std::vector<std::uint64_t>& pi_words );

  sim_width width() const { return width_; }
  simd_backend backend() const { return backend_; }
  unsigned num_pis() const { return num_pis_; }
  unsigned num_pos() const { return static_cast<unsigned>( program_.pos.size() ); }
  /// Lane groups the value buffer holds: constant, PIs, and the most AND
  /// values live at once.
  std::uint32_t num_slots() const { return program_.num_slots; }

private:
  sim_width width_;
  simd_backend backend_;
  unsigned num_pis_;
  aig_slot_program program_;
  std::vector<std::uint64_t> values_; ///< one group per slot
  std::vector<std::uint64_t> outputs_;
};

} // namespace qsyn
