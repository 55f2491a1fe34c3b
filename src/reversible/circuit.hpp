/// \file circuit.hpp
/// \brief Reversible circuits over the mixed-polarity multiple-controlled
/// Toffoli gate library (paper Sec. II-C).
///
/// A circuit is a cascade of Toffoli gates over `num_lines()` lines.  Each
/// gate has a set of positive/negative controls and one target; the target
/// is inverted iff every positive control reads 1 and every negative
/// control reads 0.  NOT and CNOT are the 0- and 1-control special cases.
///
/// Lines carry metadata (primary input / constant ancilla / which output a
/// line holds / garbage) so that flows can report qubit counts and verify
/// semantics against the original irreversible specification.
///
/// Gate storage is one compressed-sparse-row array, with no allocation per
/// gate: `targets_` holds one `uint32` per gate, `controls_` holds every
/// gate's controls back to back (a `control` packs line and polarity into
/// 4 bytes), and gate g's controls are `controls_[offsets_[g],
/// offsets_[g + 1])`.  A NOT costs 8 bytes, a CNOT 12 and a two-control
/// Toffoli 16.  `gates()` and `gate()` hand out `gate_ref`s that view these
/// arrays in place: a `gate_ref` stays valid until the next mutation of its
/// circuit (adding a gate may reallocate the arrays).

#pragma once

#include <cstdint>
#include <initializer_list>
#include <ranges>
#include <span>
#include <string>
#include <vector>

namespace qsyn
{

/// A control connection of a Toffoli gate: a 31-bit line index and a
/// polarity bit in one 4-byte word.
struct control
{
  std::uint32_t line : 31;
  bool positive : 1; ///< false = negative control (fires on 0)

  bool operator==( const control& other ) const
  {
    return line == other.line && positive == other.positive;
  }
};
static_assert( sizeof( control ) == 4 );

/// One mixed-polarity multiple-controlled Toffoli gate, viewed in place in
/// its circuit's arrays; valid until the circuit's next mutation.
struct gate_ref
{
  std::span<const control> controls;
  std::uint32_t target;

  unsigned num_controls() const { return static_cast<unsigned>( controls.size() ); }
};

/// Role of a circuit line at the circuit boundary.
struct line_info
{
  std::string name;

  /// Input side.
  bool is_primary_input = false;   ///< carries an input variable
  bool is_constant_input = false;  ///< ancilla with a fixed initial value
  bool constant_value = false;

  /// Output side.
  int output_index = -1;           ///< >= 0: holds primary output #output_index
  bool is_garbage = true;          ///< discarded at the end
};

/// A reversible (Toffoli) circuit.
class reversible_circuit
{
public:
  reversible_circuit() = default;
  explicit reversible_circuit( unsigned num_lines );

  unsigned num_lines() const { return static_cast<unsigned>( lines_.size() ); }
  std::size_t num_gates() const { return targets_.size(); }

  /// Gate `index`, viewed in place.
  gate_ref gate( std::size_t index ) const
  {
    const auto begin = offsets_[index];
    return { { controls_.data() + begin, offsets_[index + 1u] - begin }, targets_[index] };
  }

  /// Read-only random-access view of the gates in order; its elements are
  /// `gate_ref`s.
  auto gates() const
  {
    return std::views::iota( std::uint32_t{ 0 }, static_cast<std::uint32_t>( num_gates() ) ) |
           std::views::transform( [this]( std::uint32_t index ) { return gate( index ); } );
  }

  /// The arrays behind `gates()`, for kernels that stream them: gate g's
  /// controls are `controls()[control_offsets()[g], control_offsets()[g + 1])`.
  /// `control_offsets()` has `num_gates() + 1` entries, or none while the
  /// circuit has no gate.
  std::span<const std::uint32_t> targets() const { return targets_; }
  std::span<const std::uint32_t> control_offsets() const { return offsets_; }
  std::span<const control> controls() const { return controls_; }

  line_info& line( unsigned index ) { return lines_.at( index ); }
  const line_info& line( unsigned index ) const { return lines_.at( index ); }

  /// Appends a fresh line; returns its index.
  unsigned add_line( const line_info& info = {} );

  /// --- gate constructors ---------------------------------------------------

  /// Appends one gate; every other gate constructor ends here.  The
  /// controls are copied, so they may live anywhere but in this circuit.
  void add_gate( std::span<const control> controls, std::uint32_t target );
  /// NOT gate.
  void add_not( std::uint32_t target );
  /// CNOT with a positive control.
  void add_cnot( std::uint32_t ctrl, std::uint32_t target );
  /// Toffoli with two positive controls.
  void add_toffoli( std::uint32_t c0, std::uint32_t c1, std::uint32_t target );
  /// General gate from (line, polarity) pairs.
  void add_mct( std::span<const control> controls, std::uint32_t target );
  void add_mct( std::initializer_list<control> controls, std::uint32_t target );
  /// Fredkin (controlled swap) via CNOT + Toffoli + CNOT.
  void add_fredkin( std::uint32_t ctrl, std::uint32_t a, std::uint32_t b );

  /// Presizes the gate arrays for `gates` gates with `controls` controls
  /// in total.
  void reserve( std::size_t gates, std::size_t controls );

  /// Retargets gate `index` (fault injection: `corrupt_circuit`).
  void set_target( std::size_t index, std::uint32_t target );

  /// Appends all gates of `other` (same line count).
  void append( const reversible_circuit& other );
  /// Appends the gates of `other` in reverse order (uncompute; Toffoli
  /// gates are self-inverse).
  void append_reversed( const reversible_circuit& other );
  /// Appends gates [begin, end) of this circuit reversed (in-place
  /// Bennett-style uncompute of a recorded window).
  void append_reversed_window( std::size_t begin, std::size_t end );

  /// --- semantics -------------------------------------------------------------

  /// Applies the circuit to a state vector of line values (in place).
  void apply( std::vector<bool>& state ) const;

  /// Simulates one input assignment; returns the final line values.
  std::vector<bool> simulate( const std::vector<bool>& inputs ) const;

  /// Full permutation over 2^num_lines() (num_lines() <= 24).
  std::vector<std::uint64_t> permutation() const;

  /// --- reporting ---------------------------------------------------------------

  /// Number of gates with >= 2 controls (classic "Toffoli count").
  std::size_t num_toffoli_gates() const;

  /// Human-readable gate list (debugging, small circuits).
  std::string to_string() const;

private:
  /// Throws std::length_error unless `gates` more gates with `controls`
  /// more controls keep every gate index and control offset in 32 bits.
  void check_room( std::size_t gates, std::size_t controls ) const;

  std::vector<line_info> lines_;
  std::vector<std::uint32_t> targets_;
  std::vector<std::uint32_t> offsets_; ///< empty, or num_gates() + 1 entries
  std::vector<control> controls_;
};

} // namespace qsyn
