/// \file arith.hpp
/// \brief Reversible arithmetic building blocks for the manual baselines
/// (paper Sec. V): the Cuccaro ripple-carry adder [25] and its controlled /
/// subtracting variants, operating on caller-chosen line vectors of a
/// reversible circuit.
///
/// Conventions: all registers are LSB-first line vectors.  The in-place
/// adder computes b <- a + b and restores a and the carry ancilla.
/// Controlled variants take an optional control (line, polarity); only the
/// gates writing into b are controlled — the internal carry chain cancels
/// itself when the control is off, which keeps the overhead at two extra
/// Toffolis per bit.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "../reversible/circuit.hpp"

namespace qsyn
{

/// b <- a + b (mod 2^w).  `carry_in` must be a 0-ancilla (restored).
/// If `carry_out` is set, it receives (xor-accumulates) the carry.
void cuccaro_add( reversible_circuit& circuit, const std::vector<std::uint32_t>& a,
                  const std::vector<std::uint32_t>& b, std::uint32_t carry_in,
                  std::optional<std::uint32_t> carry_out = std::nullopt,
                  std::optional<control> ctrl = std::nullopt );

/// b <- b - a (mod 2^w) via the two's-complement sandwich
/// b - a = ~(~b + a).  If `borrow_out` is set it accumulates 1 iff a > b
/// (i.e. the subtraction wrapped).
void cuccaro_subtract( reversible_circuit& circuit, const std::vector<std::uint32_t>& a,
                       const std::vector<std::uint32_t>& b, std::uint32_t carry_in,
                       std::optional<std::uint32_t> borrow_out = std::nullopt,
                       std::optional<control> ctrl = std::nullopt );

/// Adds (or subtracts) the classical constant (LSB-first bits) into
/// register b by temporarily materializing it on the zero-valued `scratch`
/// register (X gates), adding, and unsetting.  scratch must have b.size()
/// lines, all holding 0; they are restored.
void add_constant( reversible_circuit& circuit, const std::vector<bool>& constant_bits,
                   const std::vector<std::uint32_t>& b, const std::vector<std::uint32_t>& scratch,
                   std::uint32_t carry_in, bool subtract = false,
                   std::optional<control> ctrl = std::nullopt );

/// XORs the classical constant onto register b (X gates on set bits).
void xor_constant( reversible_circuit& circuit, const std::vector<bool>& constant_bits,
                   const std::vector<std::uint32_t>& b );

/// Fredkin-based conditional ROTATE of `reg` towards the MSB by the value
/// held in register `amount` (one swap layer per amount bit).  A rotation
/// equals a shift whenever the bits that wrap around are zero — the
/// normalization and denormalization steps guarantee that headroom.
void barrel_rotate_left( reversible_circuit& circuit, const std::vector<std::uint32_t>& reg,
                         const std::vector<std::uint32_t>& amount );

} // namespace qsyn
