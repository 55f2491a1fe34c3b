/// \file wide_sim_kernels.hpp
/// \brief The reversible gate-cascade kernel, shared by every backend TU.
///
/// The gate cascade is written once as a template over the lane-group
/// `Ops` policies of logic/simd_kernels.hpp, like the AIG slot-program
/// walk it sits beside.  Each backend translation unit (wide_sim.cpp for
/// portable, wide_sim_avx2.cpp / wide_sim_avx512.cpp compiled with their
/// arch flags) instantiates it with its own policy and exports a
/// `gate_kernel_fn`; the dispatcher in wide_sim.cpp picks one with the
/// same `active_simd_backend` choice as the slot kernels.

#pragma once

#include <cstddef>
#include <cstdint>

#include "../logic/simd_kernels.hpp"
#include "circuit.hpp"

namespace qsyn::wide_detail
{

/// Runs a circuit's whole gate cascade, read in place from its arrays
/// (`reversible_circuit::targets`, `control_offsets`, `controls`), over
/// one lane group per line (`state`): per gate, the control conjunction is
/// a group AND over polarity-masked line groups, the target update a group
/// XOR.
using gate_kernel_fn = void ( * )( const std::uint32_t* targets, const std::uint32_t* control_offsets,
                                   std::size_t num_gates, const control* controls,
                                   std::uint64_t* state );

template<typename Ops>
void gate_kernel( const std::uint32_t* targets, const std::uint32_t* control_offsets,
                  std::size_t num_gates, const control* controls, std::uint64_t* state )
{
  constexpr unsigned W = Ops::words;
  for ( std::size_t g = 0; g < num_gates; ++g )
  {
    auto acc = Ops::ones();
    const auto end = control_offsets[g + 1];
    for ( auto c = control_offsets[g]; c < end; ++c )
    {
      // A negative control's mask is all ones: it tests the line's complement.
      const auto invert = std::uint64_t{ 0 } - std::uint64_t{ !controls[c].positive };
      acc = Ops::and_xor( acc, Ops::load( state + std::size_t{ controls[c].line } * W ),
                          Ops::broadcast( invert ) );
    }
    std::uint64_t* t = state + std::size_t{ targets[g] } * W;
    Ops::store( t, Ops::bxor( Ops::load( t ), acc ) );
  }
}

} // namespace qsyn::wide_detail
