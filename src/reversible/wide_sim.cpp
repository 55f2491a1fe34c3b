/// \file wide_sim.cpp
/// \brief Portable gate kernels, their dispatch, and the wide simulators.

#include "wide_sim.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "verify.hpp"
#include "wide_sim_kernels.hpp"

namespace qsyn
{

namespace wide_detail
{

// The vector gate kernels; each lives in a TU built with its arch flag
// (wide_sim_avx2.cpp, wide_sim_avx512.cpp) and runs only after the
// dispatcher (logic/simd.cpp) has checked cpuid.
gate_kernel_fn avx2_gate_kernel( unsigned words );
gate_kernel_fn avx512_gate_kernel( unsigned words );

namespace
{

gate_kernel_fn gate_kernel_for( simd_backend backend, unsigned words )
{
  using namespace simd_detail;
  switch ( backend )
  {
  case simd_backend::avx2:
    return avx2_gate_kernel( words );
  case simd_backend::avx512:
    return avx512_gate_kernel( words );
  default:
    break;
  }
  switch ( words )
  {
  case 1u:
    return &gate_kernel<portable_ops<1>>;
  case 4u:
    return &gate_kernel<portable_ops<4>>;
  case 8u:
    return &gate_kernel<portable_ops<8>>;
  default:
    throw std::logic_error( "wide_sim: unsupported lane-group width" );
  }
}

} // namespace

} // namespace wide_detail

sim_width auto_sim_width( std::uint64_t assignments )
{
  if ( assignments <= lanes_of( sim_width::w64 ) )
  {
    return sim_width::w64;
  }
  if ( assignments <= lanes_of( sim_width::w256 ) )
  {
    return sim_width::w256;
  }
  return sim_width::w512;
}

// --- wide_simulator ----------------------------------------------------------

wide_simulator::wide_simulator( const reversible_circuit& circuit, sim_width width )
    : circuit_( &circuit ), width_( width ), backend_( active_simd_backend( width ) ),
      in_lines_( input_lines_of( circuit ) ), out_lines_( output_lines_of( circuit ) )
{
  const auto W = words_of( width_ );
  // A sparse constant list instead of a full initial-state image: the
  // per-evaluate reset is then one write-only memset plus a handful of
  // constant-1 groups, instead of streaming a lines*W image through the
  // cache twice — on multi-thousand-line circuits the reset is a visible
  // share of a group pass.
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    if ( circuit.line( l ).is_constant_input && circuit.line( l ).constant_value )
    {
      one_lines_.push_back( l );
    }
  }
  state_.resize( std::size_t{ circuit.num_lines() } * W );
  outputs_.resize( std::size_t{ out_lines_.size() } * W );
}

const std::vector<std::uint64_t>&
wide_simulator::evaluate( const std::vector<std::uint64_t>& input_words )
{
  const auto W = words_of( width_ );
  if ( input_words.size() != in_lines_.size() * W )
  {
    throw std::invalid_argument( "wide_simulator::evaluate: input arity mismatch" );
  }
  std::memset( state_.data(), 0, state_.size() * sizeof( std::uint64_t ) );
  for ( const auto l : one_lines_ )
  {
    std::memset( state_.data() + std::size_t{ l } * W, 0xff, W * sizeof( std::uint64_t ) );
  }
  for ( std::size_t i = 0; i < in_lines_.size(); ++i )
  {
    std::memcpy( state_.data() + std::size_t{ in_lines_[i] } * W, input_words.data() + i * W,
                 W * sizeof( std::uint64_t ) );
  }
  wide_detail::gate_kernel_for( backend_, W )( circuit_->targets().data(),
                                               circuit_->control_offsets().data(),
                                               circuit_->num_gates(), circuit_->controls().data(),
                                               state_.data() );
  for ( std::size_t o = 0; o < out_lines_.size(); ++o )
  {
    std::memcpy( outputs_.data() + o * W, state_.data() + std::size_t{ out_lines_[o] } * W,
                 W * sizeof( std::uint64_t ) );
  }
  return outputs_;
}

// --- wide_aig_simulator ------------------------------------------------------

wide_aig_simulator::wide_aig_simulator( const aig_network& aig, sim_width width )
    : width_( width ), backend_( active_simd_backend( width ) ), num_pis_( aig.num_pis() ),
      program_( compile_slot_program( aig ) )
{
  const auto W = words_of( width_ );
  values_.assign( std::size_t{ program_.num_slots } * W, 0u );
  outputs_.resize( program_.pos.size() * W );
}

const std::vector<std::uint64_t>&
wide_aig_simulator::evaluate( const std::vector<std::uint64_t>& pi_words )
{
  const auto W = words_of( width_ );
  if ( pi_words.size() != std::size_t{ num_pis_ } * W )
  {
    throw std::invalid_argument( "wide_aig_simulator::evaluate: input arity mismatch" );
  }
  // Slot 0 (constant false) stays zero from construction; PIs are slots
  // 1..num_pis in input order (std::copy: an AIG without PIs passes no
  // data pointer at all).
  std::copy( pi_words.begin(), pi_words.end(), values_.begin() + W );
  run_slot_program( program_, W, backend_, values_.data() );
  for ( std::size_t o = 0; o < program_.pos.size(); ++o )
  {
    const auto p = program_.pos[o];
    const auto invert = std::uint64_t{ 0 } - ( p & 1u );
    for ( unsigned k = 0; k < W; ++k )
    {
      outputs_[o * W + k] = values_[std::size_t{ p >> 1 } * W + k] ^ invert;
    }
  }
  return outputs_;
}

} // namespace qsyn
