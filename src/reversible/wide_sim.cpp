/// \file wide_sim.cpp
/// \brief Portable kernels, backend dispatch, and the wide simulators.

#include "wide_sim.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "verify.hpp"
#include "wide_sim_kernels.hpp"

namespace qsyn
{

namespace wide_detail
{

// The vector backend tables; each lives in a TU built with its arch flag
// (wide_sim_avx2.cpp, wide_sim_avx512.cpp) and runs only after cpuid
// agrees below.
kernel_table avx2_table( unsigned words );
kernel_table avx512_table( unsigned words );

namespace
{

kernel_table portable_table( unsigned words )
{
  switch ( words )
  {
  case 1u:
    return table_of<portable_ops<1>>();
  case 4u:
    return table_of<portable_ops<4>>();
  case 8u:
    return table_of<portable_ops<8>>();
  default:
    throw std::logic_error( "wide_sim: unsupported lane-group width" );
  }
}

bool cpu_supports( simd_backend backend )
{
  switch ( backend )
  {
  case simd_backend::avx2:
    return __builtin_cpu_supports( "avx2" ) != 0;
  case simd_backend::avx512:
    return __builtin_cpu_supports( "avx512f" ) != 0;
  default:
    return true;
  }
}

/// Runtime cap from the QSYN_SIMD environment variable, parsed once:
/// "off"/"portable" pin the portable kernels, "avx2" caps at AVX2,
/// "avx512"/"native" leave the cpuid choice alone.  Unknown values are
/// ignored rather than fatal — a mistyped override must not change
/// verdicts, only (at worst) speed.
simd_backend backend_cap()
{
  static const simd_backend cap = [] {
    const char* env = std::getenv( "QSYN_SIMD" );
    if ( env == nullptr )
    {
      return simd_backend::avx512;
    }
    const std::string v( env );
    if ( v == "off" || v == "portable" )
    {
      return simd_backend::portable;
    }
    if ( v == "avx2" )
    {
      return simd_backend::avx2;
    }
    return simd_backend::avx512;
  }();
  return cap;
}

bool backend_usable( simd_backend backend )
{
  return cpu_supports( backend ) && static_cast<int>( backend ) <= static_cast<int>( backend_cap() );
}

kernel_table table_for( simd_backend backend, unsigned words )
{
  switch ( backend )
  {
  case simd_backend::avx2:
    return avx2_table( words );
  case simd_backend::avx512:
    return avx512_table( words );
  default:
    return portable_table( words );
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

const char* simd_backend_name( simd_backend backend )
{
  switch ( backend )
  {
  case simd_backend::avx2:
    return "avx2";
  case simd_backend::avx512:
    return "avx512";
  default:
    return "portable";
  }
}

simd_backend active_simd_backend( sim_width width )
{
  // A single 64-bit word per group leaves nothing for a vector register to
  // do; w64 always runs the portable scalar words.
  if ( width == sim_width::w64 )
  {
    return simd_backend::portable;
  }
  if ( width == sim_width::w512 && wide_detail::backend_usable( simd_backend::avx512 ) )
  {
    return simd_backend::avx512;
  }
  if ( wide_detail::backend_usable( simd_backend::avx2 ) )
  {
    return simd_backend::avx2;
  }
  return simd_backend::portable;
}

void simd_and2_masked( std::uint64_t* dst, const std::uint64_t* a, std::uint64_t invert_a,
                       const std::uint64_t* b, std::uint64_t invert_b, std::size_t num_words )
{
  static const auto kernel = [] {
    const auto backend = active_simd_backend( sim_width::w512 );
    return wide_detail::table_for( backend, words_of( sim_width::w512 ) ).and2;
  }();
  kernel( dst, a, invert_a, b, invert_b, num_words );
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
  const auto table = wide_detail::table_for( backend_, W );
  table.gate( circuit_->targets().data(), circuit_->control_offsets().data(),
              circuit_->num_gates(), circuit_->controls().data(), state_.data() );
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
  const auto table = wide_detail::table_for( backend_, W );
  table.aig( program_.ands.data(), program_.num_ands(), values_.data() );
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
