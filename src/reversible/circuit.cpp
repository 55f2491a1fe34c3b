#include "circuit.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace qsyn
{

reversible_circuit::reversible_circuit( unsigned num_lines ) : lines_( num_lines ) {}

unsigned reversible_circuit::add_line( const line_info& info )
{
  lines_.push_back( info );
  return static_cast<unsigned>( lines_.size() - 1u );
}

void reversible_circuit::add_gate( std::span<const control> controls, std::uint32_t target )
{
  assert( target < num_lines() );
#ifndef NDEBUG
  for ( const auto& c : controls )
  {
    assert( c.line < num_lines() );
    assert( c.line != target );
  }
#endif
  check_room( 1u, controls.size() );
  if ( offsets_.empty() )
  {
    offsets_.push_back( 0u );
  }
  targets_.push_back( target );
  controls_.insert( controls_.end(), controls.begin(), controls.end() );
  offsets_.push_back( static_cast<std::uint32_t>( controls_.size() ) );
}

void reversible_circuit::check_room( std::size_t gates, std::size_t controls ) const
{
  constexpr std::size_t max_entries = 0xffffffffu;
  if ( targets_.size() + gates > max_entries || controls_.size() + controls > max_entries )
  {
    throw std::length_error( "reversible_circuit: gate arrays exceed 32-bit indices" );
  }
}

void reversible_circuit::add_not( std::uint32_t target )
{
  add_gate( {}, target );
}

void reversible_circuit::add_cnot( std::uint32_t ctrl, std::uint32_t target )
{
  const control controls[] = { { ctrl, true } };
  add_gate( controls, target );
}

void reversible_circuit::add_toffoli( std::uint32_t c0, std::uint32_t c1, std::uint32_t target )
{
  const control controls[] = { { c0, true }, { c1, true } };
  add_gate( controls, target );
}

void reversible_circuit::add_mct( std::span<const control> controls, std::uint32_t target )
{
  add_gate( controls, target );
}

void reversible_circuit::add_mct( std::initializer_list<control> controls, std::uint32_t target )
{
  add_gate( { controls.begin(), controls.size() }, target );
}

void reversible_circuit::add_fredkin( std::uint32_t ctrl, std::uint32_t a, std::uint32_t b )
{
  add_cnot( b, a );
  add_toffoli( ctrl, a, b );
  add_cnot( b, a );
}

void reversible_circuit::reserve( std::size_t gates, std::size_t controls )
{
  targets_.reserve( gates );
  offsets_.reserve( gates + 1u );
  controls_.reserve( controls );
}

void reversible_circuit::set_target( std::size_t index, std::uint32_t target )
{
  assert( target < num_lines() );
  targets_[index] = target;
}

void reversible_circuit::append( const reversible_circuit& other )
{
  assert( other.num_lines() <= num_lines() && &other != this );
  reserve( num_gates() + other.num_gates(), controls_.size() + other.controls_.size() );
  for ( const auto g : other.gates() )
  {
    add_gate( g.controls, g.target );
  }
}

void reversible_circuit::append_reversed( const reversible_circuit& other )
{
  assert( other.num_lines() <= num_lines() && &other != this );
  reserve( num_gates() + other.num_gates(), controls_.size() + other.controls_.size() );
  for ( auto i = other.num_gates(); i > 0u; --i )
  {
    const auto g = other.gate( i - 1u );
    add_gate( g.controls, g.target );
  }
}

void reversible_circuit::append_reversed_window( std::size_t begin, std::size_t end )
{
  assert( begin <= end && end <= num_gates() );
  if ( begin == end )
  {
    return;
  }
  const std::size_t window_controls = offsets_[end] - offsets_[begin];
  check_room( end - begin, window_controls );
  reserve( num_gates() + ( end - begin ), controls_.size() + window_controls );
  // The window is copied within the arrays, which the reserve keeps in place.
  for ( auto i = end; i > begin; --i )
  {
    targets_.push_back( targets_[i - 1u] );
    for ( auto c = offsets_[i - 1u]; c < offsets_[i]; ++c )
    {
      controls_.push_back( controls_[c] );
    }
    offsets_.push_back( static_cast<std::uint32_t>( controls_.size() ) );
  }
}

void reversible_circuit::apply( std::vector<bool>& state ) const
{
  assert( state.size() == num_lines() );
  for ( const auto g : gates() )
  {
    bool fire = true;
    for ( const auto& c : g.controls )
    {
      if ( state[c.line] != c.positive )
      {
        fire = false;
        break;
      }
    }
    if ( fire )
    {
      state[g.target] = !state[g.target];
    }
  }
}

std::vector<bool> reversible_circuit::simulate( const std::vector<bool>& inputs ) const
{
  auto state = inputs;
  apply( state );
  return state;
}

std::vector<std::uint64_t> reversible_circuit::permutation() const
{
  if ( num_lines() > 24u )
  {
    throw std::invalid_argument( "reversible_circuit::permutation: too many lines" );
  }
  const std::uint64_t size = std::uint64_t{ 1 } << num_lines();
  std::vector<std::uint64_t> perm( size );
  for ( std::uint64_t i = 0; i < size; ++i )
  {
    perm[i] = i;
  }
  for ( const auto g : gates() )
  {
    std::uint64_t control_mask = 0;
    std::uint64_t control_value = 0;
    for ( const auto& c : g.controls )
    {
      control_mask |= std::uint64_t{ 1 } << c.line;
      if ( c.positive )
      {
        control_value |= std::uint64_t{ 1 } << c.line;
      }
    }
    const auto target_bit = std::uint64_t{ 1 } << g.target;
    for ( std::uint64_t i = 0; i < size; ++i )
    {
      if ( ( perm[i] & control_mask ) == control_value )
      {
        perm[i] ^= target_bit;
      }
    }
  }
  return perm;
}

std::size_t reversible_circuit::num_toffoli_gates() const
{
  std::size_t count = 0;
  for ( std::size_t g = 0; g < num_gates(); ++g )
  {
    count += offsets_[g + 1u] - offsets_[g] >= 2u ? 1u : 0u;
  }
  return count;
}

std::string reversible_circuit::to_string() const
{
  std::ostringstream os;
  os << "circuit(" << num_lines() << " lines, " << num_gates() << " gates)\n";
  for ( const auto g : gates() )
  {
    os << "  t(";
    for ( std::size_t i = 0; i < g.controls.size(); ++i )
    {
      if ( i > 0 )
      {
        os << ", ";
      }
      os << ( g.controls[i].positive ? "" : "!" ) << g.controls[i].line;
    }
    os << ") -> " << g.target << "\n";
  }
  return os.str();
}

} // namespace qsyn
