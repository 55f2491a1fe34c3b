#include "arith.hpp"

#include <cassert>
#include <stdexcept>

namespace qsyn
{

namespace
{

/// Emits a CNOT, upgraded to a Toffoli when a control is present.
void cnot_controlled( reversible_circuit& circuit, std::uint32_t from, std::uint32_t to,
                      const std::optional<control>& ctrl )
{
  if ( ctrl )
  {
    circuit.add_mct( { *ctrl, { from, true } }, to );
  }
  else
  {
    circuit.add_cnot( from, to );
  }
}

} // namespace

void cuccaro_add( reversible_circuit& circuit, const std::vector<std::uint32_t>& a,
                  const std::vector<std::uint32_t>& b, std::uint32_t carry_in,
                  std::optional<std::uint32_t> carry_out, std::optional<control> ctrl )
{
  assert( a.size() == b.size() );
  if ( a.empty() )
  {
    return;
  }
  const auto w = a.size();
  // carry line feeding bit i: carry_in for i = 0, a[i-1] afterwards.
  const auto carry_line = [&]( std::size_t i ) { return i == 0 ? carry_in : a[i - 1u]; };

  // MAJ ladder.  Only the b-writes are controlled.
  for ( std::size_t i = 0; i < w; ++i )
  {
    cnot_controlled( circuit, a[i], b[i], ctrl ); // b_i ^= a_i   (controlled)
    circuit.add_cnot( a[i], carry_line( i ) );    // c ^= a_i
    circuit.add_toffoli( carry_line( i ), b[i], a[i] );
  }
  if ( carry_out )
  {
    cnot_controlled( circuit, a[w - 1u], *carry_out, ctrl );
  }
  // UMA ladder (2-CNOT variant), descending.
  for ( std::size_t i = w; i > 0; --i )
  {
    const auto k = i - 1u;
    circuit.add_toffoli( carry_line( k ), b[k], a[k] );
    circuit.add_cnot( a[k], carry_line( k ) );
    cnot_controlled( circuit, carry_line( k ), b[k], ctrl ); // b_k ^= c  (controlled)
  }
}

void cuccaro_subtract( reversible_circuit& circuit, const std::vector<std::uint32_t>& a,
                       const std::vector<std::uint32_t>& b, std::uint32_t carry_in,
                       std::optional<std::uint32_t> borrow_out, std::optional<control> ctrl )
{
  // b - a = ~(~b + a); the X sandwich on b cancels itself when the
  // controlled adder core does not fire.
  for ( const auto line : b )
  {
    circuit.add_not( line );
  }
  cuccaro_add( circuit, a, b, carry_in, borrow_out, ctrl );
  for ( const auto line : b )
  {
    circuit.add_not( line );
  }
}

void add_constant( reversible_circuit& circuit, const std::vector<bool>& constant_bits,
                   const std::vector<std::uint32_t>& b, const std::vector<std::uint32_t>& scratch,
                   std::uint32_t carry_in, bool subtract, std::optional<control> ctrl )
{
  if ( scratch.size() < b.size() )
  {
    throw std::invalid_argument( "add_constant: scratch register too small" );
  }
  const std::vector<std::uint32_t> a( scratch.begin(),
                                      scratch.begin() + static_cast<std::ptrdiff_t>( b.size() ) );
  xor_constant( circuit, constant_bits, a );
  if ( subtract )
  {
    cuccaro_subtract( circuit, a, b, carry_in, std::nullopt, ctrl );
  }
  else
  {
    cuccaro_add( circuit, a, b, carry_in, std::nullopt, ctrl );
  }
  xor_constant( circuit, constant_bits, a );
}

void xor_constant( reversible_circuit& circuit, const std::vector<bool>& constant_bits,
                   const std::vector<std::uint32_t>& b )
{
  for ( std::size_t i = 0; i < b.size() && i < constant_bits.size(); ++i )
  {
    if ( constant_bits[i] )
    {
      circuit.add_not( b[i] );
    }
  }
}

void barrel_rotate_left( reversible_circuit& circuit, const std::vector<std::uint32_t>& reg,
                         const std::vector<std::uint32_t>& amount )
{
  const auto w = reg.size();
  for ( std::size_t j = 0; j < amount.size(); ++j )
  {
    const std::size_t d = std::size_t{ 1 } << j;
    if ( d >= w )
    {
      break; // rotations by >= w wrap fully; amounts are < w by contract
    }
    // Conditional rotate by d: a cyclic shift decomposes into gcd(w, d)
    // index cycles; each cycle (c0 c1 ... c_{k-1}) — value at c0 moving to
    // c1 and so on — is the transposition product (c0 c1)(c1 c2)...(c_{k-2}
    // c_{k-1}) applied right-to-left, so the circuit emits the swaps in
    // reverse chain order.
    std::vector<bool> visited( w, false );
    for ( std::size_t start = 0; start < w; ++start )
    {
      if ( visited[start] )
      {
        continue;
      }
      std::vector<std::pair<std::size_t, std::size_t>> chain;
      std::size_t p = start;
      visited[p] = true;
      for ( ;; )
      {
        const auto q = ( p + d ) % w;
        if ( q == start )
        {
          break;
        }
        chain.emplace_back( p, q );
        visited[q] = true;
        p = q;
      }
      for ( auto it = chain.rbegin(); it != chain.rend(); ++it )
      {
        circuit.add_fredkin( amount[j], reg[it->first], reg[it->second] );
      }
    }
  }
}

} // namespace qsyn
