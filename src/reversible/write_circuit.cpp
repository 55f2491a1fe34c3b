#include "write_circuit.hpp"

#include <algorithm>
#include <sstream>

namespace qsyn
{

void write_real( const reversible_circuit& circuit, std::ostream& os, const std::string& name )
{
  os << "# " << name << "\n.version 2.0\n";
  os << ".numvars " << circuit.num_lines() << "\n";
  os << ".variables";
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    const auto& info = circuit.line( l );
    os << " " << ( info.name.empty() ? "l" + std::to_string( l ) : info.name );
  }
  os << "\n.constants ";
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    const auto& info = circuit.line( l );
    os << ( info.is_constant_input ? ( info.constant_value ? '1' : '0' ) : '-' );
  }
  os << "\n.garbage ";
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    os << ( circuit.line( l ).is_garbage ? '1' : '-' );
  }
  os << "\n.begin\n";
  for ( const auto g : circuit.gates() )
  {
    os << "t" << ( g.num_controls() + 1u );
    for ( const auto& c : g.controls )
    {
      const auto& info = circuit.line( c.line );
      os << " " << ( c.positive ? "" : "-" )
         << ( info.name.empty() ? "l" + std::to_string( c.line ) : info.name );
    }
    const auto& tinfo = circuit.line( g.target );
    os << " " << ( tinfo.name.empty() ? "l" + std::to_string( g.target ) : tinfo.name ) << "\n";
  }
  os << ".end\n";
}

std::string to_real( const reversible_circuit& circuit, const std::string& name )
{
  std::ostringstream os;
  write_real( circuit, os, name );
  return os.str();
}

namespace
{

/// Emits a positive-control multi-controlled X onto `target` using a CCX
/// V-chain over `anc` (ancillae are returned to zero).
void emit_mcx( std::ostream& os, const std::vector<std::uint32_t>& controls,
               std::uint32_t target, unsigned num_anc_base )
{
  if ( controls.empty() )
  {
    os << "x q[" << target << "];\n";
    return;
  }
  if ( controls.size() == 1u )
  {
    os << "cx q[" << controls[0] << "],q[" << target << "];\n";
    return;
  }
  if ( controls.size() == 2u )
  {
    os << "ccx q[" << controls[0] << "],q[" << controls[1] << "],q[" << target << "];\n";
    return;
  }
  // V-chain over k-2 ancillae: a[0] = c0 & c1; a[i] = a[i-1] & c_{i+1} up
  // to c_{k-2}; the target flips on (a[k-3], c_{k-1}); then uncompute.
  const auto k = controls.size();
  std::ostringstream chain;
  chain << "ccx q[" << controls[0] << "],q[" << controls[1] << "],a[" << num_anc_base << "];\n";
  for ( std::size_t i = 2; i + 1u < k; ++i )
  {
    chain << "ccx q[" << controls[i] << "],a[" << ( num_anc_base + i - 2u ) << "],a["
          << ( num_anc_base + i - 1u ) << "];\n";
  }
  const auto compute = chain.str();
  os << compute;
  os << "ccx q[" << controls[k - 1u] << "],a[" << ( num_anc_base + k - 3u ) << "],q[" << target
     << "];\n";
  // Uncompute in reverse order.
  std::vector<std::string> lines;
  std::istringstream in( compute );
  std::string line;
  while ( std::getline( in, line ) )
  {
    lines.push_back( line );
  }
  for ( auto it = lines.rbegin(); it != lines.rend(); ++it )
  {
    os << *it << "\n";
  }
}

} // namespace

void write_qasm( const reversible_circuit& circuit, std::ostream& os )
{
  unsigned max_controls = 0;
  for ( const auto g : circuit.gates() )
  {
    max_controls = std::max( max_controls, g.num_controls() );
  }
  const unsigned num_ancilla = max_controls > 2u ? max_controls - 2u : 0u;
  os << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  os << "qreg q[" << circuit.num_lines() << "];\n";
  if ( num_ancilla > 0 )
  {
    os << "qreg a[" << num_ancilla << "];\n";
  }
  // Initialize constant-1 inputs.
  for ( unsigned l = 0; l < circuit.num_lines(); ++l )
  {
    if ( circuit.line( l ).is_constant_input && circuit.line( l ).constant_value )
    {
      os << "x q[" << l << "];\n";
    }
  }
  for ( const auto g : circuit.gates() )
  {
    // Conjugate negative controls with X.
    for ( const auto& c : g.controls )
    {
      if ( !c.positive )
      {
        os << "x q[" << c.line << "];\n";
      }
    }
    std::vector<std::uint32_t> controls;
    controls.reserve( g.controls.size() );
    for ( const auto& c : g.controls )
    {
      controls.push_back( c.line );
    }
    emit_mcx( os, controls, g.target, 0 );
    for ( const auto& c : g.controls )
    {
      if ( !c.positive )
      {
        os << "x q[" << c.line << "];\n";
      }
    }
  }
}

std::string to_qasm( const reversible_circuit& circuit )
{
  std::ostringstream os;
  write_qasm( circuit, os );
  return os.str();
}

} // namespace qsyn
