#include "cost.hpp"

#include <algorithm>

namespace qsyn
{

namespace
{

/// Linear-ladder cost, valid when at least k-2 dirty ancillae are free.
std::uint64_t linear_cost( unsigned k )
{
  if ( k <= 1u )
  {
    return 0u;
  }
  if ( k == 2u )
  {
    return 7u;
  }
  return 8ull * k - 9ull;
}

} // namespace

std::uint64_t toffoli_t_count( unsigned num_controls, unsigned free_lines )
{
  const auto k = num_controls;
  if ( k <= 1u )
  {
    return 0u;
  }
  if ( k == 2u )
  {
    return 7u;
  }
  if ( free_lines >= k - 2u )
  {
    return linear_cost( k );
  }
  if ( free_lines >= 1u )
  {
    // Barenco Lemma 7.3: split into two halves, each executed twice; the
    // controls of one half serve as dirty ancillae of the other, so both
    // halves use the linear ladder.
    const unsigned m = ( k + 1u ) / 2u;
    return 2ull * linear_cost( m ) + 2ull * linear_cost( k - m + 1u );
  }
  // No ancilla at all: quadratic construction.
  return 16ull * ( k - 1u ) * ( k - 2u ) + 7ull;
}

std::uint64_t circuit_t_count( const reversible_circuit& circuit )
{
  std::uint64_t total = 0;
  const auto lines = circuit.num_lines();
  for ( const auto g : circuit.gates() )
  {
    const auto touched = g.num_controls() + 1u;
    const auto free_lines = lines >= touched ? lines - touched : 0u;
    total += toffoli_t_count( g.num_controls(), free_lines );
  }
  return total;
}

std::uint64_t circuit_depth( const reversible_circuit& circuit )
{
  std::vector<std::uint64_t> line_level( circuit.num_lines(), 0u );
  std::uint64_t depth = 0;
  for ( const auto g : circuit.gates() )
  {
    std::uint64_t level = line_level[g.target];
    for ( const auto& c : g.controls )
    {
      level = std::max( level, line_level[c.line] );
    }
    ++level;
    line_level[g.target] = level;
    for ( const auto& c : g.controls )
    {
      line_level[c.line] = level;
    }
    depth = std::max( depth, level );
  }
  return depth;
}

cost_report report_costs( const reversible_circuit& circuit )
{
  cost_report report;
  report.qubits = circuit.num_lines();
  report.t_count = circuit_t_count( circuit );
  report.gates = circuit.num_gates();
  report.toffoli_gates = circuit.num_toffoli_gates();
  report.depth = circuit_depth( circuit );
  return report;
}

} // namespace qsyn
