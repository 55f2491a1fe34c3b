#include "hierarchical.hpp"

#include <cassert>
#include <span>
#include <string>
#include <vector>

namespace qsyn
{

namespace
{

constexpr std::uint32_t no_line = 0xffffffffu;

class hierarchical_engine
{
public:
  hierarchical_engine( const xmg_network& xmg, const hierarchical_params& params )
      : xmg_( xmg ), params_( params ), circuit_( xmg.num_pis() ),
        refs_( xmg.fanout_counts() ), node_line_( xmg.num_nodes(), no_line )
  {
    for ( unsigned i = 0; i < xmg_.num_pis(); ++i )
    {
      auto& info = circuit_.line( i );
      info.name = "x" + std::to_string( i );
      info.is_primary_input = true;
      node_line_[i + 1u] = i;
    }
  }

  /// Computes every live node once, claims or copies the outputs, and for
  /// bennett uncomputes the whole compute window.
  reversible_circuit run()
  {
    // Presize to a lower bound: each MAJ costs at least one Toffoli and each
    // XOR at least one CNOT, and bennett uncomputes every node once.
    const auto copies = params_.cleanup == cleanup_strategy::bennett ? 2u : 1u;
    circuit_.reserve( copies * ( xmg_.num_maj() + xmg_.num_xor() ),
                      copies * ( 2u * xmg_.num_maj() + xmg_.num_xor() ) );
    const std::size_t compute_begin = circuit_.num_gates();
    for ( std::uint32_t n = xmg_.num_pis() + 1u; n < xmg_.num_nodes(); ++n )
    {
      if ( refs_[n] == 0u )
      {
        continue; // dead node
      }
      compute_node( n );
      // Track remaining uses for the in-place XOR optimization.
      for ( const auto lit : fanin_lits( n ) )
      {
        const auto m = lit >> 1;
        if ( m > xmg_.num_pis() && refs_[m] > 0u )
        {
          --refs_[m];
        }
      }
    }
    const std::size_t compute_end = circuit_.num_gates();

    claim_outputs();

    if ( params_.cleanup == cleanup_strategy::bennett )
    {
      circuit_.append_reversed_window( compute_begin, compute_end );
      for ( unsigned l = xmg_.num_pis(); l < circuit_.num_lines(); ++l )
      {
        if ( circuit_.line( l ).output_index < 0 )
        {
          circuit_.line( l ).is_garbage = false; // restored to 0
        }
      }
    }
    return std::move( circuit_ );
  }

private:
  std::uint32_t alloc_line( const std::string& name )
  {
    line_info info;
    info.name = name;
    info.is_constant_input = true;
    info.constant_value = false;
    info.is_garbage = true;
    return circuit_.add_line( info );
  }

  /// Line and complement view of a fanin literal.
  struct operand
  {
    std::uint32_t line;
    bool complemented;
    std::uint32_t node;
    bool is_constant = false;
    bool constant_value = false;
  };

  operand resolve( xmg_lit lit ) const
  {
    const auto node = lit >> 1;
    const bool compl_flag = lit & 1u;
    if ( node == 0u )
    {
      return { no_line, false, node, true, compl_flag };
    }
    assert( node_line_[node] != no_line );
    return { node_line_[node], compl_flag, node, false, false };
  }

  void compute_node( std::uint32_t n )
  {
    if ( xmg_.is_xor( n ) )
    {
      compute_xor( n );
    }
    else
    {
      compute_maj( n );
    }
  }

  /// The node's fanins: three for a MAJ, two for an XOR.
  std::span<const xmg_lit> fanin_lits( std::uint32_t n ) const
  {
    return std::span<const xmg_lit>( xmg_.fanins( n ) ).first( xmg_.is_maj( n ) ? 3u : 2u );
  }

  void compute_xor( std::uint32_t n )
  {
    const auto& f = xmg_.fanins( n );
    const auto a = resolve( f[0] );
    const auto b = resolve( f[1] );
    const bool phase = a.complemented ^ b.complemented;
    // In-place on a dying internal operand.
    const auto try_in_place = [&]( const operand& dying, const operand& other ) {
      if ( dying.is_constant || dying.node <= xmg_.num_pis() || refs_[dying.node] != 1u )
      {
        return false;
      }
      circuit_.add_cnot( other.line, dying.line );
      if ( phase )
      {
        circuit_.add_not( dying.line );
      }
      node_line_[n] = dying.line;
      return true;
    };
    if ( try_in_place( a, b ) || try_in_place( b, a ) )
    {
      return;
    }
    const auto t = alloc_line( "n" + std::to_string( n ) );
    circuit_.add_cnot( a.line, t );
    circuit_.add_cnot( b.line, t );
    if ( phase )
    {
      circuit_.add_not( t );
    }
    node_line_[n] = t;
  }

  void compute_maj( std::uint32_t n )
  {
    const auto& f = xmg_.fanins( n );
    const auto a = resolve( f[0] );
    const auto b = resolve( f[1] );
    const auto c = resolve( f[2] );
    const auto t = alloc_line( "n" + std::to_string( n ) );
    node_line_[n] = t;

    // Constant operand: AND / OR special cases (constants sort first).
    if ( a.is_constant )
    {
      const bool is_or = a.constant_value;
      const control cb{ b.line, is_or ? b.complemented : !b.complemented };
      const control cc{ c.line, is_or ? c.complemented : !c.complemented };
      circuit_.add_mct( { cb, cc }, t );
      if ( is_or )
      {
        circuit_.add_not( t );
      }
      return;
    }

    // General MAJ with one Toffoli: MAJ(a',b',c') = a' ^ (a' ^ b')(a' ^ c').
    circuit_.add_cnot( a.line, b.line );
    circuit_.add_cnot( a.line, c.line );
    const control ctrl_b{ b.line, !( a.complemented ^ b.complemented ) };
    const control ctrl_c{ c.line, !( a.complemented ^ c.complemented ) };
    circuit_.add_mct( { ctrl_b, ctrl_c }, t );
    circuit_.add_cnot( a.line, t );
    if ( a.complemented )
    {
      circuit_.add_not( t );
    }
    circuit_.add_cnot( a.line, c.line );
    circuit_.add_cnot( a.line, b.line );
  }

  void claim_outputs()
  {
    const bool need_copy = params_.cleanup == cleanup_strategy::bennett;
    std::vector<bool> line_claimed( circuit_.num_lines() + xmg_.num_pos(), false );
    for ( unsigned o = 0; o < xmg_.num_pos(); ++o )
    {
      const auto po = xmg_.po( o );
      const auto node = po >> 1;
      const bool compl_flag = po & 1u;
      if ( node == 0u )
      {
        const auto t = alloc_line( "y" + std::to_string( o ) );
        if ( compl_flag )
        {
          circuit_.add_not( t );
        }
        finish_output( t, o );
        continue;
      }
      const auto line = node_line_[node];
      assert( line != no_line );
      const bool is_pi_line = node <= xmg_.num_pis();
      // refs_[node] now holds the number of *output* uses left unprocessed
      // plus unconsumed fanouts; claiming in place is only safe for the
      // unique user of the line.
      if ( need_copy || is_pi_line || line_claimed[line] || refs_[node] > 1u )
      {
        const auto t = alloc_line( "y" + std::to_string( o ) );
        circuit_.add_cnot( line, t );
        if ( compl_flag )
        {
          circuit_.add_not( t );
        }
        finish_output( t, o );
      }
      else
      {
        if ( compl_flag )
        {
          circuit_.add_not( line );
        }
        finish_output( line, o );
        line_claimed[line] = true;
      }
    }
  }

  void finish_output( std::uint32_t line, unsigned index )
  {
    auto& info = circuit_.line( line );
    info.output_index = static_cast<int>( index );
    info.is_garbage = false;
  }

  const xmg_network& xmg_;
  const hierarchical_params& params_;
  reversible_circuit circuit_;
  std::vector<std::uint32_t> refs_;
  std::vector<std::uint32_t> node_line_;
};

} // namespace

reversible_circuit hierarchical_synthesize( const xmg_network& xmg,
                                            const hierarchical_params& params )
{
  hierarchical_engine engine( xmg, params );
  return engine.run();
}

} // namespace qsyn
