#include "hierarchical.hpp"

#include <cassert>
#include <span>
#include <stdexcept>
#include <vector>

namespace qsyn
{

namespace
{

constexpr std::uint32_t no_line = 0xffffffffu;

class hierarchical_engine
{
public:
  hierarchical_engine( const xmg_network& xmg, const hierarchical_params& params,
                       hierarchical_stats* stats )
      : xmg_( xmg ), params_( params ), stats_( stats ), circuit_( xmg.num_pis() ),
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

  reversible_circuit run()
  {
    // Presize to a lower bound: each MAJ costs at least one Toffoli and each
    // XOR at least one CNOT, and the cleanups other than keep_garbage
    // uncompute every node at least once.
    const auto copies = params_.cleanup == cleanup_strategy::keep_garbage ? 1u : 2u;
    circuit_.reserve( copies * ( xmg_.num_maj() + xmg_.num_xor() ),
                      copies * ( 2u * xmg_.num_maj() + xmg_.num_xor() ) );
    if ( params_.cleanup == cleanup_strategy::eager )
    {
      run_eager();
    }
    else
    {
      run_monolithic();
    }
    if ( stats_ )
    {
      stats_->peak_lines = circuit_.num_lines();
      stats_->ancilla_lines = circuit_.num_lines() - xmg_.num_pis();
      stats_->maj_toffolis = circuit_.num_toffoli_gates();
    }
    return std::move( circuit_ );
  }

private:
  /// keep_garbage / bennett: compute every live node once, claim or copy
  /// outputs, optionally uncompute the whole window.
  void run_monolithic()
  {
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
  }

  /// eager (REVS-style per-output cleanup): compute the cone of one output,
  /// copy the result to a fresh output line, uncompute the cone, and
  /// recycle its ancilla lines before starting the next output.  Shared
  /// logic is recomputed per output — fewer peak lines for more T gates.
  void run_eager()
  {
    for ( unsigned o = 0; o < xmg_.num_pos(); ++o )
    {
      const auto po = xmg_.po( o );
      const auto node = po >> 1;
      const bool compl_flag = po & 1u;

      const std::size_t window_begin = circuit_.num_gates();
      std::vector<std::uint32_t> cone; // computed internal nodes, topo order
      if ( node > xmg_.num_pis() )
      {
        compute_cone( node, cone );
      }
      // Copy out.
      const auto out = alloc_line( "y" + std::to_string( o ) );
      const auto src = node == 0u ? no_line : node_line_[node];
      if ( src != no_line )
      {
        circuit_.add_cnot( src, out );
      }
      if ( compl_flag )
      {
        circuit_.add_not( out );
      }
      auto& info = circuit_.line( out );
      info.output_index = static_cast<int>( o );
      info.is_garbage = false;
      const std::size_t window_end = circuit_.num_gates();
      // The copy itself must not be uncomputed; the window covers only the
      // cone computation.
      (void)window_end;
      circuit_.append_reversed_window( window_begin,
                                       window_begin + ( cone_gate_counts_ ) );
      cone_gate_counts_ = 0;
      // Recycle cone lines.
      for ( const auto n : cone )
      {
        free_lines_.push_back( node_line_[n] );
        node_line_[n] = no_line;
      }
    }
    for ( unsigned l = xmg_.num_pis(); l < circuit_.num_lines(); ++l )
    {
      if ( circuit_.line( l ).output_index < 0 )
      {
        circuit_.line( l ).is_garbage = false; // everything uncomputed
      }
    }
  }

  /// Computes all not-yet-computed nodes in the cone of `root`, in post
  /// order: a node's fanins in order, each skipped if it has a line when it
  /// is reached, then the node.  An explicit stack of (node, next fanin)
  /// frames keeps deep cones off the call stack.
  void compute_cone( std::uint32_t root, std::vector<std::uint32_t>& cone )
  {
    const auto needs_line = [&]( std::uint32_t n ) {
      return n > xmg_.num_pis() && node_line_[n] == no_line;
    };
    if ( !needs_line( root ) )
    {
      return;
    }
    cone_stack_.push_back( { root, 0u } );
    while ( !cone_stack_.empty() )
    {
      auto& frame = cone_stack_.back();
      const auto fanins = fanin_lits( frame.node );
      if ( frame.next_fanin < fanins.size() )
      {
        const auto fanin = fanins[frame.next_fanin++] >> 1;
        if ( needs_line( fanin ) )
        {
          cone_stack_.push_back( { fanin, 0u } );
        }
        continue;
      }
      const auto node = frame.node;
      cone_stack_.pop_back();
      const auto before = circuit_.num_gates();
      compute_node( node );
      cone_gate_counts_ += circuit_.num_gates() - before;
      cone.push_back( node );
    }
  }

  std::uint32_t alloc_line( const std::string& name )
  {
    if ( !free_lines_.empty() )
    {
      const auto l = free_lines_.back();
      free_lines_.pop_back();
      circuit_.line( l ).name = name;
      return l;
    }
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
    // In-place on a dying internal operand; only in the monolithic modes
    // (the eager mode recycles whole cones and keeps nodes on own lines).
    if ( params_.cleanup != cleanup_strategy::eager )
    {
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
  hierarchical_stats* stats_;
  reversible_circuit circuit_;
  std::vector<std::uint32_t> refs_;
  std::vector<std::uint32_t> node_line_;
  std::vector<std::uint32_t> free_lines_;
  std::size_t cone_gate_counts_ = 0;

  struct cone_frame
  {
    std::uint32_t node;
    unsigned next_fanin;
  };
  std::vector<cone_frame> cone_stack_;
};

} // namespace

reversible_circuit hierarchical_synthesize( const xmg_network& xmg,
                                            const hierarchical_params& params,
                                            hierarchical_stats* stats )
{
  hierarchical_engine engine( xmg, params, stats );
  return engine.run();
}

} // namespace qsyn
