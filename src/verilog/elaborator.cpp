#include "elaborator.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>

#include "parser.hpp"

namespace qsyn::verilog
{

/// --- word-level helpers ----------------------------------------------------

std::vector<aig_lit> ripple_add( aig_network& aig, const std::vector<aig_lit>& a,
                                 const std::vector<aig_lit>& b, aig_lit carry_in,
                                 aig_lit* carry_out )
{
  assert( a.size() == b.size() );
  std::vector<aig_lit> sum( a.size() );
  auto carry = carry_in;
  for ( std::size_t i = 0; i < a.size(); ++i )
  {
    const auto axb = aig.create_xor( a[i], b[i] );
    sum[i] = aig.create_xor( axb, carry );
    carry = aig.create_maj( a[i], b[i], carry );
  }
  if ( carry_out )
  {
    *carry_out = carry;
  }
  return sum;
}

std::vector<aig_lit> ripple_sub( aig_network& aig, const std::vector<aig_lit>& a,
                                 const std::vector<aig_lit>& b, aig_lit* no_borrow )
{
  std::vector<aig_lit> b_inv( b.size() );
  for ( std::size_t i = 0; i < b.size(); ++i )
  {
    b_inv[i] = lit_not( b[i] );
  }
  return ripple_add( aig, a, b_inv, aig_network::const1, no_borrow );
}

std::vector<aig_lit> array_multiply( aig_network& aig, const std::vector<aig_lit>& a,
                                     const std::vector<aig_lit>& b )
{
  assert( a.size() == b.size() );
  const auto width = a.size();
  std::vector<aig_lit> acc( width, aig_network::const0 );
  for ( std::size_t i = 0; i < width; ++i )
  {
    // Partial product (a << i) & b[i], truncated to `width`.
    std::vector<aig_lit> pp( width, aig_network::const0 );
    bool nonzero = false;
    for ( std::size_t j = 0; j + i < width; ++j )
    {
      pp[j + i] = aig.create_and( a[j], b[i] );
      nonzero = true;
    }
    if ( nonzero )
    {
      acc = ripple_add( aig, acc, pp, aig_network::const0 );
    }
  }
  return acc;
}

std::vector<aig_lit> restoring_divide( aig_network& aig, const std::vector<aig_lit>& a,
                                       const std::vector<aig_lit>& b,
                                       std::vector<aig_lit>* remainder_out )
{
  assert( a.size() == b.size() );
  const auto width = a.size();
  // Partial remainder with one guard bit.
  std::vector<aig_lit> r( width + 1u, aig_network::const0 );
  std::vector<aig_lit> b_ext( b );
  b_ext.push_back( aig_network::const0 );
  std::vector<aig_lit> q( width, aig_network::const0 );
  for ( std::size_t step = 0; step < width; ++step )
  {
    const auto bit = width - 1u - step;
    // r = (r << 1) | a[bit]
    for ( std::size_t j = width; j > 0; --j )
    {
      r[j] = r[j - 1u];
    }
    r[0] = a[bit];
    // Trial subtraction: if r >= b, keep the difference and set the
    // quotient bit.
    aig_lit no_borrow = aig_network::const0;
    const auto diff = ripple_sub( aig, r, b_ext, &no_borrow );
    q[bit] = no_borrow;
    for ( std::size_t j = 0; j <= width; ++j )
    {
      r[j] = aig.create_mux( no_borrow, diff[j], r[j] );
    }
  }
  if ( remainder_out )
  {
    remainder_out->assign( r.begin(), r.begin() + static_cast<std::ptrdiff_t>( width ) );
  }
  return q;
}

std::vector<aig_lit> barrel_shift( aig_network& aig, const std::vector<aig_lit>& a,
                                   const std::vector<aig_lit>& s, bool left )
{
  const auto width = a.size();
  auto result = a;
  for ( std::size_t i = 0; i < s.size(); ++i )
  {
    const std::uint64_t amount = std::uint64_t{ 1 } << std::min<std::size_t>( i, 63u );
    std::vector<aig_lit> shifted( width, aig_network::const0 );
    if ( amount < width )
    {
      if ( left )
      {
        for ( std::size_t j = 0; j + amount < width; ++j )
        {
          shifted[j + amount] = result[j];
        }
      }
      else
      {
        for ( std::size_t j = amount; j < width; ++j )
        {
          shifted[j - amount] = result[j];
        }
      }
    }
    // else: shifting by >= width zeroes the word; `shifted` already is 0.
    for ( std::size_t j = 0; j < width; ++j )
    {
      result[j] = aig.create_mux( s[i], shifted[j], result[j] );
    }
  }
  return result;
}

/// --- elaborator -------------------------------------------------------------

namespace
{

struct signal_info
{
  net_kind kind = net_kind::wire;
  unsigned width = 0;
  std::vector<aig_lit> lits;  ///< valid where driven
  std::vector<bool> driven;
};

class elaborator_impl
{
public:
  explicit elaborator_impl( const module_def& mod ) : mod_( mod ) {}

  elaborated_module run()
  {
    collect_signals();
    create_inputs();
    schedule_assigns();
    collect_outputs();
    return { std::move( aig_ ), std::move( input_ports_ ), std::move( output_ports_ ) };
  }

private:
  [[noreturn]] void fail( const std::string& message ) const
  {
    // The AST carries no source positions, so the module name is the best
    // anchor an elaboration diagnostic can give (messages themselves name
    // the offending signal or port).
    throw std::runtime_error( "verilog elaborator: module '" + mod_.name + "': " + message );
  }

  void collect_signals()
  {
    for ( const auto& decl : mod_.declarations )
    {
      for ( const auto& name : decl.names )
      {
        if ( signals_.count( name ) )
        {
          // Non-ANSI style repeats the name (port list + declaration);
          // merge by overriding the kind if it was plain wire.
          auto& sig = signals_[name];
          if ( sig.kind == net_kind::wire )
          {
            sig.kind = decl.kind;
          }
          if ( sig.width != decl.width && decl.width != 1u )
          {
            sig.width = decl.width;
            sig.lits.assign( decl.width, aig_network::const0 );
            sig.driven.assign( decl.width, false );
          }
          continue;
        }
        signal_info sig;
        sig.kind = decl.kind;
        sig.width = decl.width;
        sig.lits.assign( decl.width, aig_network::const0 );
        sig.driven.assign( decl.width, false );
        signals_.emplace( name, std::move( sig ) );
      }
    }
  }

  void create_inputs()
  {
    for ( const auto& port : mod_.ports )
    {
      const auto it = signals_.find( port );
      if ( it == signals_.end() )
      {
        fail( "port '" + port + "' has no declaration" );
      }
      if ( it->second.kind != net_kind::input )
      {
        continue;
      }
      auto& sig = it->second;
      for ( unsigned b = 0; b < sig.width; ++b )
      {
        sig.lits[b] = aig_.add_pi();
        sig.driven[b] = true;
      }
      input_ports_.emplace_back( port, sig.width );
    }
  }

  /// Processes assigns (and declaration initializers) as a worklist so that
  /// textual order does not matter; detects combinational cycles.
  void schedule_assigns()
  {
    struct pending
    {
      lvalue target;
      const expression* rhs;
    };
    std::vector<pending> work;
    for ( const auto& decl : mod_.declarations )
    {
      if ( decl.initializer )
      {
        lvalue lv;
        lv.name = decl.names.front();
        work.push_back( { lv, decl.initializer.get() } );
      }
    }
    for ( const auto& stmt : mod_.assigns )
    {
      work.push_back( { stmt.target, stmt.rhs.get() } );
    }
    bool progress = true;
    while ( !work.empty() && progress )
    {
      progress = false;
      std::vector<pending> remaining;
      for ( auto& item : work )
      {
        if ( ready( *item.rhs ) )
        {
          apply_assign( item.target, *item.rhs );
          progress = true;
        }
        else
        {
          remaining.push_back( item );
        }
      }
      work = std::move( remaining );
    }
    if ( !work.empty() )
    {
      fail( "combinational cycle or use of undriven signal feeding '" +
            work.front().target.name + "'" );
    }
  }

  void collect_outputs()
  {
    for ( const auto& port : mod_.ports )
    {
      const auto& sig = signals_.at( port );
      if ( sig.kind != net_kind::output )
      {
        continue;
      }
      for ( unsigned b = 0; b < sig.width; ++b )
      {
        if ( !sig.driven[b] )
        {
          fail( "output '" + port + "' bit " + std::to_string( b ) + " is undriven" );
        }
        aig_.add_po( sig.lits[b] );
      }
      output_ports_.emplace_back( port, sig.width );
    }
  }

  const signal_info& signal( const std::string& name ) const
  {
    const auto it = signals_.find( name );
    if ( it == signals_.end() )
    {
      fail( "use of undeclared signal '" + name + "'" );
    }
    return it->second;
  }

  /// Binary nodes of the chain rooted at `e`, top-down, into `spine`, and
  /// its leftmost non-binary operand.  A left-associative chain such as
  /// `a ^ a ^ … ^ a` parses into a left spine as deep as the chain is
  /// long, so every walk goes down that spine in a loop; only operands off
  /// the spine recurse.
  static const expression& left_spine( const expression& e, std::vector<const expression*>& spine )
  {
    const expression* node = &e;
    while ( node->kind == expression::node_kind::binary )
    {
      spine.push_back( node );
      node = node->operands[0].get();
    }
    return *node;
  }

  /// True if all signal bits referenced by `e` are driven.  Visits the
  /// leftmost operand first, then each right operand bottom-up.
  bool ready( const expression& e ) const
  {
    std::vector<const expression*> spine;
    if ( !ready_leaf( left_spine( e, spine ) ) )
    {
      return false;
    }
    for ( auto it = spine.rbegin(); it != spine.rend(); ++it )
    {
      if ( !ready( *( *it )->operands[1] ) )
      {
        return false;
      }
    }
    return true;
  }

  /// `ready` of a non-binary expression.
  bool ready_leaf( const expression& e ) const
  {
    switch ( e.kind )
    {
    case expression::node_kind::number:
      return true;
    case expression::node_kind::identifier:
    {
      const auto& sig = signal( e.name );
      return std::all_of( sig.driven.begin(), sig.driven.end(), []( bool d ) { return d; } );
    }
    case expression::node_kind::bit_select:
    {
      const auto& sig = signal( e.name );
      const auto idx = constant_value( *e.index );
      return idx < sig.width && sig.driven[idx];
    }
    case expression::node_kind::part_select:
    {
      const auto& sig = signal( e.name );
      const auto msb = constant_value( *e.index_msb );
      const auto lsb = constant_value( *e.index_lsb );
      if ( msb < lsb || msb >= sig.width )
      {
        fail( "part select out of range on '" + e.name + "'" );
      }
      for ( auto b = lsb; b <= msb; ++b )
      {
        if ( !sig.driven[b] )
        {
          return false;
        }
      }
      return true;
    }
    case expression::node_kind::replicate:
      return ready( *e.operands[0] );
    default:
      for ( const auto& op : e.operands )
      {
        if ( !ready( *op ) )
        {
          return false;
        }
      }
      return true;
    }
  }

  /// Constant expression evaluation (for indices, repeat counts, shift
  /// amounts where constant).
  unsigned constant_value( const expression& e ) const
  {
    std::uint64_t value = 0;
    if ( !try_constant( e, value ) )
    {
      fail( "expression must be constant" );
    }
    return static_cast<unsigned>( value );
  }

  bool try_constant( const expression& e, std::uint64_t& value ) const
  {
    std::vector<const expression*> spine;
    const auto& leaf = left_spine( e, spine );
    if ( leaf.kind != expression::node_kind::number )
    {
      return false;
    }
    value = 0;
    for ( std::size_t b = 0; b < leaf.bits.size() && b < 64u; ++b )
    {
      if ( leaf.bits[b] )
      {
        value |= std::uint64_t{ 1 } << b;
      }
    }
    for ( auto it = spine.rbegin(); it != spine.rend(); ++it )
    {
      std::uint64_t b = 0;
      if ( !try_constant( *( *it )->operands[1], b ) )
      {
        return false;
      }
      switch ( ( *it )->bin_op )
      {
      case binary_op::add: value += b; break;
      case binary_op::sub: value -= b; break;
      case binary_op::mul: value *= b; break;
      default: return false;
      }
    }
    return true;
  }

  /// Self-determined width of an expression.  Visits the right operands
  /// of a binary chain top-down, then its leftmost operand.
  unsigned width_of( const expression& e ) const
  {
    unsigned width = 0;
    const expression* node = &e;
    for ( ; node->kind == expression::node_kind::binary; node = node->operands[0].get() )
    {
      switch ( node->bin_op )
      {
      case binary_op::lt:
      case binary_op::le:
      case binary_op::gt:
      case binary_op::ge:
      case binary_op::eq:
      case binary_op::ne:
      case binary_op::logic_and:
      case binary_op::logic_or:
        return std::max( width, 1u );
      case binary_op::shl:
      case binary_op::shr:
        break; // the left operand's width
      default:
        width = std::max( width, width_of( *node->operands[1] ) );
      }
    }
    return std::max( width, leaf_width( *node ) );
  }

  /// `width_of` of a non-binary expression.
  unsigned leaf_width( const expression& e ) const
  {
    switch ( e.kind )
    {
    case expression::node_kind::number:
      return static_cast<unsigned>( e.bits.size() );
    case expression::node_kind::identifier:
      return signal( e.name ).width;
    case expression::node_kind::bit_select:
      return 1u;
    case expression::node_kind::part_select:
      return constant_value( *e.index_msb ) - constant_value( *e.index_lsb ) + 1u;
    case expression::node_kind::unary:
      switch ( e.un_op )
      {
      case unary_op::bit_not:
      case unary_op::negate:
        return width_of( *e.operands[0] );
      default:
        return 1u; // logic not, reductions
      }
    case expression::node_kind::binary:
      break; // width_of walks binary chains
    case expression::node_kind::ternary:
      return std::max( width_of( *e.operands[1] ), width_of( *e.operands[2] ) );
    case expression::node_kind::concat:
    {
      unsigned total = 0;
      for ( const auto& op : e.operands )
      {
        total += width_of( *op );
      }
      return total;
    }
    case expression::node_kind::replicate:
      return constant_value( *e.repeat_count ) * width_of( *e.operands[0] );
    }
    fail( "unreachable expression kind" );
  }

  /// Zero-extends or truncates a literal vector to `width`.
  static std::vector<aig_lit> resize_bits( std::vector<aig_lit> bits, unsigned width )
  {
    bits.resize( width, aig_network::const0 );
    return bits;
  }

  aig_lit reduce_or_bits( const std::vector<aig_lit>& bits )
  {
    return aig_.create_nary_or( bits );
  }

  /// Elaborates `e` in a context of `width` bits.  A binary chain is walked
  /// down its left spine in a loop (see `left_spine`): going down, each
  /// level fixes its left operand's width and elaborates a right operand
  /// that comes first; coming up, each level combines.  `+ - * / %`
  /// elaborate their right operand before their left one, every other
  /// binary operator its left one first.  The order of the create_* calls
  /// fixes the AIG's node numbering, which content hashes and store keys
  /// depend on, so it must not change.
  std::vector<aig_lit> elab( const expression& e, unsigned width )
  {
    struct level
    {
      const expression* node;
      unsigned width;             ///< context width of the node
      unsigned operand_width;     ///< context width of its left operand
      std::vector<aig_lit> right; ///< its right operand, if elaborated first
    };
    std::vector<level> spine;
    const expression* node = &e;
    while ( node->kind == expression::node_kind::binary )
    {
      const auto& lhs = *node->operands[0];
      const auto& rhs = *node->operands[1];
      level lv{ node, width, width, {} };
      switch ( node->bin_op )
      {
      case binary_op::add:
      case binary_op::sub:
      case binary_op::mul:
      case binary_op::div:
      case binary_op::mod:
        lv.right = elab( rhs, width );
        break;
      case binary_op::lt:
      case binary_op::le:
      case binary_op::gt:
      case binary_op::ge:
      case binary_op::eq:
      case binary_op::ne:
        // Comparison width: max of the self-determined operand widths.
        lv.operand_width = std::max( width_of( lhs ), width_of( rhs ) );
        break;
      case binary_op::logic_and:
      case binary_op::logic_or:
        lv.operand_width = width_of( lhs );
        break;
      default:
        break;
      }
      width = lv.operand_width;
      spine.push_back( std::move( lv ) );
      node = &lhs;
    }
    auto bits = elab_leaf( *node, width );
    for ( auto it = spine.rbegin(); it != spine.rend(); ++it )
    {
      bits = elab_binary( *it->node, it->width, it->operand_width, std::move( bits ),
                          std::move( it->right ) );
    }
    return bits;
  }

  /// `elab` of a non-binary expression.
  std::vector<aig_lit> elab_leaf( const expression& e, unsigned width )
  {
    switch ( e.kind )
    {
    case expression::node_kind::number:
    {
      std::vector<aig_lit> bits( width, aig_network::const0 );
      for ( std::size_t b = 0; b < e.bits.size() && b < width; ++b )
      {
        bits[b] = aig_network::get_constant( e.bits[b] );
      }
      return bits;
    }
    case expression::node_kind::identifier:
      return resize_bits( signal( e.name ).lits, width );
    case expression::node_kind::bit_select:
    {
      const auto& sig = signal( e.name );
      const auto idx = constant_value( *e.index );
      if ( idx >= sig.width )
      {
        fail( "bit select out of range on '" + e.name + "'" );
      }
      return resize_bits( { sig.lits[idx] }, width );
    }
    case expression::node_kind::part_select:
    {
      const auto& sig = signal( e.name );
      const auto msb = constant_value( *e.index_msb );
      const auto lsb = constant_value( *e.index_lsb );
      if ( msb < lsb || msb >= sig.width )
      {
        fail( "part select out of range on '" + e.name + "'" );
      }
      std::vector<aig_lit> bits( sig.lits.begin() + lsb, sig.lits.begin() + msb + 1u );
      return resize_bits( std::move( bits ), width );
    }
    case expression::node_kind::unary:
      return elab_unary( e, width );
    case expression::node_kind::binary:
      break; // elab walks binary chains
    case expression::node_kind::ternary:
    {
      // The condition is self-determined; nonzero means true.
      const auto cond_bits = elab( *e.operands[0], width_of( *e.operands[0] ) );
      const auto cond = reduce_or_bits( cond_bits );
      const auto t = elab( *e.operands[1], width );
      const auto f = elab( *e.operands[2], width );
      std::vector<aig_lit> bits( width );
      for ( unsigned b = 0; b < width; ++b )
      {
        bits[b] = aig_.create_mux( cond, t[b], f[b] );
      }
      return bits;
    }
    case expression::node_kind::concat:
    {
      // Operands are self-determined; the first operand is the MSB part.
      std::vector<aig_lit> bits;
      for ( auto it = e.operands.rbegin(); it != e.operands.rend(); ++it )
      {
        const auto w = width_of( **it );
        const auto part = elab( **it, w );
        bits.insert( bits.end(), part.begin(), part.end() );
      }
      return resize_bits( std::move( bits ), width );
    }
    case expression::node_kind::replicate:
    {
      const auto count = constant_value( *e.repeat_count );
      const auto w = width_of( *e.operands[0] );
      const auto part = elab( *e.operands[0], w );
      std::vector<aig_lit> bits;
      for ( unsigned r = 0; r < count; ++r )
      {
        bits.insert( bits.end(), part.begin(), part.end() );
      }
      return resize_bits( std::move( bits ), width );
    }
    }
    fail( "unreachable expression kind" );
  }

  std::vector<aig_lit> elab_unary( const expression& e, unsigned width )
  {
    const auto& op = *e.operands[0];
    switch ( e.un_op )
    {
    case unary_op::bit_not:
    {
      auto bits = elab( op, width );
      for ( auto& b : bits )
      {
        b = lit_not( b );
      }
      return bits;
    }
    case unary_op::negate:
    {
      auto bits = elab( op, width );
      for ( auto& b : bits )
      {
        b = lit_not( b );
      }
      const std::vector<aig_lit> zero( width, aig_network::const0 );
      return ripple_add( aig_, bits, zero, aig_network::const1 );
    }
    case unary_op::logic_not:
    {
      const auto bits = elab( op, width_of( op ) );
      return resize_bits( { lit_not( reduce_or_bits( bits ) ) }, width );
    }
    case unary_op::reduce_and:
    {
      const auto bits = elab( op, width_of( op ) );
      return resize_bits( { aig_.create_nary_and( bits ) }, width );
    }
    case unary_op::reduce_or:
    {
      const auto bits = elab( op, width_of( op ) );
      return resize_bits( { reduce_or_bits( bits ) }, width );
    }
    case unary_op::reduce_xor:
    {
      const auto bits = elab( op, width_of( op ) );
      return resize_bits( { aig_.create_nary_xor( bits ) }, width );
    }
    }
    fail( "unreachable unary op" );
  }

  /// Combines a binary node from its left operand `a`, elaborated at
  /// `operand_width`, and its right operand: `b` for `+ - * / %`, else
  /// elaborated here.
  std::vector<aig_lit> elab_binary( const expression& e, unsigned width, unsigned operand_width,
                                    std::vector<aig_lit> a, std::vector<aig_lit> b )
  {
    const auto& rhs = *e.operands[1];
    switch ( e.bin_op )
    {
    case binary_op::add:
      return ripple_add( aig_, a, b, aig_network::const0 );
    case binary_op::sub:
      return ripple_sub( aig_, a, b );
    case binary_op::mul:
      return array_multiply( aig_, a, b );
    case binary_op::div:
      return restoring_divide( aig_, a, b );
    case binary_op::mod:
    {
      std::vector<aig_lit> remainder;
      restoring_divide( aig_, a, b, &remainder );
      return remainder;
    }
    case binary_op::bit_and:
    case binary_op::bit_or:
    case binary_op::bit_xor:
    {
      b = elab( rhs, width );
      std::vector<aig_lit> bits( width );
      for ( unsigned i = 0; i < width; ++i )
      {
        bits[i] = e.bin_op == binary_op::bit_and ? aig_.create_and( a[i], b[i] )
                : e.bin_op == binary_op::bit_or  ? aig_.create_or( a[i], b[i] )
                                                 : aig_.create_xor( a[i], b[i] );
      }
      return bits;
    }
    case binary_op::shl:
    case binary_op::shr:
    {
      std::uint64_t amount = 0;
      if ( try_constant( rhs, amount ) )
      {
        std::vector<aig_lit> bits( width, aig_network::const0 );
        const bool left = e.bin_op == binary_op::shl;
        for ( unsigned j = 0; j < width; ++j )
        {
          const std::int64_t src = left ? static_cast<std::int64_t>( j ) - static_cast<std::int64_t>( amount )
                                        : static_cast<std::int64_t>( j ) + static_cast<std::int64_t>( amount );
          if ( src >= 0 && src < static_cast<std::int64_t>( width ) )
          {
            bits[j] = a[static_cast<std::size_t>( src )];
          }
        }
        return bits;
      }
      const auto s = elab( rhs, width_of( rhs ) );
      return barrel_shift( aig_, a, s, e.bin_op == binary_op::shl );
    }
    case binary_op::lt:
    case binary_op::le:
    case binary_op::gt:
    case binary_op::ge:
    {
      b = elab( rhs, operand_width );
      if ( e.bin_op == binary_op::gt || e.bin_op == binary_op::le )
      {
        std::swap( a, b ); // a>b == b<a, a<=b == !(b<a)
      }
      aig_lit no_borrow = aig_network::const0;
      ripple_sub( aig_, a, b, &no_borrow );
      // no_borrow == (a >= b), so a < b == !no_borrow.
      auto less = lit_not( no_borrow );
      if ( e.bin_op == binary_op::le || e.bin_op == binary_op::ge )
      {
        less = lit_not( less ); // le: !(b<a); ge: !(a<b)
      }
      return resize_bits( { less }, width );
    }
    case binary_op::eq:
    case binary_op::ne:
    {
      b = elab( rhs, operand_width );
      std::vector<aig_lit> eq_bits( operand_width );
      for ( unsigned i = 0; i < operand_width; ++i )
      {
        eq_bits[i] = aig_.create_xnor( a[i], b[i] );
      }
      auto equal = aig_.create_nary_and( eq_bits );
      if ( e.bin_op == binary_op::ne )
      {
        equal = lit_not( equal );
      }
      return resize_bits( { equal }, width );
    }
    case binary_op::logic_and:
    case binary_op::logic_or:
    {
      const auto x = reduce_or_bits( a );
      const auto y = reduce_or_bits( elab( rhs, width_of( rhs ) ) );
      const auto r = e.bin_op == binary_op::logic_and ? aig_.create_and( x, y )
                                                      : aig_.create_or( x, y );
      return resize_bits( { r }, width );
    }
    }
    fail( "unreachable binary op" );
  }

  void apply_assign( const lvalue& target, const expression& rhs )
  {
    const auto it = signals_.find( target.name );
    if ( it == signals_.end() )
    {
      fail( "assignment to undeclared signal '" + target.name + "'" );
    }
    auto& sig = it->second;
    if ( sig.kind == net_kind::input )
    {
      fail( "assignment to input '" + target.name + "'" );
    }
    unsigned lo = 0;
    unsigned hi = sig.width - 1u;
    if ( target.has_range )
    {
      lo = target.lsb;
      hi = target.msb;
      if ( hi < lo || hi >= sig.width )
      {
        fail( "lvalue range out of bounds on '" + target.name + "'" );
      }
    }
    const unsigned lhs_width = hi - lo + 1u;
    // Verilog context width: RHS computed at max(lhs, self-determined rhs)
    // and truncated to the lhs width.
    const auto context = std::max( lhs_width, width_of( rhs ) );
    const auto bits = elab( rhs, context );
    for ( unsigned b = 0; b < lhs_width; ++b )
    {
      if ( sig.driven[lo + b] )
      {
        fail( "multiple drivers on '" + target.name + "' bit " + std::to_string( lo + b ) );
      }
      sig.lits[lo + b] = bits[b];
      sig.driven[lo + b] = true;
    }
  }

  const module_def& mod_;
  aig_network aig_;
  std::map<std::string, signal_info> signals_;
  std::vector<std::pair<std::string, unsigned>> input_ports_;
  std::vector<std::pair<std::string, unsigned>> output_ports_;
};

} // namespace

elaborated_module elaborate( const module_def& mod )
{
  elaborator_impl impl( mod );
  return impl.run();
}

elaborated_module elaborate_verilog( const std::string& source, const std::string& source_name )
{
  const auto mod = parse_module( source, source_name );
  try
  {
    return elaborate( mod );
  }
  catch ( const std::runtime_error& e )
  {
    throw std::runtime_error( source_name + ": " + e.what() );
  }
}

} // namespace qsyn::verilog
