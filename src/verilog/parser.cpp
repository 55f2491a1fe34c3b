#include "parser.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "lexer.hpp"

namespace qsyn::verilog
{

namespace
{

/// Printable form of a token for diagnostics: identifiers and keywords show
/// their text, everything else a fixed spelling or description.
std::string token_spelling( const token& t )
{
  if ( !t.text.empty() )
  {
    return "'" + t.text + "'";
  }
  switch ( t.kind )
  {
  case token_kind::identifier:
    return "identifier";
  case token_kind::number:
    return "number";
  case token_kind::keyword_module:
    return "'module'";
  case token_kind::keyword_endmodule:
    return "'endmodule'";
  case token_kind::keyword_input:
    return "'input'";
  case token_kind::keyword_output:
    return "'output'";
  case token_kind::keyword_wire:
    return "'wire'";
  case token_kind::keyword_assign:
    return "'assign'";
  case token_kind::lparen:
    return "'('";
  case token_kind::rparen:
    return "')'";
  case token_kind::lbracket:
    return "'['";
  case token_kind::rbracket:
    return "']'";
  case token_kind::lbrace:
    return "'{'";
  case token_kind::rbrace:
    return "'}'";
  case token_kind::comma:
    return "','";
  case token_kind::semicolon:
    return "';'";
  case token_kind::colon:
    return "':'";
  case token_kind::question:
    return "'?'";
  case token_kind::plus:
    return "'+'";
  case token_kind::minus:
    return "'-'";
  case token_kind::star:
    return "'*'";
  case token_kind::slash:
    return "'/'";
  case token_kind::percent:
    return "'%'";
  case token_kind::shift_left:
    return "'<<'";
  case token_kind::shift_right:
    return "'>>'";
  case token_kind::less:
    return "'<'";
  case token_kind::less_equal:
    return "'<='";
  case token_kind::greater:
    return "'>'";
  case token_kind::greater_equal:
    return "'>='";
  case token_kind::equal_equal:
    return "'=='";
  case token_kind::not_equal:
    return "'!='";
  case token_kind::amp:
    return "'&'";
  case token_kind::amp_amp:
    return "'&&'";
  case token_kind::pipe:
    return "'|'";
  case token_kind::pipe_pipe:
    return "'||'";
  case token_kind::caret:
    return "'^'";
  case token_kind::tilde:
    return "'~'";
  case token_kind::bang:
    return "'!'";
  case token_kind::assign_op:
    return "'='";
  case token_kind::end_of_file:
    return "end of file";
  }
  return "token";
}

class parser
{
public:
  /// Deepest expression nesting the recursive descent accepts: each
  /// parenthesis, unary operator, ternary branch, concatenation or select
  /// opens one level.  Deeper input is a parse error, not a stack overflow.
  static constexpr unsigned max_nesting = 256;

  parser( std::vector<token> tokens, std::string source_name )
      : tokens_( std::move( tokens ) ), source_name_( std::move( source_name ) )
  {
  }

  module_def parse()
  {
    module_def mod;
    expect( token_kind::keyword_module );
    mod.name = expect( token_kind::identifier ).text;
    expect( token_kind::lparen );
    // ANSI or non-ANSI port list.
    if ( !at( token_kind::rparen ) )
    {
      for ( ;; )
      {
        if ( at( token_kind::keyword_input ) || at( token_kind::keyword_output ) )
        {
          declaration decl = parse_port_declaration();
          mod.ports.push_back( decl.names.front() );
          mod.declarations.push_back( std::move( decl ) );
        }
        else
        {
          mod.ports.push_back( expect( token_kind::identifier ).text );
        }
        if ( !accept( token_kind::comma ) )
        {
          break;
        }
      }
    }
    expect( token_kind::rparen );
    expect( token_kind::semicolon );

    while ( !at( token_kind::keyword_endmodule ) )
    {
      if ( at( token_kind::keyword_input ) || at( token_kind::keyword_output ) ||
           at( token_kind::keyword_wire ) )
      {
        mod.declarations.push_back( parse_declaration() );
      }
      else if ( accept( token_kind::keyword_assign ) )
      {
        assign_statement stmt;
        stmt.target = parse_lvalue();
        expect( token_kind::assign_op );
        stmt.rhs = parse_expression();
        expect( token_kind::semicolon );
        mod.assigns.push_back( std::move( stmt ) );
      }
      else
      {
        fail( "expected declaration, assign, or endmodule" );
      }
    }
    expect( token_kind::keyword_endmodule );
    return mod;
  }

private:
  /// One level of expression nesting for the lifetime of the object.
  class nesting
  {
  public:
    explicit nesting( parser& p ) : p_( p )
    {
      if ( p_.depth_ == max_nesting )
      {
        p_.fail( "expression nested deeper than " + std::to_string( max_nesting ) + " levels" );
      }
      ++p_.depth_;
    }
    nesting( const nesting& ) = delete;
    nesting& operator=( const nesting& ) = delete;
    ~nesting() { --p_.depth_; }

  private:
    parser& p_;
  };

  const token& current() const { return tokens_[pos_]; }
  bool at( token_kind kind ) const { return current().kind == kind; }

  bool accept( token_kind kind )
  {
    if ( at( kind ) )
    {
      ++pos_;
      return true;
    }
    return false;
  }

  token expect( token_kind kind )
  {
    if ( !at( kind ) )
    {
      token wanted{};
      wanted.kind = kind;
      fail( "expected " + token_spelling( wanted ) );
    }
    return tokens_[pos_++];
  }

  [[noreturn]] void fail( const std::string& message ) const
  {
    throw std::runtime_error( source_name_ + ":" + std::to_string( current().line ) +
                              ": verilog parser: " + message + " near " +
                              token_spelling( current() ) );
  }

  /// Parses `[msb:lsb]`; returns the width and requires lsb == 0.
  unsigned parse_range()
  {
    expect( token_kind::lbracket );
    const auto msb = parse_constant();
    expect( token_kind::colon );
    const auto lsb = parse_constant();
    expect( token_kind::rbracket );
    if ( lsb != 0 )
    {
      fail( "only [msb:0] ranges are supported in declarations" );
    }
    return static_cast<unsigned>( msb ) + 1u;
  }

  /// A constant integer expression made of numbers, +, -, * and parentheses.
  std::uint64_t parse_constant()
  {
    const nesting level( *this );
    return parse_constant_add();
  }

  std::uint64_t parse_constant_add()
  {
    auto value = parse_constant_mul();
    for ( ;; )
    {
      if ( accept( token_kind::plus ) )
      {
        value += parse_constant_mul();
      }
      else if ( accept( token_kind::minus ) )
      {
        value -= parse_constant_mul();
      }
      else
      {
        return value;
      }
    }
  }

  std::uint64_t parse_constant_mul()
  {
    auto value = parse_constant_primary();
    while ( accept( token_kind::star ) )
    {
      value *= parse_constant_primary();
    }
    return value;
  }

  std::uint64_t parse_constant_primary()
  {
    if ( accept( token_kind::lparen ) )
    {
      const auto value = parse_constant();
      expect( token_kind::rparen );
      return value;
    }
    const auto t = expect( token_kind::number );
    std::uint64_t value = 0;
    for ( std::size_t b = 0; b < t.bits.size() && b < 64u; ++b )
    {
      if ( t.bits[b] )
      {
        value |= std::uint64_t{ 1 } << b;
      }
    }
    return value;
  }

  declaration parse_port_declaration()
  {
    declaration decl;
    if ( accept( token_kind::keyword_input ) )
    {
      decl.kind = net_kind::input;
    }
    else
    {
      expect( token_kind::keyword_output );
      decl.kind = net_kind::output;
    }
    accept( token_kind::keyword_wire ); // `input wire [..]` is permitted
    if ( at( token_kind::lbracket ) )
    {
      decl.width = parse_range();
    }
    decl.names.push_back( expect( token_kind::identifier ).text );
    return decl;
  }

  declaration parse_declaration()
  {
    declaration decl;
    if ( accept( token_kind::keyword_input ) )
    {
      decl.kind = net_kind::input;
    }
    else if ( accept( token_kind::keyword_output ) )
    {
      decl.kind = net_kind::output;
    }
    else
    {
      expect( token_kind::keyword_wire );
      decl.kind = net_kind::wire;
    }
    if ( at( token_kind::lbracket ) )
    {
      decl.width = parse_range();
    }
    decl.names.push_back( expect( token_kind::identifier ).text );
    if ( accept( token_kind::assign_op ) )
    {
      decl.initializer = parse_expression();
    }
    else
    {
      while ( accept( token_kind::comma ) )
      {
        decl.names.push_back( expect( token_kind::identifier ).text );
      }
    }
    expect( token_kind::semicolon );
    return decl;
  }

  lvalue parse_lvalue()
  {
    lvalue lv;
    lv.name = expect( token_kind::identifier ).text;
    if ( accept( token_kind::lbracket ) )
    {
      const auto first = parse_constant();
      if ( accept( token_kind::colon ) )
      {
        lv.msb = static_cast<unsigned>( first );
        lv.lsb = static_cast<unsigned>( parse_constant() );
      }
      else
      {
        lv.msb = lv.lsb = static_cast<unsigned>( first );
      }
      lv.has_range = true;
      expect( token_kind::rbracket );
    }
    return lv;
  }

  /// --- expressions, precedence climbing ---------------------------------

  expr_ptr parse_expression()
  {
    const nesting level( *this );
    return parse_ternary();
  }

  expr_ptr parse_ternary()
  {
    auto cond = parse_logic_or();
    if ( !accept( token_kind::question ) )
    {
      return cond;
    }
    auto then_branch = parse_expression();
    expect( token_kind::colon );
    auto else_branch = parse_expression();
    auto node = std::make_unique<expression>();
    node->kind = expression::node_kind::ternary;
    node->operands.push_back( std::move( cond ) );
    node->operands.push_back( std::move( then_branch ) );
    node->operands.push_back( std::move( else_branch ) );
    return node;
  }

  expr_ptr make_binary( binary_op op, expr_ptr lhs, expr_ptr rhs )
  {
    auto node = std::make_unique<expression>();
    node->kind = expression::node_kind::binary;
    node->bin_op = op;
    node->operands.push_back( std::move( lhs ) );
    node->operands.push_back( std::move( rhs ) );
    return node;
  }

  expr_ptr parse_logic_or()
  {
    auto lhs = parse_logic_and();
    while ( accept( token_kind::pipe_pipe ) )
    {
      lhs = make_binary( binary_op::logic_or, std::move( lhs ), parse_logic_and() );
    }
    return lhs;
  }

  expr_ptr parse_logic_and()
  {
    auto lhs = parse_bit_or();
    while ( accept( token_kind::amp_amp ) )
    {
      lhs = make_binary( binary_op::logic_and, std::move( lhs ), parse_bit_or() );
    }
    return lhs;
  }

  expr_ptr parse_bit_or()
  {
    auto lhs = parse_bit_xor();
    while ( accept( token_kind::pipe ) )
    {
      lhs = make_binary( binary_op::bit_or, std::move( lhs ), parse_bit_xor() );
    }
    return lhs;
  }

  expr_ptr parse_bit_xor()
  {
    auto lhs = parse_bit_and();
    while ( accept( token_kind::caret ) )
    {
      lhs = make_binary( binary_op::bit_xor, std::move( lhs ), parse_bit_and() );
    }
    return lhs;
  }

  expr_ptr parse_bit_and()
  {
    auto lhs = parse_equality();
    while ( accept( token_kind::amp ) )
    {
      lhs = make_binary( binary_op::bit_and, std::move( lhs ), parse_equality() );
    }
    return lhs;
  }

  expr_ptr parse_equality()
  {
    auto lhs = parse_relational();
    for ( ;; )
    {
      if ( accept( token_kind::equal_equal ) )
      {
        lhs = make_binary( binary_op::eq, std::move( lhs ), parse_relational() );
      }
      else if ( accept( token_kind::not_equal ) )
      {
        lhs = make_binary( binary_op::ne, std::move( lhs ), parse_relational() );
      }
      else
      {
        return lhs;
      }
    }
  }

  expr_ptr parse_relational()
  {
    auto lhs = parse_shift();
    for ( ;; )
    {
      if ( accept( token_kind::less ) )
      {
        lhs = make_binary( binary_op::lt, std::move( lhs ), parse_shift() );
      }
      else if ( accept( token_kind::less_equal ) )
      {
        lhs = make_binary( binary_op::le, std::move( lhs ), parse_shift() );
      }
      else if ( accept( token_kind::greater ) )
      {
        lhs = make_binary( binary_op::gt, std::move( lhs ), parse_shift() );
      }
      else if ( accept( token_kind::greater_equal ) )
      {
        lhs = make_binary( binary_op::ge, std::move( lhs ), parse_shift() );
      }
      else
      {
        return lhs;
      }
    }
  }

  expr_ptr parse_shift()
  {
    auto lhs = parse_additive();
    for ( ;; )
    {
      if ( accept( token_kind::shift_left ) )
      {
        lhs = make_binary( binary_op::shl, std::move( lhs ), parse_additive() );
      }
      else if ( accept( token_kind::shift_right ) )
      {
        lhs = make_binary( binary_op::shr, std::move( lhs ), parse_additive() );
      }
      else
      {
        return lhs;
      }
    }
  }

  expr_ptr parse_additive()
  {
    auto lhs = parse_multiplicative();
    for ( ;; )
    {
      if ( accept( token_kind::plus ) )
      {
        lhs = make_binary( binary_op::add, std::move( lhs ), parse_multiplicative() );
      }
      else if ( accept( token_kind::minus ) )
      {
        lhs = make_binary( binary_op::sub, std::move( lhs ), parse_multiplicative() );
      }
      else
      {
        return lhs;
      }
    }
  }

  expr_ptr parse_multiplicative()
  {
    auto lhs = parse_unary();
    for ( ;; )
    {
      if ( accept( token_kind::star ) )
      {
        lhs = make_binary( binary_op::mul, std::move( lhs ), parse_unary() );
      }
      else if ( accept( token_kind::slash ) )
      {
        lhs = make_binary( binary_op::div, std::move( lhs ), parse_unary() );
      }
      else if ( accept( token_kind::percent ) )
      {
        lhs = make_binary( binary_op::mod, std::move( lhs ), parse_unary() );
      }
      else
      {
        return lhs;
      }
    }
  }

  expr_ptr make_unary( unary_op op, expr_ptr operand )
  {
    auto node = std::make_unique<expression>();
    node->kind = expression::node_kind::unary;
    node->un_op = op;
    node->operands.push_back( std::move( operand ) );
    return node;
  }

  expr_ptr parse_unary()
  {
    static constexpr std::pair<token_kind, unary_op> prefix_ops[] = {
        { token_kind::tilde, unary_op::bit_not },
        { token_kind::bang, unary_op::logic_not },
        { token_kind::minus, unary_op::negate },
        { token_kind::amp, unary_op::reduce_and },
        { token_kind::pipe, unary_op::reduce_or },
        { token_kind::caret, unary_op::reduce_xor } };
    for ( const auto& [kind, op] : prefix_ops )
    {
      if ( accept( kind ) )
      {
        const nesting level( *this );
        return make_unary( op, parse_unary() );
      }
    }
    return parse_primary();
  }

  expr_ptr parse_primary()
  {
    if ( accept( token_kind::lparen ) )
    {
      auto inner = parse_expression();
      expect( token_kind::rparen );
      return inner;
    }
    if ( at( token_kind::number ) )
    {
      const auto t = expect( token_kind::number );
      auto node = std::make_unique<expression>();
      node->kind = expression::node_kind::number;
      node->bits = t.bits;
      node->sized = t.sized;
      return node;
    }
    if ( at( token_kind::lbrace ) )
    {
      return parse_concat();
    }
    const auto name = expect( token_kind::identifier ).text;
    if ( accept( token_kind::lbracket ) )
    {
      auto first = parse_expression();
      if ( accept( token_kind::colon ) )
      {
        auto node = std::make_unique<expression>();
        node->kind = expression::node_kind::part_select;
        node->name = name;
        node->index_msb = std::move( first );
        node->index_lsb = parse_expression();
        expect( token_kind::rbracket );
        return node;
      }
      expect( token_kind::rbracket );
      auto node = std::make_unique<expression>();
      node->kind = expression::node_kind::bit_select;
      node->name = name;
      node->index = std::move( first );
      return node;
    }
    auto node = std::make_unique<expression>();
    node->kind = expression::node_kind::identifier;
    node->name = name;
    return node;
  }

  expr_ptr parse_concat()
  {
    expect( token_kind::lbrace );
    auto first = parse_expression();
    // Replication: { count { expr } }
    if ( at( token_kind::lbrace ) )
    {
      auto node = std::make_unique<expression>();
      node->kind = expression::node_kind::replicate;
      node->repeat_count = std::move( first );
      expect( token_kind::lbrace );
      node->operands.push_back( parse_expression() );
      expect( token_kind::rbrace );
      expect( token_kind::rbrace );
      return node;
    }
    auto node = std::make_unique<expression>();
    node->kind = expression::node_kind::concat;
    node->operands.push_back( std::move( first ) );
    while ( accept( token_kind::comma ) )
    {
      node->operands.push_back( parse_expression() );
    }
    expect( token_kind::rbrace );
    return node;
  }

  std::vector<token> tokens_;
  std::string source_name_;
  std::size_t pos_ = 0;
  unsigned depth_ = 0; ///< current expression nesting
};

} // namespace

module_def parse_module( const std::string& source, const std::string& source_name )
{
  // Lexer diagnostics already carry a line number; prefix the source name
  // here so every layer's message says which design it came from.
  try
  {
    parser p( tokenize( source ), source_name );
    return p.parse();
  }
  catch ( const std::runtime_error& e )
  {
    const std::string what = e.what();
    if ( what.rfind( source_name + ":", 0 ) == 0 )
    {
      throw;
    }
    throw std::runtime_error( source_name + ": " + what );
  }
}

} // namespace qsyn::verilog
