/// \file ast.hpp
/// \brief Abstract syntax tree for the supported Verilog subset.
///
/// The design flows of the paper start from combinational Verilog
/// descriptions (INTDIV(n), NEWTON(n)).  The supported subset covers
/// everything those designs and typical arithmetic blocks need:
///
/// * one module with ANSI or non-ANSI port declarations,
/// * `input` / `output` / `wire` declarations with `[msb:lsb]` ranges
///   (lsb must be 0) and optional net initializers (`wire [3:0] a = ...;`),
/// * `assign` statements to whole signals or constant part/bit selects,
/// * unsigned expressions: `?:`, `||`, `&&`, `|`, `^`, `&`, `==`, `!=`,
///   `<`, `<=`, `>`, `>=`, `<<`, `>>`, `+`, `-`, `*`, `/`, `%`, unary
///   `~ ! -` and reductions `& | ^`, concatenation `{a,b}`, replication
///   `{4{a}}`, bit select `a[i]`, part select `a[m:l]`,
/// * sized and unsized numeric literals in binary / hex / decimal
///   (binary and hex support arbitrary widths; decimal up to 64 bits).
///
/// Width semantics follow the Verilog standard for unsigned contexts: the
/// operands of context-determined operators are extended to the context
/// width before the operation; concatenation, replication and shift amounts
/// are self-determined.

#pragma once

#include <memory>
#include <string>
#include <vector>

namespace qsyn::verilog
{

enum class binary_op
{
  add,
  sub,
  mul,
  div,
  mod,
  shl,
  shr,
  lt,
  le,
  gt,
  ge,
  eq,
  ne,
  bit_and,
  bit_or,
  bit_xor,
  logic_and,
  logic_or
};

enum class unary_op
{
  bit_not,
  logic_not,
  negate,
  reduce_and,
  reduce_or,
  reduce_xor
};

/// Expression node.  A single variant-style struct keeps the parser and
/// elaborator compact.
struct expression
{
  enum class node_kind
  {
    number,
    identifier,
    unary,
    binary,
    ternary,
    concat,
    replicate,
    bit_select,
    part_select
  };

  node_kind kind;

  // number
  std::vector<bool> bits; ///< LSB first
  bool sized = false;     ///< width was given explicitly

  // identifier / selects
  std::string name;
  std::unique_ptr<expression> index;     ///< bit_select
  std::unique_ptr<expression> index_msb; ///< part_select
  std::unique_ptr<expression> index_lsb; ///< part_select

  // operators
  unary_op un_op = unary_op::bit_not;
  binary_op bin_op = binary_op::add;
  std::vector<std::unique_ptr<expression>> operands;

  // replicate
  std::unique_ptr<expression> repeat_count;

  expression() = default;
  expression( const expression& ) = delete;
  expression& operator=( const expression& ) = delete;
  ~expression();
};

using expr_ptr = std::unique_ptr<expression>;

/// Destroys the subtree without recursion: a long operator chain is a left
/// spine as deep as the chain is long.  Children move onto an explicit
/// stack, and each dies after handing over its own.
inline expression::~expression()
{
  std::vector<expr_ptr> pending;
  const auto detach = [&pending]( expression& e ) {
    for ( auto& op : e.operands )
    {
      if ( op )
      {
        pending.push_back( std::move( op ) );
      }
    }
    for ( auto* child : { &e.index, &e.index_msb, &e.index_lsb, &e.repeat_count } )
    {
      if ( *child )
      {
        pending.push_back( std::move( *child ) );
      }
    }
  };
  detach( *this );
  while ( !pending.empty() )
  {
    const auto node = std::move( pending.back() );
    pending.pop_back();
    detach( *node );
  }
}

enum class net_kind
{
  input,
  output,
  wire
};

/// A declaration like `output [7:0] y;` or `wire [3:0] a = b + c;`.
struct declaration
{
  net_kind kind = net_kind::wire;
  unsigned width = 1;
  std::vector<std::string> names;
  expr_ptr initializer; ///< optional, only for single-name declarations
};

/// Target of an `assign`: whole signal, a bit, or a constant part select.
struct lvalue
{
  std::string name;
  bool has_range = false;
  unsigned msb = 0;
  unsigned lsb = 0;
};

struct assign_statement
{
  lvalue target;
  expr_ptr rhs;
};

/// A parsed module.
struct module_def
{
  std::string name;
  std::vector<std::string> ports; ///< port order as in the header
  std::vector<declaration> declarations;
  std::vector<assign_statement> assigns;
};

} // namespace qsyn::verilog
