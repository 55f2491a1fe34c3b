#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <string>

#include "verilog/elaborator.hpp"
#include "verilog/generators.hpp"
#include "verilog/lexer.hpp"
#include "verilog/parser.hpp"

using namespace qsyn;
using namespace qsyn::verilog;

/// Evaluates an elaborated module on word-level inputs.
static std::uint64_t eval_module( const elaborated_module& mod,
                                  const std::vector<std::uint64_t>& inputs )
{
  std::vector<bool> bits;
  for ( std::size_t p = 0; p < mod.input_ports.size(); ++p )
  {
    for ( unsigned b = 0; b < mod.input_ports[p].second; ++b )
    {
      bits.push_back( ( inputs[p] >> b ) & 1u );
    }
  }
  const auto out = mod.aig.evaluate( bits );
  std::uint64_t value = 0;
  for ( std::size_t b = 0; b < out.size() && b < 64u; ++b )
  {
    if ( out[b] )
    {
      value |= std::uint64_t{ 1 } << b;
    }
  }
  return value;
}

TEST( verilog_lexer, tokens_and_comments )
{
  const auto tokens = tokenize( "module m; // comment\n /* block\ncomment */ wire a; endmodule" );
  ASSERT_GE( tokens.size(), 6u );
  EXPECT_EQ( tokens[0].kind, token_kind::keyword_module );
  EXPECT_EQ( tokens[1].kind, token_kind::identifier );
  EXPECT_EQ( tokens[1].text, "m" );
  EXPECT_EQ( tokens[3].kind, token_kind::keyword_wire );
  EXPECT_EQ( tokens.back().kind, token_kind::end_of_file );
}

TEST( verilog_lexer, sized_binary_literal )
{
  const auto tokens = tokenize( "9'b1_0000_0000" );
  ASSERT_EQ( tokens[0].kind, token_kind::number );
  EXPECT_TRUE( tokens[0].sized );
  ASSERT_EQ( tokens[0].bits.size(), 9u );
  EXPECT_TRUE( tokens[0].bits[8] );
  for ( unsigned i = 0; i < 8; ++i )
  {
    EXPECT_FALSE( tokens[0].bits[i] );
  }
}

TEST( verilog_lexer, hex_and_decimal_literals )
{
  const auto hex = tokenize( "8'hff" );
  EXPECT_EQ( hex[0].bits.size(), 8u );
  for ( unsigned i = 0; i < 8; ++i )
  {
    EXPECT_TRUE( hex[0].bits[i] );
  }
  const auto dec = tokenize( "13" );
  std::uint64_t value = 0;
  for ( std::size_t i = 0; i < dec[0].bits.size(); ++i )
  {
    value |= static_cast<std::uint64_t>( dec[0].bits[i] ) << i;
  }
  EXPECT_EQ( value, 13u );
}

TEST( verilog_lexer, error_reports_line )
{
  try
  {
    tokenize( "module m;\n$bad" );
    FAIL() << "expected exception";
  }
  catch ( const std::runtime_error& e )
  {
    EXPECT_NE( std::string( e.what() ).find( "line 2" ), std::string::npos );
  }
}

TEST( verilog_parser, ansi_ports_and_assign )
{
  const auto mod = parse_module( R"(
    module add8(input [7:0] a, input [7:0] b, output [8:0] s);
      assign s = a + b;
    endmodule
  )" );
  EXPECT_EQ( mod.name, "add8" );
  EXPECT_EQ( mod.ports, ( std::vector<std::string>{ "a", "b", "s" } ) );
  EXPECT_EQ( mod.declarations.size(), 3u );
  EXPECT_EQ( mod.assigns.size(), 1u );
}

TEST( verilog_parser, non_ansi_ports )
{
  const auto mod = parse_module( R"(
    module m(x, y);
      input [3:0] x;
      output [3:0] y;
      assign y = ~x;
    endmodule
  )" );
  EXPECT_EQ( mod.ports.size(), 2u );
  EXPECT_EQ( mod.declarations.size(), 2u );
}

TEST( verilog_parser, operator_precedence_shape )
{
  const auto mod = parse_module( R"(
    module m(input [3:0] a, input [3:0] b, output [3:0] y);
      assign y = a + b * a;
    endmodule
  )" );
  const auto& rhs = *mod.assigns[0].rhs;
  ASSERT_EQ( rhs.kind, expression::node_kind::binary );
  EXPECT_EQ( rhs.bin_op, binary_op::add );
  EXPECT_EQ( rhs.operands[1]->bin_op, binary_op::mul );
}

TEST( verilog_parser, syntax_error_throws )
{
  EXPECT_THROW( parse_module( "module m(; endmodule" ), std::runtime_error );
  EXPECT_THROW( parse_module( "module m(a); assign = 1; endmodule" ), std::runtime_error );
}

/// Parameterized operator checks against host arithmetic.
struct op_case
{
  const char* expr;
  std::uint64_t ( *reference )( std::uint64_t, std::uint64_t, unsigned );
};

class verilog_ops : public ::testing::TestWithParam<std::tuple<op_case, unsigned>>
{
};

TEST_P( verilog_ops, matches_host_arithmetic )
{
  const auto [op, width] = GetParam();
  const auto mask = width >= 64 ? ~std::uint64_t{ 0 } : ( ( std::uint64_t{ 1 } << width ) - 1u );
  std::string source = "module m(input [" + std::to_string( width - 1 ) + ":0] a, input [" +
                       std::to_string( width - 1 ) + ":0] b, output [" +
                       std::to_string( width - 1 ) + ":0] y);\n  assign y = " + op.expr +
                       ";\nendmodule\n";
  const auto mod = elaborate_verilog( source );
  std::mt19937_64 rng( width * 977u );
  for ( int trial = 0; trial < 40; ++trial )
  {
    std::uint64_t a = rng() & mask;
    std::uint64_t b = rng() & mask;
    if ( trial == 0 )
    {
      a = 0;
      b = 0;
    }
    if ( trial == 1 )
    {
      a = mask;
      b = mask;
    }
    if ( op.expr == std::string( "a / b" ) || op.expr == std::string( "a % b" ) )
    {
      b = std::max<std::uint64_t>( b, 1u );
    }
    const auto expected = op.reference( a, b, width ) & mask;
    EXPECT_EQ( eval_module( mod, { a, b } ), expected )
        << op.expr << " w=" << width << " a=" << a << " b=" << b;
  }
}

static op_case cases[] = {
    { "a + b", []( std::uint64_t a, std::uint64_t b, unsigned ) { return a + b; } },
    { "a - b", []( std::uint64_t a, std::uint64_t b, unsigned ) { return a - b; } },
    { "a * b", []( std::uint64_t a, std::uint64_t b, unsigned ) { return a * b; } },
    { "a / b", []( std::uint64_t a, std::uint64_t b, unsigned ) { return a / b; } },
    { "a % b", []( std::uint64_t a, std::uint64_t b, unsigned ) { return a % b; } },
    { "a & b", []( std::uint64_t a, std::uint64_t b, unsigned ) { return a & b; } },
    { "a | b", []( std::uint64_t a, std::uint64_t b, unsigned ) { return a | b; } },
    { "a ^ b", []( std::uint64_t a, std::uint64_t b, unsigned ) { return a ^ b; } },
    { "a < b", []( std::uint64_t a, std::uint64_t b, unsigned ) -> std::uint64_t { return a < b; } },
    { "a <= b", []( std::uint64_t a, std::uint64_t b, unsigned ) -> std::uint64_t { return a <= b; } },
    { "a > b", []( std::uint64_t a, std::uint64_t b, unsigned ) -> std::uint64_t { return a > b; } },
    { "a >= b", []( std::uint64_t a, std::uint64_t b, unsigned ) -> std::uint64_t { return a >= b; } },
    { "a == b", []( std::uint64_t a, std::uint64_t b, unsigned ) -> std::uint64_t { return a == b; } },
    { "a != b", []( std::uint64_t a, std::uint64_t b, unsigned ) -> std::uint64_t { return a != b; } },
    { "~a", []( std::uint64_t a, std::uint64_t, unsigned ) { return ~a; } },
    { "-a", []( std::uint64_t a, std::uint64_t, unsigned ) { return ~a + 1u; } },
    { "!a", []( std::uint64_t a, std::uint64_t, unsigned ) -> std::uint64_t { return a == 0u; } },
    { "a ? a : b", []( std::uint64_t a, std::uint64_t b, unsigned ) { return a != 0 ? a : b; } },
    { "a << (b & 7)",
      []( std::uint64_t a, std::uint64_t b, unsigned ) { return a << ( b & 7u ); } },
    { "a >> (b & 7)",
      []( std::uint64_t a, std::uint64_t b, unsigned ) { return a >> ( b & 7u ); } },
};

INSTANTIATE_TEST_SUITE_P( ops, verilog_ops,
                          ::testing::Combine( ::testing::ValuesIn( cases ),
                                              ::testing::Values( 4u, 8u, 11u ) ) );

TEST( verilog_elaborator, concat_and_replicate )
{
  const auto mod = elaborate_verilog( R"(
    module m(input [3:0] a, output [7:0] y, output [5:0] z);
      assign y = {a, 4'b0011};
      assign z = {3{a[1:0]}};
    endmodule
  )" );
  // y = a:0011, z = a[1:0] repeated.
  std::vector<bool> in = { true, false, true, false }; // a = 0101
  const auto out = mod.aig.evaluate( in );
  std::uint64_t y = 0, z = 0;
  for ( unsigned b = 0; b < 8; ++b )
  {
    y |= static_cast<std::uint64_t>( out[b] ) << b;
  }
  for ( unsigned b = 0; b < 6; ++b )
  {
    z |= static_cast<std::uint64_t>( out[8 + b] ) << b;
  }
  EXPECT_EQ( y, ( 5u << 4 ) | 0b0011u );
  EXPECT_EQ( z, 0b010101u );
}

TEST( verilog_elaborator, reductions_and_logic_ops )
{
  const auto mod = elaborate_verilog( R"(
    module m(input [3:0] a, input [3:0] b, output [3:0] y);
      assign y = {&a, |a, ^a, a && b};
    endmodule
  )" );
  const auto check = [&]( std::uint64_t a, std::uint64_t b ) {
    const auto v = eval_module( mod, { a, b } );
    const std::uint64_t expected = ( ( a == 15u ) << 3 ) | ( ( a != 0u ) << 2 ) |
                                   ( ( popcount64( a ) % 2 ) << 1 ) |
                                   ( ( a != 0u && b != 0u ) << 0 );
    EXPECT_EQ( v, expected ) << a << " " << b;
  };
  check( 0, 0 );
  check( 15, 3 );
  check( 7, 0 );
  check( 8, 1 );
}

TEST( verilog_elaborator, out_of_order_assigns )
{
  const auto mod = elaborate_verilog( R"(
    module m(input [3:0] a, output [3:0] y);
      assign y = t + 4'd1;
      wire [3:0] t;
      assign t = a ^ 4'd3;
    endmodule
  )" );
  EXPECT_EQ( eval_module( mod, { 5u } ), ( ( 5u ^ 3u ) + 1u ) & 15u );
}

TEST( verilog_elaborator, part_select_assignment )
{
  const auto mod = elaborate_verilog( R"(
    module m(input [3:0] a, output [7:0] y);
      assign y[3:0] = a;
      assign y[7:4] = ~a;
    endmodule
  )" );
  EXPECT_EQ( eval_module( mod, { 0b1010u } ), 0b01011010u );
}

TEST( verilog_elaborator, undriven_output_throws )
{
  EXPECT_THROW( elaborate_verilog( R"(
    module m(input [1:0] a, output [1:0] y);
      assign y[0] = a[0];
    endmodule
  )" ),
                std::runtime_error );
}

TEST( verilog_elaborator, combinational_cycle_throws )
{
  EXPECT_THROW( elaborate_verilog( R"(
    module m(input a, output y);
      wire t;
      assign t = y;
      assign y = t & a;
    endmodule
  )" ),
                std::runtime_error );
}

TEST( verilog_elaborator, multiple_drivers_throw )
{
  EXPECT_THROW( elaborate_verilog( R"(
    module m(input a, output y);
      assign y = a;
      assign y = ~a;
    endmodule
  )" ),
                std::runtime_error );
}

TEST( verilog_elaborator, context_width_extends_before_multiply )
{
  // 4-bit operands assigned to 8-bit wire: full product must survive.
  const auto mod = elaborate_verilog( R"(
    module m(input [3:0] a, input [3:0] b, output [7:0] y);
      assign y = a * b;
    endmodule
  )" );
  EXPECT_EQ( eval_module( mod, { 15u, 15u } ), 225u );
}

TEST( verilog_elaborator, widths_above_the_limit_fail_with_a_diagnostic )
{
  // Declaration and lvalue ranges, literal sizes, repeat counts and the
  // widths of concatenations and replications are all bounded by
  // max_width: none of these may wrap an unsigned width (the first two once
  // elaborated as 0- and 1-bit wires, the third as a single copy) or
  // allocate gigabytes (the nested replication is 2^32 bits).
  const std::string body_of[] = {
      "wire [4294967295:0] w; assign y = x[0];",
      "wire [4294967296:0] w; assign y = x[0];",
      "wire [4000000000:0] w; assign y = x[0];",
      "assign y = {4294967297{x[0]}};",
      "assign y = { 65536{ {65536{x[0]}} } };",
      "assign y = { {1048576{x[0]}}, x[1] };",
      "assign y[4294967296:0] = x;",
      "assign y = 4294967296'b0;",
      "assign y = 1000000000000000000000000'b0;",
  };
  const auto limit = std::to_string( max_width ) + "-bit width limit";
  for ( const auto& body : body_of )
  {
    const auto source = "module m(x, y); input [1:0] x; output [1:0] y; " + body + " endmodule";
    const auto start = std::chrono::steady_clock::now();
    try
    {
      (void)elaborate_verilog( source );
      ADD_FAILURE() << "accepted: " << body;
    }
    catch ( const std::runtime_error& e )
    {
      EXPECT_NE( std::string( e.what() ).find( limit ), std::string::npos ) << e.what();
    }
    EXPECT_LT( std::chrono::duration<double>( std::chrono::steady_clock::now() - start ).count(),
               1.0 )
        << body;
  }
  // Constants past 64 bits, and range, index and repeat-count arithmetic
  // that goes negative or past 64 bits, fail instead of wrapping to a small
  // value: the first two once declared a 5-bit wire, the third selected
  // bit 0, the fourth declared a 1-bit wire, the fifth replicated twice,
  // and the sixth failed as an undriven signal.
  const std::string wrapping[] = {
      "wire [18446744073709551615 + 5:0] w; assign y = x;",
      "wire [4294967296 * 4294967296 + 4:0] w; assign y = x;",
      "assign y = x[68'h10000000000000000];",
      "wire [68'h10000000000000000:0] w; assign y = x;",
      "assign y = {(4294967296 * 4294967296 + 2){x[0]}};",
      "assign y = x[0 - 1];",
      "assign y = x << 18446744073709551616;",
  };
  for ( const auto& body : wrapping )
  {
    EXPECT_THROW( elaborate_verilog( "module m(x, y); input [1:0] x; output [1:0] y; " + body +
                                     " endmodule" ),
                  std::runtime_error )
        << body;
  }
}

TEST( verilog_elaborator, widths_at_the_limit_elaborate )
{
  const auto mod = elaborate_verilog(
      "module m(x, y); input [1:0] x; output y; "
      "wire [1048575:0] w = {1048576{x[1]}}; assign y = w[1048575]; endmodule" );
  static_assert( max_width == 1048576u, "the module above sits exactly at the limit" );
  EXPECT_EQ( eval_module( mod, { 0b10u } ), 1u );
  EXPECT_EQ( eval_module( mod, { 0b01u } ), 0u );
}

/// --- the paper's generators ---------------------------------------------

class intdiv_design : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( intdiv_design, matches_reference_exhaustively )
{
  const auto n = GetParam();
  const auto mod = elaborate_verilog( generate_intdiv( n ) );
  for ( std::uint64_t x = 1; x < ( std::uint64_t{ 1 } << n ); ++x )
  {
    EXPECT_EQ( eval_module( mod, { x } ), reciprocal_reference( n, x ) ) << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P( widths, intdiv_design, ::testing::Values( 2u, 3u, 4u, 5u, 6u, 8u ) );

TEST( intdiv_design, paper_example_n8_x22 )
{
  // Example 1 of the paper: n = 8, x = 22 -> y = 2^-5 + 2^-7 + 2^-8.
  const auto mod = elaborate_verilog( generate_intdiv( 8 ) );
  EXPECT_EQ( eval_module( mod, { 22u } ), 0b00001011u );
}

class newton_design : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( newton_design, approximates_reciprocal )
{
  const auto n = GetParam();
  const auto mod = elaborate_verilog( generate_newton( n ) );
  for ( std::uint64_t x = 2; x < ( std::uint64_t{ 1 } << n ); ++x )
  {
    const auto y = eval_module( mod, { x } );
    const auto expected = reciprocal_reference( n, x );
    const auto err = y > expected ? y - expected : expected - y;
    EXPECT_LE( err, 2u ) << "x=" << x << " y=" << y << " expected=" << expected;
  }
}

INSTANTIATE_TEST_SUITE_P( widths, newton_design, ::testing::Values( 4u, 5u, 6u, 8u ) );

TEST( newton_design, iteration_schedule )
{
  EXPECT_EQ( newton_iterations( 4 ), 1u );
  EXPECT_EQ( newton_iterations( 8 ), 2u );
  EXPECT_EQ( newton_iterations( 16 ), 3u );
  EXPECT_EQ( newton_iterations( 32 ), 4u );
  EXPECT_EQ( newton_iterations( 64 ), 4u );
  EXPECT_EQ( newton_iterations( 128 ), 5u );
}

TEST( generators, q3_constant_values )
{
  // 48/17 = 2.8235...; Q3.8 truncation = floor(2.8235 * 256) = 722.
  const auto bits = q3_constant( 48, 17, 8 );
  std::uint64_t v = 0;
  for ( std::size_t i = 0; i < bits.size(); ++i )
  {
    v |= static_cast<std::uint64_t>( bits[i] ) << i;
  }
  EXPECT_EQ( v, 722u );
  // 32/17 = 1.88...; Q3.4 = floor(1.882 * 16) = 30.
  const auto bits2 = q3_constant( 32, 17, 4 );
  std::uint64_t v2 = 0;
  for ( std::size_t i = 0; i < bits2.size(); ++i )
  {
    v2 |= static_cast<std::uint64_t>( bits2[i] ) << i;
  }
  EXPECT_EQ( v2, 30u );
}

TEST( generators, binary_literal_format )
{
  EXPECT_EQ( binary_literal( 5, { true, false, true } ), "5'b00101" );
}
