#include <gtest/gtest.h>

#include "baseline/arith.hpp"
#include "baseline/qnewton.hpp"
#include "baseline/resdiv.hpp"
#include "reversible/cost.hpp"
#include "reversible/verify.hpp"
#include "verilog/generators.hpp"

using namespace qsyn;

namespace
{

struct adder_fixture
{
  reversible_circuit circuit;
  std::vector<std::uint32_t> a;
  std::vector<std::uint32_t> b;
  std::uint32_t cin = 0;
  std::uint32_t cout = 0;
};

adder_fixture make_registers( unsigned w, bool with_cout )
{
  adder_fixture f;
  for ( unsigned i = 0; i < w; ++i )
  {
    f.a.push_back( f.circuit.add_line( {} ) );
  }
  for ( unsigned i = 0; i < w; ++i )
  {
    f.b.push_back( f.circuit.add_line( {} ) );
  }
  f.cin = f.circuit.add_line( {} );
  if ( with_cout )
  {
    f.cout = f.circuit.add_line( {} );
  }
  return f;
}

std::uint64_t read_register( const std::vector<bool>& state, const std::vector<std::uint32_t>& reg )
{
  std::uint64_t v = 0;
  for ( std::size_t i = 0; i < reg.size(); ++i )
  {
    v |= static_cast<std::uint64_t>( state[reg[i]] ) << i;
  }
  return v;
}

void write_register( std::vector<bool>& state, const std::vector<std::uint32_t>& reg,
                     std::uint64_t value )
{
  for ( std::size_t i = 0; i < reg.size(); ++i )
  {
    state[reg[i]] = ( value >> i ) & 1u;
  }
}

} // namespace

class cuccaro_widths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( cuccaro_widths, addition_exhaustive )
{
  const auto w = GetParam();
  auto f = make_registers( w, true );
  cuccaro_add( f.circuit, f.a, f.b, f.cin, f.cout );
  const std::uint64_t mask = ( std::uint64_t{ 1 } << w ) - 1u;
  for ( std::uint64_t av = 0; av <= mask; ++av )
  {
    for ( std::uint64_t bv = 0; bv <= mask; ++bv )
    {
      std::vector<bool> state( f.circuit.num_lines(), false );
      write_register( state, f.a, av );
      write_register( state, f.b, bv );
      f.circuit.apply( state );
      EXPECT_EQ( read_register( state, f.b ), ( av + bv ) & mask );
      EXPECT_EQ( read_register( state, f.a ), av ); // operand restored
      EXPECT_FALSE( state[f.cin] );                 // carry ancilla restored
      EXPECT_EQ( state[f.cout], ( ( av + bv ) >> w ) & 1u );
    }
  }
}

TEST_P( cuccaro_widths, subtraction_exhaustive )
{
  const auto w = GetParam();
  auto f = make_registers( w, true );
  cuccaro_subtract( f.circuit, f.a, f.b, f.cin, f.cout );
  const std::uint64_t mask = ( std::uint64_t{ 1 } << w ) - 1u;
  for ( std::uint64_t av = 0; av <= mask; ++av )
  {
    for ( std::uint64_t bv = 0; bv <= mask; ++bv )
    {
      std::vector<bool> state( f.circuit.num_lines(), false );
      write_register( state, f.a, av );
      write_register( state, f.b, bv );
      f.circuit.apply( state );
      EXPECT_EQ( read_register( state, f.b ), ( bv - av ) & mask );
      EXPECT_EQ( read_register( state, f.a ), av );
      // borrow_out fires iff a > b.
      EXPECT_EQ( state[f.cout], av > bv );
    }
  }
}

INSTANTIATE_TEST_SUITE_P( widths, cuccaro_widths, ::testing::Values( 1u, 2u, 3u, 4u, 5u ) );

TEST( cuccaro, controlled_add_both_phases )
{
  const unsigned w = 4;
  auto f = make_registers( w, false );
  const auto ctl = f.circuit.add_line( {} );
  cuccaro_add( f.circuit, f.a, f.b, f.cin, std::nullopt, control{ ctl, true } );
  const std::uint64_t mask = 15;
  for ( unsigned cv = 0; cv <= 1; ++cv )
  {
    for ( std::uint64_t av = 0; av <= mask; ++av )
    {
      for ( std::uint64_t bv = 0; bv <= mask; ++bv )
      {
        std::vector<bool> state( f.circuit.num_lines(), false );
        write_register( state, f.a, av );
        write_register( state, f.b, bv );
        state[ctl] = cv;
        f.circuit.apply( state );
        EXPECT_EQ( read_register( state, f.b ), cv ? ( ( av + bv ) & mask ) : bv );
        EXPECT_EQ( read_register( state, f.a ), av );
        EXPECT_FALSE( state[f.cin] );
      }
    }
  }
}

TEST( cuccaro, negatively_controlled_subtract )
{
  const unsigned w = 3;
  auto f = make_registers( w, false );
  const auto ctl = f.circuit.add_line( {} );
  cuccaro_subtract( f.circuit, f.a, f.b, f.cin, std::nullopt, control{ ctl, false } );
  for ( std::uint64_t av = 0; av < 8; ++av )
  {
    for ( std::uint64_t bv = 0; bv < 8; ++bv )
    {
      for ( unsigned cv = 0; cv <= 1; ++cv )
      {
        std::vector<bool> state( f.circuit.num_lines(), false );
        write_register( state, f.a, av );
        write_register( state, f.b, bv );
        state[ctl] = cv;
        f.circuit.apply( state );
        const auto expect = cv == 0u ? ( ( bv - av ) & 7u ) : bv;
        EXPECT_EQ( read_register( state, f.b ), expect );
      }
    }
  }
}

TEST( arith, add_constant_roundtrip )
{
  reversible_circuit c;
  std::vector<std::uint32_t> b;
  std::vector<std::uint32_t> scratch;
  for ( unsigned i = 0; i < 5; ++i )
  {
    b.push_back( c.add_line( {} ) );
  }
  for ( unsigned i = 0; i < 5; ++i )
  {
    scratch.push_back( c.add_line( {} ) );
  }
  const auto cin = c.add_line( {} );
  const std::vector<bool> constant = { true, false, true, true, false }; // 13
  add_constant( c, constant, b, scratch, cin );
  for ( std::uint64_t bv = 0; bv < 32; ++bv )
  {
    std::vector<bool> state( c.num_lines(), false );
    write_register( state, b, bv );
    c.apply( state );
    EXPECT_EQ( read_register( state, b ), ( bv + 13u ) & 31u );
    EXPECT_EQ( read_register( state, scratch ), 0u ); // restored
    EXPECT_FALSE( state[cin] );
  }
}

TEST( arith, subtract_constant )
{
  reversible_circuit c;
  std::vector<std::uint32_t> b;
  std::vector<std::uint32_t> scratch;
  for ( unsigned i = 0; i < 4; ++i )
  {
    b.push_back( c.add_line( {} ) );
  }
  for ( unsigned i = 0; i < 4; ++i )
  {
    scratch.push_back( c.add_line( {} ) );
  }
  const auto cin = c.add_line( {} );
  add_constant( c, { true, true, false, false }, b, scratch, cin, true ); // -3
  for ( std::uint64_t bv = 0; bv < 16; ++bv )
  {
    std::vector<bool> state( c.num_lines(), false );
    write_register( state, b, bv );
    c.apply( state );
    EXPECT_EQ( read_register( state, b ), ( bv - 3u ) & 15u );
  }
}

TEST( arith, barrel_rotate_left_shifts_with_headroom )
{
  reversible_circuit c;
  std::vector<std::uint32_t> reg;
  std::vector<std::uint32_t> amount;
  for ( unsigned i = 0; i < 8; ++i )
  {
    reg.push_back( c.add_line( {} ) );
  }
  for ( unsigned i = 0; i < 2; ++i )
  {
    amount.push_back( c.add_line( {} ) );
  }
  barrel_rotate_left( c, reg, amount );
  for ( std::uint64_t v = 0; v < 16; ++v ) // value in low 4 bits: headroom 4
  {
    for ( std::uint64_t s = 0; s < 4; ++s )
    {
      std::vector<bool> state( c.num_lines(), false );
      write_register( state, reg, v );
      write_register( state, amount, s );
      c.apply( state );
      EXPECT_EQ( read_register( state, reg ), ( v << s ) & 255u ) << "v=" << v << " s=" << s;
    }
  }
}

class divider_widths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( divider_widths, quotient_and_remainder_exhaustive )
{
  const auto w = GetParam();
  auto res = build_restoring_divider( w );
  const std::uint64_t limit = std::uint64_t{ 1 } << w;
  for ( std::uint64_t av = 0; av < limit; ++av )
  {
    for ( std::uint64_t bv = 1; bv < limit; ++bv )
    {
      std::vector<bool> state( res.circuit.num_lines(), false );
      write_register( state, res.dividend_lines, av );
      write_register( state, res.divisor_lines, bv );
      res.circuit.apply( state );
      EXPECT_EQ( read_register( state, res.quotient_lines ), av / bv );
      EXPECT_EQ( read_register( state, res.remainder_lines ), av % bv );
      EXPECT_EQ( read_register( state, res.divisor_lines ), bv ); // preserved
    }
  }
}

INSTANTIATE_TEST_SUITE_P( widths, divider_widths, ::testing::Values( 2u, 3u, 4u, 5u ) );

TEST( resdiv, reciprocal_matches_reference )
{
  for ( const unsigned n : { 3u, 4u, 5u } )
  {
    auto res = build_resdiv_reciprocal( n );
    for ( std::uint64_t x = 1; x < ( std::uint64_t{ 1 } << n ); ++x )
    {
      std::vector<bool> inputs( n );
      for ( unsigned b = 0; b < n; ++b )
      {
        inputs[b] = ( x >> b ) & 1u;
      }
      const auto out = evaluate_circuit( res.circuit, inputs );
      std::uint64_t y = 0;
      for ( std::size_t b = 0; b < out.size(); ++b )
      {
        y |= static_cast<std::uint64_t>( out[b] ) << b;
      }
      EXPECT_EQ( y, verilog::reciprocal_reference( n, x ) ) << "n=" << n << " x=" << x;
    }
  }
}

TEST( resdiv, qubit_count_is_about_6n )
{
  // The paper's Table I reports 6n qubits for RESDIV(n); our construction
  // adds a constant number of helper lines.
  for ( const unsigned n : { 4u, 8u, 16u } )
  {
    const auto res = build_resdiv_reciprocal( n );
    EXPECT_GE( res.circuit.num_lines(), 6u * n );
    EXPECT_LE( res.circuit.num_lines(), 6u * n + 4u );
  }
}

TEST( resdiv, t_count_scales_quadratically )
{
  const auto t8 = circuit_t_count( build_resdiv_reciprocal( 8 ).circuit );
  const auto t16 = circuit_t_count( build_resdiv_reciprocal( 16 ).circuit );
  // Doubling n should roughly quadruple the T-count (Table I: 8512 -> 34944).
  EXPECT_GT( t16, 3u * t8 );
  EXPECT_LT( t16, 6u * t8 );
}

class qnewton_widths : public ::testing::TestWithParam<unsigned>
{
};

TEST_P( qnewton_widths, reciprocal_within_tolerance )
{
  const auto n = GetParam();
  const auto res = build_qnewton( n );
  for ( std::uint64_t x = 2; x < ( std::uint64_t{ 1 } << n ); ++x )
  {
    std::vector<bool> inputs( n );
    for ( unsigned b = 0; b < n; ++b )
    {
      inputs[b] = ( x >> b ) & 1u;
    }
    const auto out = evaluate_circuit( res.circuit, inputs );
    std::uint64_t y = 0;
    for ( std::size_t b = 0; b < out.size(); ++b )
    {
      y |= static_cast<std::uint64_t>( out[b] ) << b;
    }
    const auto expected = verilog::reciprocal_reference( n, x );
    const auto err = y > expected ? y - expected : expected - y;
    EXPECT_LE( err, 2u ) << "n=" << n << " x=" << x << " y=" << y << " expect=" << expected;
  }
}

INSTANTIATE_TEST_SUITE_P( widths, qnewton_widths, ::testing::Values( 4u, 5u, 6u ) );

TEST( qnewton, x_equals_one_saturates )
{
  // 1/1 = 1.0 is not representable as 0.y1..yn; Newton converges to the
  // all-ones fraction (the same behaviour as the NEWTON Verilog design).
  const unsigned n = 4;
  const auto res = build_qnewton( n );
  std::vector<bool> inputs( n, false );
  inputs[0] = true;
  const auto out = evaluate_circuit( res.circuit, inputs );
  std::uint64_t y = 0;
  for ( std::size_t b = 0; b < out.size(); ++b )
  {
    y |= static_cast<std::uint64_t>( out[b] ) << b;
  }
  EXPECT_EQ( y, 15u );
}

TEST( qnewton, uses_fewer_qubits_than_double_width_divider )
{
  // QNEWTON's selling point in the paper: fewer lines than naive Newton,
  // though more than RESDIV; we check it stays within a sane envelope.
  const auto qn = build_qnewton( 8 );
  EXPECT_GE( qn.circuit.num_lines(), 8u * 8u );
  EXPECT_LE( qn.circuit.num_lines(), 8u * 24u );
}

TEST( qnewton, iteration_schedule_matches_paper )
{
  EXPECT_EQ( build_qnewton( 4 ).iterations, 1u );
  EXPECT_EQ( build_qnewton( 8 ).iterations, 2u );
}
