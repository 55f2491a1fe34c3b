#include "esop_extract.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace qsyn
{

namespace
{

/// A run of cubes in the extractor's arena.
struct cube_range
{
  std::size_t begin = 0;
  std::size_t count = 0;
};

/// Hash and equality of memo keys (runs of table words), transparent so a
/// lookup by span does not allocate.
struct words_hash
{
  using is_transparent = void;
  std::size_t operator()( std::span<const std::uint64_t> words ) const
  {
    std::uint64_t h = words.size();
    for ( const auto w : words )
    {
      h = ( h ^ w ) * 0x9e3779b97f4a7c15ull;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>( h );
  }
};

struct words_equal
{
  using is_transparent = void;
  bool operator()( std::span<const std::uint64_t> a, std::span<const std::uint64_t> b ) const
  {
    return std::ranges::equal( a, b );
  }
};

/// PSDKRO on shrinking tables.  A subfunction of top support variable x is
/// held in 2^(x+1) bits: for x >= 6 as 2^(x-5) words whose two halves are
/// its cofactors on x, for x < 6 as one word replicated like
/// `small_truth_table`.  The shrunk form is canonical, so the memo, keyed on
/// its words (their count fixes x from six up; one word is the whole
/// function below), hits exactly when a memo of full-width tables would.
/// Results are runs of one cube arena, so a memo entry is two indices.
class psdkro_extractor
{
public:
  psdkro_extractor() { cubes_.push_back( cube{} ); } // cubes_[0]: constant 1

  /// ESOP of `tt`.
  cube_range run( const truth_table& tt )
  {
    const auto n = tt.num_vars();
    if ( n <= 6u )
    {
      return extract_word( small_truth_table::from( tt ).words[0], n );
    }
    scratch_.resize( n );
    return extract( tt.blocks().data(), n );
  }

  std::span<const cube> cubes( cube_range r ) const { return { cubes_.data() + r.begin, r.count }; }

private:
  /// `words` holds a function of `vars` >= 6 variables.
  cube_range extract( const std::uint64_t* words, unsigned vars )
  {
    // Drop top variables outside the support: their cofactors are equal.
    for ( ; vars > 6u; --vars )
    {
      const auto half = std::size_t{ 1 } << ( vars - 7u );
      if ( !std::equal( words, words + half, words + half ) )
      {
        break;
      }
    }
    if ( vars == 6u )
    {
      return extract_word( words[0], 6u );
    }
    const std::span<const std::uint64_t> key( words, std::size_t{ 1 } << ( vars - 6u ) );
    if ( const auto it = memo_.find( key ); it != memo_.end() )
    {
      return it->second;
    }
    const unsigned x = vars - 1u;
    const auto half = key.size() / 2u;
    const auto* f0 = words;
    const auto* f1 = words + half;
    // One live frame per top variable, so level x owns scratch_[x].
    auto& f2 = scratch_[x];
    f2.resize( half );
    for ( std::size_t i = 0; i < half; ++i )
    {
      f2[i] = f0[i] ^ f1[i];
    }
    const auto c0 = extract( f0, x );
    const auto c1 = extract( f1, x );
    const auto c2 = extract( f2.data(), x );
    const auto result = combine( x, c0, c1, c2 );
    memo_.emplace( std::vector<std::uint64_t>( key.begin(), key.end() ), result );
    return result;
  }

  /// `w` holds a function of `vars` <= 6 variables, replicated.
  cube_range extract_word( std::uint64_t w, unsigned vars )
  {
    if ( w == 0u )
    {
      return {};
    }
    if ( w == ~std::uint64_t{ 0 } )
    {
      return { 0u, 1u };
    }
    const std::span<const std::uint64_t> key( &w, 1u );
    if ( const auto it = memo_.find( key ); it != memo_.end() )
    {
      return it->second;
    }
    unsigned x = vars - 1u;
    while ( cofactor_word( w, x, false ) == cofactor_word( w, x, true ) )
    {
      --x;
    }
    const auto f0 = cofactor_word( w, x, false );
    const auto f1 = cofactor_word( w, x, true );
    const auto c0 = extract_word( f0, x );
    const auto c1 = extract_word( f1, x );
    const auto c2 = extract_word( f0 ^ f1, x );
    const auto result = combine( x, c0, c1, c2 );
    memo_.emplace( std::vector<std::uint64_t>( key.begin(), key.end() ), result );
    return result;
  }

  /// The cheapest of f = !x f0 ^ x f1 (Shannon), f = f0 ^ x f2 (positive
  /// Davio) and f = f1 ^ !x f2 (negative Davio), ties in that order.
  cube_range combine( unsigned x, cube_range c0, cube_range c1, cube_range c2 )
  {
    const auto cost_shannon = c0.count + c1.count;
    const auto cost_pdavio = c0.count + c2.count;
    const auto cost_ndavio = c1.count + c2.count;
    const auto begin = cubes_.size();
    if ( cost_shannon <= cost_pdavio && cost_shannon <= cost_ndavio )
    {
      append( c0, x, literal::negative );
      append( c1, x, literal::positive );
    }
    else if ( cost_pdavio <= cost_ndavio )
    {
      append( c0, x, literal::none );
      append( c2, x, literal::positive );
    }
    else
    {
      append( c1, x, literal::none );
      append( c2, x, literal::negative );
    }
    return { begin, cubes_.size() - begin };
  }

  enum class literal
  {
    none,
    negative,
    positive
  };

  void append( cube_range r, unsigned x, literal lit )
  {
    for ( std::size_t i = r.begin; i < r.begin + r.count; ++i )
    {
      auto c = cubes_[i];
      if ( lit != literal::none )
      {
        c.add_literal( x, lit == literal::positive );
      }
      cubes_.push_back( c );
    }
  }

  std::vector<cube> cubes_;
  std::unordered_map<std::vector<std::uint64_t>, cube_range, words_hash, words_equal> memo_;
  std::vector<std::vector<std::uint64_t>> scratch_;
};

} // namespace

std::vector<cube> esop_from_truth_table( const truth_table& tt )
{
  psdkro_extractor extractor;
  const auto cubes = extractor.cubes( extractor.run( tt ) );
  return { cubes.begin(), cubes.end() };
}

esop esop_from_aig( const aig_network& aig )
{
  if ( aig.num_pos() > esop::max_outputs )
  {
    throw std::invalid_argument( "esop_from_aig: " + std::to_string( aig.num_pos() ) +
                                 " outputs exceed the " + std::to_string( esop::max_outputs ) +
                                 "-output limit of an ESOP's output masks" );
  }
  const auto tts = aig.simulate_outputs();
  esop result;
  result.num_inputs = aig.num_pis();
  result.num_outputs = aig.num_pos();
  psdkro_extractor extractor; // shared memo across outputs encourages sharing
  for ( unsigned o = 0; o < aig.num_pos(); ++o )
  {
    for ( const auto& c : extractor.cubes( extractor.run( tts[o] ) ) )
    {
      result.terms.push_back( { c, std::uint64_t{ 1 } << o } );
    }
  }
  result.merge_identical_cubes();
  return result;
}

std::vector<cube> pprm_from_truth_table( const truth_table& tt )
{
  // Reed-Muller (Moebius) transform: butterfly over the bit vector.
  truth_table coeffs = tt;
  const auto n = tt.num_vars();
  for ( unsigned v = 0; v < n; ++v )
  {
    // coeffs ^= (coeffs restricted to x_v = 0) shifted into the x_v = 1 half
    const auto neg = coeffs.cofactor( v, false );
    const auto proj = truth_table::projection( n, v );
    coeffs ^= neg & proj;
  }
  std::vector<cube> cubes;
  for ( std::uint64_t m = 0; m < coeffs.num_bits(); ++m )
  {
    if ( coeffs.get_bit( m ) )
    {
      cubes.push_back( cube{ m, m } ); // monomial: positive literals at set bits
    }
  }
  return cubes;
}

} // namespace qsyn
