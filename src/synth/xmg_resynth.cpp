#include "xmg_resynth.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <unordered_map>

#include "../common/balanced_reduce.hpp"
#include "esop_extract.hpp"
#include "isop.hpp"
#include "lut_map.hpp"

namespace qsyn
{

namespace
{

/// Cost of a candidate form: (MAJ nodes, total nodes).
struct form_cost
{
  unsigned maj = 0;
  unsigned total = 0;

  bool operator<( const form_cost& other ) const
  {
    if ( maj != other.maj )
    {
      return maj < other.maj;
    }
    return total < other.total;
  }
};

form_cost pprm_cost( const std::vector<cube>& monomials )
{
  form_cost cost;
  for ( const auto& m : monomials )
  {
    const auto lits = static_cast<unsigned>( m.num_literals() );
    if ( lits >= 2u )
    {
      cost.maj += lits - 1u; // AND chain
    }
  }
  cost.total = cost.maj;
  if ( !monomials.empty() )
  {
    cost.total += static_cast<unsigned>( monomials.size() ) - 1u; // XOR tree
  }
  return cost;
}

form_cost isop_cost( const std::vector<cube>& cubes )
{
  form_cost cost;
  for ( const auto& c : cubes )
  {
    const auto lits = static_cast<unsigned>( c.num_literals() );
    if ( lits >= 2u )
    {
      cost.maj += lits - 1u;
    }
  }
  if ( !cubes.empty() )
  {
    cost.maj += static_cast<unsigned>( cubes.size() ) - 1u; // OR tree costs MAJ too
  }
  cost.total = cost.maj;
  return cost;
}

/// Builds an AND of literal lits (possibly empty -> const1).
xmg_lit build_monomial( xmg_network& xmg, const cube& c, const std::vector<xmg_lit>& fanins )
{
  std::vector<xmg_lit> factors;
  for ( unsigned v = 0; v < fanins.size(); ++v )
  {
    if ( c.has_var( v ) )
    {
      factors.push_back( fanins[v] ^ ( c.var_polarity( v ) ? 0u : 1u ) );
    }
  }
  return xmg.create_nary_and( std::move( factors ) );
}

/// Detects whether `tt` is an XOR (or XNOR) of a subset of its variables.
std::optional<std::pair<std::uint64_t, bool>> detect_parity( const truth_table& tt )
{
  const auto n = tt.num_vars();
  // Parity functions have all PPRM monomials of size one; equivalently,
  // tt == xor of projections (^ constant).  Determine candidate subset by
  // the function's support, then verify.
  std::uint64_t subset = 0;
  for ( unsigned v = 0; v < n; ++v )
  {
    if ( tt.depends_on( v ) )
    {
      subset |= std::uint64_t{ 1 } << v;
    }
  }
  if ( subset == 0u )
  {
    return std::nullopt;
  }
  truth_table parity( n );
  for ( unsigned v = 0; v < n; ++v )
  {
    if ( ( subset >> v ) & 1u )
    {
      parity ^= truth_table::projection( n, v );
    }
  }
  if ( parity == tt )
  {
    return std::make_pair( subset, false );
  }
  if ( ~parity == tt )
  {
    return std::make_pair( subset, true );
  }
  return std::nullopt;
}

/// Detects MAJ of three (possibly complemented) variables: the polarity
/// of each (bit i set = variable i complemented).
std::optional<std::uint8_t> detect_maj3( const truth_table& tt )
{
  if ( tt.num_vars() != 3u )
  {
    return std::nullopt;
  }
  const auto a = truth_table::projection( 3u, 0u );
  const auto b = truth_table::projection( 3u, 1u );
  const auto c = truth_table::projection( 3u, 2u );
  for ( std::uint8_t pol = 0; pol < 8u; ++pol )
  {
    const auto pa = ( pol & 1u ) ? ~a : a;
    const auto pb = ( pol & 2u ) ? ~b : b;
    const auto pc = ( pol & 4u ) ? ~c : c;
    if ( ( ( pa & pb ) | ( pa & pc ) | ( pb & pc ) ) == tt )
    {
      return pol;
    }
  }
  return std::nullopt;
}

/// How one LUT function (shrunk to its support) is built in XMG logic.
struct lut_form
{
  enum class form : std::uint8_t
  {
    constant,
    literal,
    parity,
    maj,
    pprm,
    sop
  };
  form kind = form::constant;
  /// Output inverted: constant 1, negative literal, XNOR, or a PPRM/SOP of
  /// the complement.
  bool complemented = false;
  std::uint64_t parity_vars = 0; ///< parity: the XORed variables
  std::uint8_t maj_polarity = 0; ///< maj: bit i set = variable i complemented
  std::vector<cube> cubes;       ///< pprm monomials or sop cubes
  unsigned nodes = 0;            ///< nodes built, before structural hashing
};

/// Decides the form of a support-shrunk function: constants, literals,
/// parity and MAJ directly; otherwise the PPRM or ISOP expansion of the
/// function or its complement (free output inverter) with the fewest MAJ
/// nodes, then the fewest nodes, the first of equals winning.
lut_form decide_form( const truth_table& tt )
{
  lut_form f;
  if ( tt.is_const0() || tt.is_const1() )
  {
    f.complemented = tt.is_const1();
    return f;
  }
  if ( tt.num_vars() == 1u )
  {
    f.kind = lut_form::form::literal;
    f.complemented = !tt.get_bit( 1 );
    return f;
  }
  if ( const auto parity = detect_parity( tt ) )
  {
    f.kind = lut_form::form::parity;
    f.parity_vars = parity->first;
    f.complemented = parity->second;
    f.nodes = static_cast<unsigned>( std::popcount( parity->first ) ) - 1u;
    return f;
  }
  if ( const auto polarity = detect_maj3( tt ) )
  {
    f.kind = lut_form::form::maj;
    f.maj_polarity = *polarity;
    f.nodes = 1u;
    return f;
  }
  struct candidate
  {
    lut_form::form kind;
    std::vector<cube> cubes;
    bool complemented;
    form_cost cost;
  };
  auto pprm = pprm_from_truth_table( tt );
  auto pprm_compl = pprm_from_truth_table( ~tt );
  auto sop = isop( tt );
  auto sop_compl = isop( ~tt );
  const auto pprm_c = pprm_cost( pprm );
  const auto pprm_compl_c = pprm_cost( pprm_compl );
  const auto sop_c = isop_cost( sop );
  const auto sop_compl_c = isop_cost( sop_compl );
  std::array<candidate, 4> cands = { {
      { lut_form::form::pprm, std::move( pprm ), false, pprm_c },
      { lut_form::form::pprm, std::move( pprm_compl ), true, pprm_compl_c },
      { lut_form::form::sop, std::move( sop ), false, sop_c },
      { lut_form::form::sop, std::move( sop_compl ), true, sop_compl_c },
  } };
  auto& best = *std::min_element( cands.begin(), cands.end(),
                                  []( const candidate& a, const candidate& b ) {
                                    return a.cost < b.cost;
                                  } );
  f.kind = best.kind;
  f.complemented = best.complemented;
  f.cubes = std::move( best.cubes );
  f.nodes = best.cost.total;
  return f;
}

struct truth_table_hash
{
  std::size_t operator()( const truth_table& tt ) const
  {
    auto h = static_cast<std::size_t>( tt.num_vars() );
    for ( const auto block : tt.blocks() )
    {
      h = hash_combine( h, static_cast<std::size_t>( block * 0x9e3779b97f4a7c15ull ) );
    }
    return h;
  }
};

class lut_to_xmg
{
public:
  explicit lut_to_xmg( const lut_network& net, xmg_resynth_stats* stats )
      : net_( net ), stats_( stats ), xmg_( net.num_pis )
  {
  }

  xmg_network run()
  {
    // Decide every LUT's form first (one decision per distinct function:
    // a 4-LUT has at most 2^16), which bounds the XMG's size before any
    // node exists.
    const auto num_luts = net_.luts.size();
    std::vector<const lut_form*> forms( num_luts );
    std::vector<std::uint32_t> support_begin( num_luts + 1u, 0u );
    std::vector<std::uint32_t> support_vars; // per LUT: the fanins its function depends on
    std::unordered_map<truth_table, lut_form, truth_table_hash> memo;
    std::vector<unsigned> support_map;
    std::size_t max_gates = 0;
    for ( std::size_t l = 0; l < num_luts; ++l )
    {
      auto tt = net_.luts[l].function.shrink_to_support( &support_map );
      support_vars.insert( support_vars.end(), support_map.begin(), support_map.end() );
      support_begin[l + 1u] = static_cast<std::uint32_t>( support_vars.size() );
      auto [it, inserted] = memo.try_emplace( std::move( tt ) );
      if ( inserted )
      {
        it->second = decide_form( it->first );
      }
      forms[l] = &it->second;
      max_gates += it->second.nodes;
    }
    xmg_.reserve( max_gates );

    std::vector<xmg_lit> signal_lits( net_.num_pis + num_luts );
    for ( unsigned i = 0; i < net_.num_pis; ++i )
    {
      signal_lits[i] = xmg_.pi( i );
    }
    std::vector<xmg_lit> fanins;
    for ( std::size_t l = 0; l < num_luts; ++l )
    {
      const auto& lut = net_.luts[l];
      fanins.clear();
      for ( auto i = support_begin[l]; i < support_begin[l + 1u]; ++i )
      {
        fanins.push_back( signal_lits[lut.fanins[support_vars[i]]] );
      }
      signal_lits[net_.num_pis + l] = build( *forms[l], fanins );
    }
    for ( const auto& out : net_.outputs )
    {
      xmg_.add_po( signal_lits[out.signal] ^ ( out.complemented ? 1u : 0u ) );
    }
    return std::move( xmg_ );
  }

private:
  /// Builds one LUT's form over the literals of its support fanins.
  xmg_lit build( const lut_form& f, const std::vector<xmg_lit>& fanins )
  {
    if ( stats_ )
    {
      ++stats_->luts;
      switch ( f.kind )
      {
      case lut_form::form::parity:
      case lut_form::form::maj:
        ++stats_->direct_forms;
        break;
      case lut_form::form::pprm:
        ++stats_->pprm_forms;
        break;
      case lut_form::form::sop:
        ++stats_->isop_forms;
        break;
      default:
        break;
      }
    }
    const xmg_lit invert = f.complemented ? 1u : 0u;
    switch ( f.kind )
    {
    case lut_form::form::constant:
      return xmg_network::const0 ^ invert;
    case lut_form::form::literal:
      return fanins[0] ^ invert;
    case lut_form::form::parity:
    {
      std::vector<xmg_lit> terms;
      for ( unsigned v = 0; v < fanins.size(); ++v )
      {
        if ( ( f.parity_vars >> v ) & 1u )
        {
          terms.push_back( fanins[v] );
        }
      }
      return xmg_.create_nary_xor( std::move( terms ) ) ^ invert;
    }
    case lut_form::form::maj:
      return xmg_.create_maj( fanins[0] ^ ( f.maj_polarity & 1u ),
                              fanins[1] ^ ( ( f.maj_polarity >> 1 ) & 1u ),
                              fanins[2] ^ ( ( f.maj_polarity >> 2 ) & 1u ) );
    default:
      break;
    }
    std::vector<xmg_lit> terms;
    terms.reserve( f.cubes.size() );
    for ( const auto& c : f.cubes )
    {
      terms.push_back( build_monomial( xmg_, c, fanins ) );
    }
    if ( f.kind == lut_form::form::pprm )
    {
      return xmg_.create_nary_xor( std::move( terms ) ) ^ invert;
    }
    if ( terms.empty() )
    {
      return xmg_network::const0 ^ invert;
    }
    // OR tree via MAJ(a, b, 1).
    return reduce_balanced( terms, [this]( xmg_lit a, xmg_lit b ) { return xmg_.create_or( a, b ); } ) ^
           invert;
  }

  const lut_network& net_;
  xmg_resynth_stats* stats_;
  xmg_network xmg_;
};

} // namespace

xmg_network xmg_from_luts( const lut_network& luts, xmg_resynth_stats* stats )
{
  lut_to_xmg converter( luts, stats );
  return converter.run();
}

xmg_network xmg_from_aig( const aig_network& aig, unsigned cut_size, xmg_resynth_stats* stats )
{
  lut_map_params params;
  params.cut_size = cut_size;
  const auto luts = lut_map( aig, params );
  return xmg_from_luts( luts, stats );
}

} // namespace qsyn
