#include "tbs.hpp"

#include <array>
#include <cassert>
#include <stdexcept>

#include "../common/bits.hpp"

namespace qsyn
{

namespace
{

/// Gate description used during synthesis: positive controls only.
struct tbs_gate
{
  std::uint64_t controls = 0; ///< bit mask of positive controls
  unsigned target = 0;
};

class tbs_engine
{
public:
  tbs_engine( std::vector<std::uint64_t> perm, bool bidirectional, const deadline& stop )
      : perm_( std::move( perm ) ), bidirectional_( bidirectional ), stop_( stop ),
        poll_deadline_( !stop.unlimited() )
  {
    if ( perm_.empty() || !is_power_of_two( perm_.size() ) )
    {
      throw std::invalid_argument( "tbs: permutation size must be a power of two" );
    }
    num_lines_ = ceil_log2( perm_.size() );
    inverse_.resize( perm_.size() );
    for ( std::uint64_t i = 0; i < perm_.size(); ++i )
    {
      inverse_[perm_[i]] = i;
    }
  }

  reversible_circuit run()
  {
    const std::uint64_t size = perm_.size();
    for ( std::uint64_t i = 0; i < size; ++i )
    {
      // A partially fixed permutation is not a circuit of the function, so
      // deadline expiry can only abort (see tbs_params::stop).  Poll every
      // 16 rows — and on row 0, so a pre-expired deadline aborts promptly.
      if ( poll_deadline_ && ( i & 15u ) == 0u && stop_.expired() )
      {
        throw budget_exhausted( "tbs: deadline expired mid-synthesis" );
      }
      const auto v = perm_[i];
      if ( v == i )
      {
        continue;
      }
      if ( bidirectional_ )
      {
        const auto p = inverse_[i]; // position currently holding value i
        // Output side needs popcount(v ^ i) flips, input side popcount(p ^ i).
        if ( popcount64( p ^ i ) < popcount64( v ^ i ) )
        {
          fix_input_side( i, p );
          continue;
        }
      }
      fix_output_side( i, v );
    }
    return build_circuit();
  }

private:
  /// Applies an output-side gate: values w with w superset of `controls`
  /// get bit `target` flipped.  Maintains perm_ and inverse_.
  void apply_output_gate( std::uint64_t controls, unsigned target )
  {
    assert( ( controls & ( std::uint64_t{ 1 } << target ) ) == 0u );
    output_gates_.push_back( { controls, target } );
    // Enumerate values w >= controls containing all control bits and with
    // target bit = 1; swap with partner w ^ target_bit.
    const auto target_bit = std::uint64_t{ 1 } << target;
    const auto fixed = controls | target_bit;
    const auto free_mask = ( perm_.size() - 1u ) & ~fixed;
    // Iterate all subsets of free_mask.
    std::uint64_t sub = 0;
    do
    {
      const auto w = fixed | sub;
      const auto w2 = w ^ target_bit;
      const auto x1 = inverse_[w];
      const auto x2 = inverse_[w2];
      perm_[x1] = w2;
      perm_[x2] = w;
      inverse_[w] = x2;
      inverse_[w2] = x1;
      sub = ( sub - free_mask ) & free_mask;
    } while ( sub != 0u );
  }

  /// Applies an input-side gate: positions x with x superset of `controls`
  /// exchange their values with partner positions.
  void apply_input_gate( std::uint64_t controls, unsigned target )
  {
    assert( ( controls & ( std::uint64_t{ 1 } << target ) ) == 0u );
    input_gates_.push_back( { controls, target } );
    const auto target_bit = std::uint64_t{ 1 } << target;
    const auto fixed = controls | target_bit;
    const auto free_mask = ( perm_.size() - 1u ) & ~fixed;
    std::uint64_t sub = 0;
    do
    {
      const auto x1 = fixed | sub;
      const auto x2 = x1 ^ target_bit;
      const auto w1 = perm_[x1];
      const auto w2 = perm_[x2];
      perm_[x1] = w2;
      perm_[x2] = w1;
      inverse_[w1] = x2;
      inverse_[w2] = x1;
      sub = ( sub - free_mask ) & free_mask;
    } while ( sub != 0u );
  }

  /// Classic MMD output-side step: transform value v into i.
  void fix_output_side( std::uint64_t i, std::uint64_t v )
  {
    // (a) set bits that are 1 in i but 0 in v; controls = current ones of v.
    auto current = v;
    for ( unsigned b = 0; b < num_lines_; ++b )
    {
      const auto bit = std::uint64_t{ 1 } << b;
      if ( ( i & bit ) && !( current & bit ) )
      {
        apply_output_gate( current, b );
        current |= bit;
      }
    }
    // (b) clear bits that are 1 in current but 0 in i; controls = remaining
    // ones minus the target (they include all ones of i, keeping earlier
    // rows safe).
    for ( unsigned b = 0; b < num_lines_; ++b )
    {
      const auto bit = std::uint64_t{ 1 } << b;
      if ( ( current & bit ) && !( i & bit ) )
      {
        apply_output_gate( current & ~bit, b );
        current &= ~bit;
      }
    }
    assert( perm_[i] == i );
  }

  /// Bidirectional input-side step: move position p (holding value i) to
  /// position i.  The gate chain is derived by evolving the index i into p
  /// (set bits first, then clear); because input gates compose on the
  /// right of the permutation (P <- P o H, so the LAST applied gate acts
  /// on i first), the chain must be applied in reverse evolution order.
  void fix_input_side( std::uint64_t i, std::uint64_t p )
  {
    std::vector<tbs_gate> chain;
    auto current = i;
    for ( unsigned b = 0; b < num_lines_; ++b )
    {
      const auto bit = std::uint64_t{ 1 } << b;
      if ( ( p & bit ) && !( current & bit ) )
      {
        chain.push_back( { current, b } );
        current |= bit;
      }
    }
    for ( unsigned b = 0; b < num_lines_; ++b )
    {
      const auto bit = std::uint64_t{ 1 } << b;
      if ( ( current & bit ) && !( p & bit ) )
      {
        chain.push_back( { current & ~bit, b } );
        current &= ~bit;
      }
    }
    for ( auto it = chain.rbegin(); it != chain.rend(); ++it )
    {
      apply_input_gate( it->controls, it->target );
    }
    assert( perm_[i] == i );
  }

  reversible_circuit build_circuit()
  {
    reversible_circuit circuit( num_lines_ );
    std::size_t num_controls = 0;
    for ( const auto* gates : { &input_gates_, &output_gates_ } )
    {
      for ( const auto& g : *gates )
      {
        num_controls += popcount64( g.controls );
      }
    }
    circuit.reserve( input_gates_.size() + output_gates_.size(), num_controls );
    std::array<control, 64> controls{};
    const auto emit = [&]( const tbs_gate& g ) {
      std::size_t size = 0;
      for ( unsigned b = 0; b < num_lines_; ++b )
      {
        if ( ( g.controls >> b ) & 1u )
        {
          controls[size++] = { b, true };
        }
      }
      circuit.add_gate( { controls.data(), size }, g.target );
    };
    // f = I_1 ... I_k  then  O_m ... O_1  (see tbs.hpp derivation).
    for ( const auto& g : input_gates_ )
    {
      emit( g );
    }
    for ( auto it = output_gates_.rbegin(); it != output_gates_.rend(); ++it )
    {
      emit( *it );
    }
    return circuit;
  }

  std::vector<std::uint64_t> perm_;
  std::vector<std::uint64_t> inverse_;
  bool bidirectional_;
  deadline stop_;
  bool poll_deadline_ = false;
  unsigned num_lines_ = 0;
  std::vector<tbs_gate> output_gates_;
  std::vector<tbs_gate> input_gates_;
};

} // namespace

reversible_circuit tbs_synthesize( std::vector<std::uint64_t> permutation, const tbs_params& params )
{
  tbs_engine engine( std::move( permutation ), params.bidirectional, params.stop );
  return engine.run();
}

} // namespace qsyn
