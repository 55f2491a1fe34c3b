#include "solver.hpp"

#include <algorithm>
#include <cassert>

namespace qsyn::sat
{

namespace
{

/// Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...) for index i >= 1.
std::uint64_t luby( std::uint64_t i )
{
  // Find the finite subsequence containing index i and the position within.
  std::uint64_t k = 1;
  while ( ( ( std::uint64_t{ 1 } << k ) - 1u ) < i )
  {
    ++k;
  }
  while ( ( ( std::uint64_t{ 1 } << k ) - 1u ) != i )
  {
    i -= ( std::uint64_t{ 1 } << ( k - 1u ) ) - 1u;
    k = 1;
    while ( ( ( std::uint64_t{ 1 } << k ) - 1u ) < i )
    {
      ++k;
    }
  }
  return std::uint64_t{ 1 } << ( k - 1u );
}

} // namespace

std::uint32_t solver::new_var()
{
  const auto v = static_cast<std::uint32_t>( assign_.size() );
  assign_.push_back( lbool::unassigned );
  reason_.push_back( -1 );
  level_.push_back( 0 );
  activity_.push_back( 0.0 );
  phase_.push_back( false );
  seen_.push_back( false );
  watches_.emplace_back();
  watches_.emplace_back();
  heap_pos_.push_back( -1 );
  heap_insert( v );
  return v;
}

bool solver::add_clause( std::vector<literal> lits )
{
  if ( !ok_ )
  {
    return false;
  }
  assert( trail_limits_.empty() && "clauses must be added at decision level 0" );
  // Remove duplicate literals and satisfied/falsified simplifications.
  std::sort( lits.begin(), lits.end() );
  lits.erase( std::unique( lits.begin(), lits.end() ), lits.end() );
  std::vector<literal> filtered;
  for ( std::size_t i = 0; i < lits.size(); ++i )
  {
    if ( i + 1u < lits.size() && lits[i + 1u] == lit_negate( lits[i] ) )
    {
      return true; // tautology: contains l and !l
    }
    const auto v = value( lits[i] );
    if ( v == lbool::true_value )
    {
      return true; // already satisfied at level 0
    }
    if ( v == lbool::unassigned )
    {
      filtered.push_back( lits[i] );
    }
  }
  if ( filtered.empty() )
  {
    ok_ = false;
    return false;
  }
  if ( filtered.size() == 1u )
  {
    enqueue( filtered[0], -1 );
    if ( propagate() >= 0 )
    {
      ok_ = false;
      return false;
    }
    return true;
  }
  const auto index = static_cast<std::uint32_t>( clauses_.size() );
  clauses_.push_back( { std::move( filtered ), 0.0, 0, false } );
  attach_clause( index );
  return true;
}

void solver::attach_clause( std::uint32_t index )
{
  const auto& c = clauses_[index].lits;
  watches_[lit_negate( c[0] )].push_back( { index, c[1] } );
  watches_[lit_negate( c[1] )].push_back( { index, c[0] } );
}

void solver::enqueue( literal l, std::int32_t reason )
{
  const auto v = lit_var( l );
  assert( assign_[v] == lbool::unassigned );
  assign_[v] = lit_sign( l ) ? lbool::false_value : lbool::true_value;
  reason_[v] = reason;
  level_[v] = static_cast<std::uint32_t>( trail_limits_.size() );
  trail_.push_back( l );
}

std::int32_t solver::propagate()
{
  while ( propagate_head_ < trail_.size() )
  {
    const auto l = trail_[propagate_head_++];
    ++propagations_;
    auto& watch_list = watches_[l];
    std::size_t keep = 0;
    for ( std::size_t i = 0; i < watch_list.size(); ++i )
    {
      const auto w = watch_list[i];
      if ( value( w.blocker ) == lbool::true_value )
      {
        watch_list[keep++] = w;
        continue;
      }
      auto& lits = clauses_[w.clause_index].lits;
      // Normalize: watched literal being falsified is !l; put it at position 1.
      const auto false_lit = lit_negate( l );
      if ( lits[0] == false_lit )
      {
        std::swap( lits[0], lits[1] );
      }
      assert( lits[1] == false_lit );
      if ( value( lits[0] ) == lbool::true_value )
      {
        watch_list[keep++] = { w.clause_index, lits[0] };
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for ( std::size_t k = 2; k < lits.size(); ++k )
      {
        if ( value( lits[k] ) != lbool::false_value )
        {
          std::swap( lits[1], lits[k] );
          watches_[lit_negate( lits[1] )].push_back( { w.clause_index, lits[0] } );
          moved = true;
          break;
        }
      }
      if ( moved )
      {
        continue;
      }
      // Clause is unit or conflicting.
      watch_list[keep++] = w;
      if ( value( lits[0] ) == lbool::false_value )
      {
        // Conflict: copy back remaining watchers and report.
        for ( std::size_t k = i + 1u; k < watch_list.size(); ++k )
        {
          watch_list[keep++] = watch_list[k];
        }
        watch_list.resize( keep );
        propagate_head_ = trail_.size();
        return static_cast<std::int32_t>( w.clause_index );
      }
      enqueue( lits[0], static_cast<std::int32_t>( w.clause_index ) );
    }
    watch_list.resize( keep );
  }
  return -1;
}

void solver::analyze( std::int32_t conflict, std::vector<literal>& learnt, std::uint32_t& backtrack_level )
{
  learnt.clear();
  learnt.push_back( 0 ); // placeholder for the asserting literal
  const auto current_level = static_cast<std::uint32_t>( trail_limits_.size() );
  std::uint32_t counter = 0;
  literal p = 0;
  bool have_p = false;
  std::size_t trail_index = trail_.size();
  std::vector<std::uint32_t> to_clear;

  for ( ;; )
  {
    bump_clause( static_cast<std::uint32_t>( conflict ) );
    const auto& reason_lits = clauses_[conflict].lits;
    for ( std::size_t i = have_p ? 1u : 0u; i < reason_lits.size(); ++i )
    {
      const auto q = reason_lits[i];
      const auto v = lit_var( q );
      if ( seen_[v] || level_[v] == 0 )
      {
        continue;
      }
      seen_[v] = true;
      to_clear.push_back( v );
      bump_var( v );
      if ( level_[v] == current_level )
      {
        ++counter;
      }
      else
      {
        learnt.push_back( q );
      }
    }
    // Find the next literal on the trail that is marked seen.
    for ( ;; )
    {
      assert( trail_index > 0u );
      p = trail_[--trail_index];
      if ( seen_[lit_var( p )] )
      {
        break;
      }
    }
    seen_[lit_var( p )] = false;
    --counter;
    if ( counter == 0 )
    {
      break;
    }
    // p was implied; continue with its reason clause.  The propagation
    // invariant keeps the implied literal at position 0 (or 1 directly
    // after a watcher renormalization); swapping the two watched positions
    // is safe because both are watched.
    conflict = reason_[lit_var( p )];
    assert( conflict >= 0 );
    auto& rl = clauses_[conflict].lits;
    if ( rl[0] != p )
    {
      assert( rl[1] == p );
      std::swap( rl[0], rl[1] );
    }
    have_p = true;
  }
  learnt[0] = lit_negate( p );

  // Compute backtrack level: second highest level in the learnt clause.
  if ( learnt.size() == 1u )
  {
    backtrack_level = 0;
  }
  else
  {
    std::size_t max_index = 1;
    for ( std::size_t i = 2; i < learnt.size(); ++i )
    {
      if ( level_[lit_var( learnt[i] )] > level_[lit_var( learnt[max_index] )] )
      {
        max_index = i;
      }
    }
    std::swap( learnt[1], learnt[max_index] );
    backtrack_level = level_[lit_var( learnt[1] )];
  }
  for ( const auto v : to_clear )
  {
    seen_[v] = false;
  }
}

void solver::backtrack( std::uint32_t level )
{
  if ( trail_limits_.size() <= level )
  {
    return;
  }
  const auto limit = trail_limits_[level];
  for ( std::size_t i = trail_.size(); i > limit; --i )
  {
    const auto v = lit_var( trail_[i - 1u] );
    phase_[v] = assign_[v] == lbool::true_value;
    assign_[v] = lbool::unassigned;
    reason_[v] = -1;
    if ( !heap_contains( v ) )
    {
      heap_insert( v );
    }
  }
  trail_.resize( limit );
  trail_limits_.resize( level );
  propagate_head_ = trail_.size();
}

// --- variable order heap -----------------------------------------------------

void solver::heap_insert( std::uint32_t var )
{
  heap_pos_[var] = static_cast<std::int32_t>( heap_.size() );
  heap_.push_back( var );
  heap_sift_up( heap_.size() - 1u );
}

void solver::heap_sift_up( std::size_t i )
{
  const auto var = heap_[i];
  const auto act = activity_[var];
  while ( i > 0 )
  {
    const auto parent = ( i - 1u ) / 2u;
    if ( activity_[heap_[parent]] >= act )
    {
      break;
    }
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>( i );
    i = parent;
  }
  heap_[i] = var;
  heap_pos_[var] = static_cast<std::int32_t>( i );
}

void solver::heap_sift_down( std::size_t i )
{
  const auto var = heap_[i];
  const auto act = activity_[var];
  const auto size = heap_.size();
  for ( ;; )
  {
    std::size_t child = 2u * i + 1u;
    if ( child >= size )
    {
      break;
    }
    if ( child + 1u < size && activity_[heap_[child + 1u]] > activity_[heap_[child]] )
    {
      ++child;
    }
    if ( activity_[heap_[child]] <= act )
    {
      break;
    }
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>( i );
    i = child;
  }
  heap_[i] = var;
  heap_pos_[var] = static_cast<std::int32_t>( i );
}

std::uint32_t solver::heap_pop()
{
  const auto top = heap_[0];
  heap_pos_[top] = -1;
  const auto last = heap_.back();
  heap_.pop_back();
  if ( !heap_.empty() )
  {
    heap_[0] = last;
    heap_pos_[last] = 0;
    heap_sift_down( 0 );
  }
  return top;
}

literal solver::pick_branch()
{
  // Every unassigned variable is in the heap (new_var and backtrack insert
  // it); assigned ones are dropped lazily here.
  while ( !heap_.empty() )
  {
    const auto v = heap_pop();
    if ( assign_[v] == lbool::unassigned )
    {
      return phase_[v] ? pos_lit( v ) : neg_lit( v );
    }
  }
  return 0xffffffffu; // sentinel: no unassigned variable
}

void solver::bump_var( std::uint32_t var )
{
  activity_[var] += activity_inc_;
  if ( activity_[var] > 1e100 )
  {
    for ( auto& a : activity_ )
    {
      a *= 1e-100;
    }
    activity_inc_ *= 1e-100;
  }
  if ( heap_contains( var ) )
  {
    heap_sift_up( static_cast<std::size_t>( heap_pos_[var] ) );
  }
}

void solver::decay_activities()
{
  activity_inc_ /= 0.95;
}

void solver::bump_clause( std::uint32_t index )
{
  auto& c = clauses_[index];
  if ( !c.learnt )
  {
    return;
  }
  c.activity += clause_inc_;
  if ( c.activity > 1e20 )
  {
    for ( auto& cl : clauses_ )
    {
      cl.activity *= 1e-20;
    }
    clause_inc_ *= 1e-20;
  }
}

void solver::decay_clause_activities()
{
  clause_inc_ /= 0.999;
}

std::uint32_t solver::compute_lbd( const std::vector<literal>& lits )
{
  ++lbd_stamp_counter_;
  std::uint32_t lbd = 0;
  for ( const auto l : lits )
  {
    const auto lev = level_[lit_var( l )];
    if ( lev >= lbd_stamp_.size() )
    {
      lbd_stamp_.resize( lev + 1u, 0 );
    }
    if ( lbd_stamp_[lev] != lbd_stamp_counter_ )
    {
      lbd_stamp_[lev] = lbd_stamp_counter_;
      ++lbd;
    }
  }
  return lbd;
}

void solver::reduce_db()
{
  assert( trail_limits_.empty() );
  // Level-0 reasons are never dereferenced by analyze() (it skips level-0
  // variables), so they can be dropped before clause indices are remapped.
  for ( const auto l : trail_ )
  {
    reason_[lit_var( l )] = -1;
  }

  // Rank the deletable learned clauses (LBD > 2) worst-first: high LBD,
  // then low activity.
  std::vector<std::uint32_t> deletable;
  for ( std::uint32_t i = 0; i < clauses_.size(); ++i )
  {
    if ( clauses_[i].learnt && clauses_[i].lbd > 2u )
    {
      deletable.push_back( i );
    }
  }
  std::sort( deletable.begin(), deletable.end(), [this]( std::uint32_t a, std::uint32_t b ) {
    if ( clauses_[a].lbd != clauses_[b].lbd )
    {
      return clauses_[a].lbd > clauses_[b].lbd;
    }
    return clauses_[a].activity < clauses_[b].activity;
  } );
  std::vector<bool> drop( clauses_.size(), false );
  for ( std::size_t i = 0; i < deletable.size() / 2u; ++i )
  {
    drop[deletable[i]] = true;
  }

  // Compact the database, simplifying against the permanent level-0
  // assignment on the way: satisfied clauses vanish, falsified literals are
  // stripped.  Propagation is complete, so every surviving clause has at
  // least two unassigned literals.
  std::vector<clause> kept;
  kept.reserve( clauses_.size() );
  for ( std::uint32_t i = 0; i < clauses_.size(); ++i )
  {
    if ( drop[i] )
    {
      continue;
    }
    auto& c = clauses_[i];
    bool satisfied = false;
    std::size_t out = 0;
    for ( std::size_t k = 0; k < c.lits.size(); ++k )
    {
      const auto v = value( c.lits[k] );
      if ( v == lbool::true_value )
      {
        satisfied = true;
        break;
      }
      if ( v == lbool::unassigned )
      {
        c.lits[out++] = c.lits[k];
      }
    }
    if ( satisfied )
    {
      continue;
    }
    c.lits.resize( out );
    assert( c.lits.size() >= 2u );
    kept.push_back( std::move( c ) );
  }

  std::size_t new_learnts = 0;
  for ( const auto& c : kept )
  {
    new_learnts += c.learnt ? 1u : 0u;
  }
  learnts_deleted_ += num_learnts_ - new_learnts;
  num_learnts_ = new_learnts;
  clauses_ = std::move( kept );
  for ( auto& wl : watches_ )
  {
    wl.clear();
  }
  for ( std::uint32_t i = 0; i < clauses_.size(); ++i )
  {
    attach_clause( i );
  }
}

result solver::solve( const std::vector<literal>& assumptions, std::uint64_t conflict_budget,
                      std::uint64_t decision_budget )
{
  if ( !ok_ )
  {
    return result::unsatisfiable;
  }
  if ( !deadline_.unlimited() && deadline_.expired() )
  {
    return result::unknown;
  }
  backtrack( 0 );
  if ( propagate() >= 0 )
  {
    ok_ = false;
    return result::unsatisfiable;
  }

  std::uint64_t restart_index = 1;
  std::uint64_t restart_limit = 100u * luby( restart_index );
  std::uint64_t conflicts_since_restart = 0;
  const std::uint64_t start_conflicts = conflicts_;
  const std::uint64_t start_decisions = decisions_;
  if ( reduce_limit_ == 0 )
  {
    reduce_limit_ = std::max<std::uint64_t>( reduce_base_, clauses_.size() / 3u );
  }

  for ( ;; )
  {
    const auto conflict = propagate();
    if ( conflict >= 0 )
    {
      ++conflicts_;
      ++conflicts_since_restart;
      if ( trail_limits_.empty() )
      {
        ok_ = false;
        return result::unsatisfiable;
      }
      std::vector<literal> learnt;
      std::uint32_t backtrack_level = 0;
      analyze( conflict, learnt, backtrack_level );
      // A backjump below the assumption levels pops assumptions off the
      // trail; the loop below re-applies them in order.  (UNSAT under
      // assumptions is detected only when re-applying a now-falsified
      // assumption — a low backjump level alone proves nothing.)
      backtrack( backtrack_level );
      if ( learnt.size() == 1u )
      {
        enqueue( learnt[0], -1 );
      }
      else
      {
        const auto index = static_cast<std::uint32_t>( clauses_.size() );
        const auto lbd = compute_lbd( learnt );
        clauses_.push_back( { learnt, clause_inc_, lbd, true } );
        ++num_learnts_;
        attach_clause( index );
        enqueue( learnt[0], static_cast<std::int32_t>( index ) );
      }
      decay_activities();
      decay_clause_activities();
      if ( conflict_budget != 0 && conflicts_ - start_conflicts >= conflict_budget )
      {
        backtrack( 0 );
        return result::unknown;
      }
      if ( !deadline_.unlimited() && deadline_.expired() )
      {
        backtrack( 0 );
        return result::unknown;
      }
      if ( conflicts_since_restart >= restart_limit )
      {
        conflicts_since_restart = 0;
        ++restarts_;
        ++restart_index;
        restart_limit = 100u * luby( restart_index );
        backtrack( 0 );
        if ( deletion_enabled_ && num_learnts_ > reduce_limit_ )
        {
          if ( propagate() >= 0 )
          {
            ok_ = false;
            return result::unsatisfiable;
          }
          reduce_db();
          reduce_limit_ += reduce_limit_ / 3u;
        }
      }
      continue;
    }

    // Apply pending assumptions as decisions.
    if ( trail_limits_.size() < assumptions.size() )
    {
      const auto a = assumptions[trail_limits_.size()];
      const auto v = value( a );
      if ( v == lbool::false_value )
      {
        backtrack( 0 );
        return result::unsatisfiable;
      }
      trail_limits_.push_back( static_cast<std::uint32_t>( trail_.size() ) );
      if ( v == lbool::unassigned )
      {
        enqueue( a, -1 );
      }
      continue;
    }

    if ( decision_budget != 0 && decisions_ - start_decisions >= decision_budget )
    {
      backtrack( 0 );
      return result::unknown;
    }
    if ( !deadline_.unlimited() && ( decisions_ - start_decisions ) % 1024u == 0u && deadline_.expired() )
    {
      backtrack( 0 );
      return result::unknown;
    }
    const auto branch = pick_branch();
    if ( branch == 0xffffffffu )
    {
      // All variables assigned: model found.
      model_.resize( num_vars() );
      for ( std::uint32_t v = 0; v < num_vars(); ++v )
      {
        model_[v] = assign_[v] == lbool::true_value;
      }
      backtrack( 0 );
      return result::satisfiable;
    }
    ++decisions_;
    trail_limits_.push_back( static_cast<std::uint32_t>( trail_.size() ) );
    enqueue( branch, -1 );
  }
}

} // namespace qsyn::sat
