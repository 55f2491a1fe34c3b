#include "task_graph.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>

#include "../common/thread_pool.hpp"

namespace qsyn
{

namespace
{

using graph_clock = std::chrono::steady_clock;

struct task_node
{
  std::string key;
  std::function<void()> fn;
  std::vector<task_id> deps;
  std::vector<task_id> dependents;
  std::size_t remaining = 0; ///< unresolved dependencies
  task_state state = task_state::pending;
  std::exception_ptr error;
  std::string blame; ///< failing ancestor's key (poisoned), own key (failed/cancelled)
  double start_s = -1.0;
  double end_s = -1.0;
};

} // namespace

struct task_graph::impl
{
  mutable std::mutex mutex;
  std::condition_variable all_terminal;
  std::vector<task_node> nodes;
  std::unordered_map<std::string, task_id> shared_keys;
  task_graph_stats stats;
  bool running = false;
  bool ran = false;
  std::size_t terminal = 0;
  /// Pool wrappers submitted for this graph that have not yet finished
  /// their final access to this impl.  `run()` waits for this to reach
  /// zero (in addition to every node being terminal) before returning, so
  /// a wrapper that lost the race to a poisoning ancestor — submitted,
  /// then found its task already terminal — can never touch a destroyed
  /// graph.  This is what makes several graphs safe to run concurrently
  /// on one shared pool: completion is tracked per graph, not by waiting
  /// for the whole pool to drain.
  std::size_t live_wrappers = 0;
  graph_clock::time_point run_start{};
  deadline stop;
  thread_pool* pool = nullptr;
  const std::string empty;

  double since_start() const
  {
    return std::chrono::duration<double>( graph_clock::now() - run_start ).count();
  }

  /// Marks `id` terminal in `state` (mutex held).  Graph completion is
  /// observed by `run()` through the terminal/live_wrappers counters; the
  /// wake-up happens at wrapper exit, the single point that is provably
  /// the last impl access.
  void finalize_locked( task_id id, task_state state )
  {
    nodes[id].state = state;
    switch ( state )
    {
    case task_state::done:
      ++stats.tasks_run;
      break;
    case task_state::failed:
      ++stats.tasks_failed;
      break;
    case task_state::poisoned:
      ++stats.tasks_poisoned;
      break;
    case task_state::cancelled:
      ++stats.tasks_cancelled;
      break;
    case task_state::pending:
    case task_state::running:
      assert( false && "finalize_locked requires a terminal state" );
      break;
    }
    ++terminal;
  }

  /// Poisons every not-yet-started transitive dependent of `origin`
  /// (mutex held), propagating the ultimate ancestor's blame/error (so a
  /// poisoned node's own dependents inherit the original key, not the
  /// intermediate one).
  void poison_dependents_locked( task_id origin )
  {
    const auto& blame_key = nodes[origin].blame.empty() ? nodes[origin].key
                                                        : nodes[origin].blame;
    const auto error = nodes[origin].error;
    std::vector<task_id> frontier = nodes[origin].dependents;
    while ( !frontier.empty() )
    {
      const auto id = frontier.back();
      frontier.pop_back();
      auto& node = nodes[id];
      if ( node.state != task_state::pending )
      {
        continue; // already terminal (poisoned through another ancestor)
      }
      node.blame = blame_key;
      node.error = error;
      finalize_locked( id, task_state::poisoned );
      frontier.insert( frontier.end(), node.dependents.begin(), node.dependents.end() );
    }
  }

  void submit( task_id id );

  void execute( task_id id )
  {
    {
      std::unique_lock<std::mutex> lock( mutex );
      auto& node = nodes[id];
      if ( node.state != task_state::pending )
      {
        return; // poisoned after being submitted; nothing to run
      }
      if ( stop.expired() )
      {
        node.blame = node.key;
        node.error = std::make_exception_ptr( budget_exhausted(
            "task graph deadline expired before task '" + node.key + "' started" ) );
        finalize_locked( id, task_state::cancelled );
        poison_dependents_locked( id );
        return; // run() is woken by the wrapper's live-count decrement
      }
      node.state = task_state::running;
      node.start_s = since_start();
    }

    std::exception_ptr error;
    try
    {
      nodes[id].fn();
    }
    catch ( ... )
    {
      error = std::current_exception();
    }

    std::vector<task_id> ready;
    {
      std::unique_lock<std::mutex> lock( mutex );
      auto& node = nodes[id];
      node.end_s = since_start();
      if ( error )
      {
        node.error = error;
        node.blame = node.key;
        finalize_locked( id, task_state::failed );
        poison_dependents_locked( id );
      }
      else
      {
        finalize_locked( id, task_state::done );
        for ( const auto dep_id : node.dependents )
        {
          auto& dependent = nodes[dep_id];
          if ( --dependent.remaining == 0 && dependent.state == task_state::pending )
          {
            ready.push_back( dep_id );
          }
        }
      }
    }
    // Submitted outside the lock: an inline pool runs the whole dependent
    // cascade right here (recursively, in insertion order — the
    // single-thread determinism contract), a worker pool appends them to
    // its queue.
    for ( const auto ready_id : ready )
    {
      submit( ready_id );
    }
  }
};

void task_graph::impl::submit( task_id id )
{
  {
    std::unique_lock<std::mutex> lock( mutex );
    ++live_wrappers;
  }
  pool->submit( [this, id] {
    execute( id );
    // Last impl access of this wrapper.  The notify happens WITH the mutex
    // held: run()'s waiter cannot re-check its predicate (and let the
    // caller destroy the graph) until it reacquires the mutex we hold, so
    // the condition variable is guaranteed alive through the notify even
    // when this decrement is the one that completes the run.
    std::unique_lock<std::mutex> lock( mutex );
    if ( --live_wrappers == 0 && terminal == nodes.size() )
    {
      all_terminal.notify_all();
    }
  } );
}

task_graph::task_graph()
    : impl_( std::make_unique<impl>() )
{
}

task_graph::~task_graph() = default;

task_id task_graph::add( std::string key, std::function<void()> fn,
                         const std::vector<task_id>& deps )
{
  auto& g = *impl_;
  if ( g.running || g.ran )
  {
    throw std::logic_error( "task_graph: cannot add tasks to a running/finished graph" );
  }
  const task_id id = g.nodes.size();
  for ( const auto dep : deps )
  {
    if ( dep >= id )
    {
      throw std::invalid_argument( "task_graph: dependencies must be already-added tasks" );
    }
  }
  task_node node;
  node.key = std::move( key );
  node.fn = std::move( fn );
  node.deps = deps;
  node.remaining = deps.size();
  g.nodes.push_back( std::move( node ) );
  for ( const auto dep : deps )
  {
    g.nodes[dep].dependents.push_back( id );
  }
  ++g.stats.tasks_added;
  return id;
}

task_id task_graph::add_shared( const std::string& key, std::function<void()> fn,
                                const std::vector<task_id>& deps )
{
  auto& g = *impl_;
  const auto it = g.shared_keys.find( key );
  if ( it != g.shared_keys.end() )
  {
    if ( g.running || g.ran )
    {
      throw std::logic_error( "task_graph: cannot add tasks to a running/finished graph" );
    }
    // Coalesced hit: the callable is dropped (first writer wins), but the
    // requested deps must NOT be — a consumer of the shared task could
    // otherwise run before a prerequisite only the later caller knows
    // about.  Merge deps the acyclic-by-construction ordering allows
    // (edges point from lower to higher id); a dep at or above the shared
    // task's id cannot be merged without risking a cycle, so reject it
    // loudly instead of silently dropping it.
    const auto id = it->second;
    auto& node = g.nodes[id];
    for ( const auto dep : deps )
    {
      if ( std::find( node.deps.begin(), node.deps.end(), dep ) != node.deps.end() )
      {
        continue;
      }
      if ( dep >= id )
      {
        throw std::invalid_argument(
            "task_graph: coalesced task '" + key +
            "' cannot depend on a task added after it (dependency #" +
            std::to_string( dep ) + ")" );
      }
      node.deps.push_back( dep );
      ++node.remaining;
      g.nodes[dep].dependents.push_back( id );
    }
    ++g.stats.coalesced;
    return id;
  }
  const auto id = add( key, std::move( fn ), deps );
  g.shared_keys.emplace( key, id );
  return id;
}

std::optional<task_id> task_graph::find( const std::string& key ) const
{
  const auto it = impl_->shared_keys.find( key );
  return it == impl_->shared_keys.end() ? std::nullopt : std::optional<task_id>( it->second );
}

std::size_t task_graph::size() const
{
  return impl_->nodes.size();
}

void task_graph::run( thread_pool& pool )
{
  run( pool, deadline{} );
}

void task_graph::run( thread_pool& pool, const deadline& stop )
{
  auto& g = *impl_;
  if ( g.running || g.ran )
  {
    throw std::logic_error( "task_graph: a graph runs exactly once" );
  }
  g.running = true;
  g.stop = stop;
  g.pool = &pool;
  g.run_start = graph_clock::now();

  std::vector<task_id> seeds;
  {
    std::unique_lock<std::mutex> lock( g.mutex );
    for ( task_id id = 0; id < g.nodes.size(); ++id )
    {
      if ( g.nodes[id].remaining == 0 )
      {
        seeds.push_back( id );
      }
    }
  }
  for ( const auto id : seeds )
  {
    g.submit( id );
  }

  // Wait for this graph alone: every node terminal AND every submitted
  // wrapper past its last impl access.  Waiting for the whole pool to go
  // idle instead would couple this run to every other graph sharing the
  // pool (the daemon runs one graph per in-flight request on one
  // long-lived pool); the live_wrappers counter also keeps a
  // late-scheduled wrapper of an already-poisoned task from touching a
  // destroyed graph.
  std::unique_lock<std::mutex> lock( g.mutex );
  g.all_terminal.wait( lock, [&g] {
    return g.terminal == g.nodes.size() && g.live_wrappers == 0;
  } );
  g.stats.wall_seconds = g.since_start();
  // Critical path: edges always point from lower to higher id, so one
  // forward pass over the measured durations is a topological DP.
  std::vector<double> longest( g.nodes.size(), 0.0 );
  double critical = 0.0;
  for ( task_id id = 0; id < g.nodes.size(); ++id )
  {
    const auto& node = g.nodes[id];
    const double duration =
        ( node.start_s >= 0.0 && node.end_s >= 0.0 ) ? node.end_s - node.start_s : 0.0;
    double upstream = 0.0;
    for ( const auto dep : node.deps )
    {
      upstream = std::max( upstream, longest[dep] );
    }
    longest[id] = upstream + duration;
    critical = std::max( critical, longest[id] );
  }
  g.stats.critical_path_seconds = critical;
  // Peak overlap of the measured task intervals (classic event sweep).
  // Ties order starts before ends so a zero-duration task still counts
  // while it is "live" and the counter can never dip below zero.
  std::vector<std::pair<double, int>> events;
  events.reserve( 2 * g.nodes.size() );
  for ( const auto& node : g.nodes )
  {
    if ( node.start_s >= 0.0 && node.end_s >= 0.0 )
    {
      events.emplace_back( node.start_s, +1 );
      events.emplace_back( node.end_s, -1 );
    }
  }
  std::sort( events.begin(), events.end(),
             []( const auto& a, const auto& b ) {
               return a.first != b.first ? a.first < b.first : a.second > b.second;
             } );
  std::size_t live = 0, peak = 0;
  for ( const auto& [time, delta] : events )
  {
    (void)time;
    live += delta; // starts sort first, so live never dips below zero
    peak = std::max( peak, live );
  }
  g.stats.max_concurrency = peak;
  g.running = false;
  g.ran = true;
}

task_state task_graph::state( task_id id ) const
{
  std::unique_lock<std::mutex> lock( impl_->mutex );
  return impl_->nodes.at( id ).state;
}

std::exception_ptr task_graph::error( task_id id ) const
{
  std::unique_lock<std::mutex> lock( impl_->mutex );
  return impl_->nodes.at( id ).error;
}

const std::string& task_graph::blame( task_id id ) const
{
  std::unique_lock<std::mutex> lock( impl_->mutex );
  const auto& node = impl_->nodes.at( id );
  return node.blame.empty() ? impl_->empty : node.blame;
}

const std::string& task_graph::key( task_id id ) const
{
  return impl_->nodes.at( id ).key;
}

double task_graph::start_seconds( task_id id ) const
{
  std::unique_lock<std::mutex> lock( impl_->mutex );
  return impl_->nodes.at( id ).start_s;
}

double task_graph::end_seconds( task_id id ) const
{
  std::unique_lock<std::mutex> lock( impl_->mutex );
  return impl_->nodes.at( id ).end_s;
}

task_graph_stats task_graph::stats() const
{
  std::unique_lock<std::mutex> lock( impl_->mutex );
  return impl_->stats;
}

} // namespace qsyn
