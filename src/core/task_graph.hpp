/// \file task_graph.hpp
/// \brief Dependency-DAG task scheduler on the work-stealing thread pool.
///
/// A `task_graph` holds typed task nodes (a string key — the same artifact
/// keys `flow_artifact_cache` uses for stage intermediates — plus a
/// callable) connected by dependency edges, and executes them in
/// topological order on a `thread_pool`: every task whose dependencies are
/// all done is submitted; a finishing worker pushes the tasks it just
/// readied onto its own queue (LIFO locality), and idle workers steal the
/// oldest queued tasks, so independent chains — distinct artifacts,
/// per-configuration synthesis tails, whole designs of a batch sweep —
/// run concurrently without any stage barrier.
///
/// Keyed tasks **coalesce**: `add_shared` with an existing key returns the
/// existing task instead of adding a duplicate, so concurrent requests for
/// one artifact fold onto one in-flight computation (counted in
/// `stats().coalesced`) instead of recomputing or serializing on the
/// artifact cache's mutex.
///
/// Failure is isolated per task: a task that throws is recorded `failed`
/// (its exception kept), and **poisons only its transitive dependents** —
/// they become `poisoned` without running, each carrying the failing
/// ancestor's key (`blame()`) and exception, which the DSE layer maps back
/// onto the `flow_status` taxonomy.  Unrelated tasks are unaffected.  A
/// run-level deadline/cancellation marks not-yet-started tasks `cancelled`
/// (with `budget_exhausted` as their error) and poisons their dependents
/// the same way; tasks already running finish cooperatively through their
/// own budget polls.
///
/// Determinism contract: with an inline pool (<= 1 thread) tasks execute
/// in a fixed topological order (seed tasks in insertion order, each
/// completed task submitting its ready dependents in insertion order), so
/// a single-threaded graph run is bit-identical to — and poll-count
/// deterministic with — the sequential staged pipeline.  With workers,
/// only the interleaving changes; tasks write to caller-owned slots, so
/// results stay bit-identical.
///
/// Per-task timing (start/end relative to `run()` entry) feeds the
/// scheduler statistics: tasks run/poisoned/cancelled, coalesced key hits,
/// steals (from the pool), wall clock, and the critical path (longest
/// dependency chain weighted by measured task durations) — the lower
/// bound any scheduler could reach, reported by `bench_dse`.
///
/// Thread safety: `add`/`add_shared` are for the single building thread
/// before `run()`; accessors after `run()` returned.  One graph runs once
/// — but **many graphs may run concurrently on one shared pool**: `run()`
/// tracks its own submitted wrappers and waits only for this graph's
/// tasks (never for the pool to go idle), which is how the synthesis
/// daemon serves every in-flight request from one long-lived pool.  On a
/// shared pool the `steals` statistic is a pool-wide delta over the run
/// and can include other graphs' steals.

#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "../common/budget.hpp"

namespace qsyn
{

class thread_pool;

/// Index of a task inside its graph (dense, insertion-ordered).
using task_id = std::size_t;

/// Lifecycle of one task node.
enum class task_state
{
  pending,   ///< waiting for dependencies (or for a worker)
  running,   ///< claimed by a worker, callable in flight
  done,      ///< callable returned normally
  failed,    ///< callable threw; `error()` holds the exception
  poisoned,  ///< a dependency failed/was cancelled; never ran.  `blame()`
             ///< names the failing ancestor, `error()` holds its exception
  cancelled  ///< the run-level deadline/cancellation expired before start
};

/// Short name of a state ("pending", ..., "cancelled").
std::string task_state_name( task_state state );

/// Scheduler statistics of one graph run.
struct task_graph_stats
{
  std::size_t tasks_added = 0;
  std::size_t tasks_run = 0;       ///< completed normally
  std::size_t tasks_failed = 0;    ///< threw
  std::size_t tasks_poisoned = 0;  ///< skipped: a dependency failed
  std::size_t tasks_cancelled = 0; ///< skipped: run deadline/cancel expired
  std::size_t coalesced = 0;       ///< duplicate keyed requests folded onto
                                   ///< an existing task (`add_shared`)
  std::uint64_t steals = 0;        ///< pool steals during this run (pool-wide
                                   ///< delta: includes other graphs' steals
                                   ///< when the pool is shared)
  /// Peak number of tasks whose measured [start, end) intervals overlap —
  /// the parallelism that actually materialized.  1 on an inline pool (or
  /// a run whose tasks never overlapped); the dead-parallelism canary
  /// `scripts/run_bench.sh` gates on (steals can legitimately be 0 when
  /// idle workers drain whole designs from the injection queue instead).
  std::size_t max_concurrency = 0;
  double wall_seconds = 0.0;       ///< run() entry to last task terminal
  /// Longest dependency chain, weighted by measured task durations — the
  /// wall clock an ideal scheduler with infinite workers would need.
  double critical_path_seconds = 0.0;
};

class task_graph
{
public:
  task_graph();
  ~task_graph();
  task_graph( const task_graph& ) = delete;
  task_graph& operator=( const task_graph& ) = delete;

  /// Adds a task.  `deps` must name already-added tasks (edges always
  /// point from lower to higher id, keeping the graph acyclic by
  /// construction).  `key` is a display/blame label here; it is NOT
  /// registered for coalescing — use `add_shared` for artifact tasks.
  task_id add( std::string key, std::function<void()> fn,
               const std::vector<task_id>& deps = {} );

  /// Adds a keyed task, coalescing duplicates: when `key` was already
  /// added through `add_shared`, returns the existing task's id and counts
  /// a coalesced hit.  The new callable is dropped (first writer wins,
  /// mirroring the artifact cache's first-computation-wins contract), but
  /// the requested `deps` are merged into the existing task so no caller's
  /// prerequisite is silently lost; a dep added after the shared task
  /// (id >= the task's) cannot be merged acyclically and throws
  /// `std::invalid_argument`.
  task_id add_shared( const std::string& key, std::function<void()> fn,
                      const std::vector<task_id>& deps = {} );

  /// Id of the `add_shared` task registered under `key`, if any.
  [[nodiscard]] std::optional<task_id> find( const std::string& key ) const;

  [[nodiscard]] std::size_t size() const;

  /// Executes the graph to completion on `pool` (topological dispatch;
  /// see file comment for the determinism and failure contracts).  With
  /// `stop`, tasks not yet started when it expires are `cancelled` and
  /// their dependents poisoned; the call always returns with every task
  /// in a terminal state.
  void run( thread_pool& pool );
  void run( thread_pool& pool, const deadline& stop );

  [[nodiscard]] task_state state( task_id id ) const;
  /// The task's own exception (failed/cancelled) or its poisoning
  /// ancestor's (poisoned); nullptr for done/pending tasks.
  [[nodiscard]] std::exception_ptr error( task_id id ) const;
  /// Key of the failing/cancelled ancestor a poisoned task inherited its
  /// fate from; the task's own key for failed/cancelled tasks; empty
  /// otherwise.
  [[nodiscard]] const std::string& blame( task_id id ) const;
  [[nodiscard]] const std::string& key( task_id id ) const;
  /// Start/end of an executed task in seconds since run() entry (-1 for
  /// tasks that never ran).
  [[nodiscard]] double start_seconds( task_id id ) const;
  [[nodiscard]] double end_seconds( task_id id ) const;

  /// Statistics of the completed run (valid after `run()` returns;
  /// `tasks_added`/`coalesced` are live during building too).
  [[nodiscard]] task_graph_stats stats() const;

private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

} // namespace qsyn
