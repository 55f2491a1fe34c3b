/// \file thread_pool.hpp
/// \brief Work-stealing fixed-size thread pool for the task-graph scheduler
/// and the parallel DSE engine.
///
/// The pool owns `num_threads` workers, each with its own double-ended job
/// queue plus one shared injection queue for jobs submitted from outside
/// the pool.  A worker runs its own queue newest-first (LIFO — the job it
/// just spawned is the one whose data is hot), drains the shared queue
/// next, and finally *steals* the oldest job from another worker's queue
/// (FIFO — the victim keeps its hot tail, the thief takes the coldest
/// work).  Jobs submitted from a worker thread land on that worker's own
/// queue, so a task-graph node that readies its dependents keeps them
/// local until an idle worker steals them; `steals()` counts successful
/// steals, the scheduler's dead-parallelism canary.
///
/// With `num_threads <= 1` no worker threads are started and `submit` runs
/// the job inline, so the sequential and parallel code paths share one
/// call site and the sequential path stays deterministic and
/// overhead-free.  Every exception thrown by a job is captured;
/// `wait_all()` returns the full batch, `wait()` rethrows the first and
/// drops the rest (legacy call sites that treat any job failure as fatal).
///
/// Queue bookkeeping (the pending-job count, wakeups, error collection)
/// runs under one pool mutex; each worker deque has its own mutex so
/// steal probes touch only the victim.  Jobs here are coarse (stage
/// kernels, synthesis tails — milliseconds to seconds), so the shared
/// accounting tap is noise; the stealing structure is what spreads work.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qsyn
{

class thread_pool
{
public:
  /// Starts `num_threads` workers; 0 and 1 both mean "run jobs inline".
  explicit thread_pool( unsigned num_threads )
  {
    if ( num_threads <= 1u )
    {
      return;
    }
    queues_.reserve( num_threads );
    for ( unsigned t = 0; t < num_threads; ++t )
    {
      queues_.push_back( std::make_unique<worker_queue>() );
    }
    workers_.reserve( num_threads );
    for ( unsigned t = 0; t < num_threads; ++t )
    {
      workers_.emplace_back( [this, t] { worker_loop( t ); } );
    }
  }

  thread_pool( const thread_pool& ) = delete;
  thread_pool& operator=( const thread_pool& ) = delete;

  ~thread_pool()
  {
    {
      std::unique_lock<std::mutex> lock( mutex_ );
      stopping_ = true;
    }
    wake_workers_.notify_all();
    for ( auto& worker : workers_ )
    {
      worker.join();
    }
  }

  /// Enqueues a job (or runs it inline when the pool has no workers).
  /// Called from one of this pool's own workers, the job lands on that
  /// worker's queue; from any other thread it lands on the shared
  /// injection queue.
  ///
  /// Ordering invariant: `pending_`/`outstanding_` are incremented BEFORE
  /// the job becomes visible to any worker.  A worker can only claim a job
  /// after the push, so the claim-side decrements can never precede these
  /// increments — otherwise the unsigned counters would underflow,
  /// `wait_all()` could return while jobs are still queued or running, or
  /// the final decrement-to-zero could happen in `submit` (which never
  /// notifies `idle_`) and hang the waiters.
  void submit( std::function<void()> job )
  {
    if ( workers_.empty() )
    {
      run_guarded( job );
      return;
    }
    const auto& ctx = current_worker();
    if ( ctx.pool == this )
    {
      {
        std::unique_lock<std::mutex> lock( mutex_ );
        ++pending_;
        ++outstanding_;
      }
      std::unique_lock<std::mutex> queue_lock( queues_[ctx.index]->mutex );
      queues_[ctx.index]->jobs.push_back( std::move( job ) );
    }
    else
    {
      std::unique_lock<std::mutex> lock( mutex_ );
      ++pending_;
      ++outstanding_;
      injected_.push_back( std::move( job ) );
    }
    wake_workers_.notify_one();
  }

  /// Blocks until every submitted job has finished and returns every
  /// exception the batch threw (in completion order), clearing the
  /// collected set.
  [[nodiscard]] std::vector<std::exception_ptr> wait_all()
  {
    std::unique_lock<std::mutex> lock( mutex_ );
    idle_.wait( lock, [this] { return outstanding_ == 0u; } );
    std::vector<std::exception_ptr> errors;
    errors.swap( errors_ );
    return errors;
  }

  /// Blocks until every submitted job has finished, then rethrows the
  /// first job exception (if any); later exceptions from the batch are
  /// discarded.
  void wait()
  {
    const auto errors = wait_all();
    if ( !errors.empty() )
    {
      std::rethrow_exception( errors.front() );
    }
  }

  /// Number of worker threads (0 = inline execution).
  unsigned num_workers() const { return static_cast<unsigned>( workers_.size() ); }

  /// Number of jobs a worker has taken from another worker's queue since
  /// construction.  Zero on a multi-worker pool that ran a wide job batch
  /// means the parallelism never materialized (the dead-parallelism
  /// canary `scripts/run_bench.sh` gates on); inline pools always report 0.
  [[nodiscard]] std::uint64_t steals() const noexcept
  {
    return steals_.load( std::memory_order_relaxed );
  }

  /// Largest worker count `QSYN_THREADS` can request.  Values beyond any
  /// plausible machine are user error; without the clamp the unchecked
  /// `long` → `unsigned` cast below could wrap (e.g. 2^32 → 0 workers and
  /// a pool that executes everything inline, or 2^32+7 → a silent 7).
  static constexpr unsigned max_env_threads = 1024u;

  /// The default worker count: the `QSYN_THREADS` environment variable
  /// when set (clamped to [1, max_env_threads], so benches/CI can pin
  /// worker counts without new flags and absurd values cannot wrap the
  /// unsigned cast), otherwise the hardware concurrency, at least 1.
  static unsigned default_num_threads()
  {
    if ( const char* env = std::getenv( "QSYN_THREADS" ) )
    {
      char* end = nullptr;
      const long parsed = std::strtol( env, &end, 10 );
      if ( end != env && *end == '\0' )
      {
        if ( parsed < 1 )
        {
          return 1u;
        }
        if ( parsed > static_cast<long>( max_env_threads ) )
        {
          return max_env_threads;
        }
        return static_cast<unsigned>( parsed );
      }
    }
    const auto hw = std::thread::hardware_concurrency();
    return hw == 0u ? 1u : hw;
  }

private:
  struct worker_queue
  {
    std::mutex mutex;
    std::deque<std::function<void()>> jobs;
  };

  /// Identifies the pool (and worker slot) the calling thread belongs to,
  /// so `submit` can route jobs to the caller's own queue.
  struct worker_context
  {
    thread_pool* pool = nullptr;
    unsigned index = 0;
  };

  static worker_context& current_worker()
  {
    static thread_local worker_context ctx;
    return ctx;
  }

  void run_guarded( const std::function<void()>& job )
  {
    try
    {
      job();
    }
    catch ( ... )
    {
      std::unique_lock<std::mutex> lock( mutex_ );
      errors_.push_back( std::current_exception() );
    }
  }

  /// Pops the newest job of the worker's own queue (LIFO).
  bool pop_own( unsigned index, std::function<void()>& job )
  {
    std::unique_lock<std::mutex> queue_lock( queues_[index]->mutex );
    if ( queues_[index]->jobs.empty() )
    {
      return false;
    }
    job = std::move( queues_[index]->jobs.back() );
    queues_[index]->jobs.pop_back();
    return true;
  }

  /// Steals the oldest job of another worker's queue (FIFO), probing
  /// round-robin from the thief's right-hand neighbour.
  bool steal( unsigned thief, std::function<void()>& job )
  {
    const auto n = queues_.size();
    for ( std::size_t offset = 1; offset < n; ++offset )
    {
      auto& victim = *queues_[( thief + offset ) % n];
      std::unique_lock<std::mutex> queue_lock( victim.mutex );
      if ( victim.jobs.empty() )
      {
        continue;
      }
      job = std::move( victim.jobs.front() );
      victim.jobs.pop_front();
      steals_.fetch_add( 1, std::memory_order_relaxed );
      return true;
    }
    return false;
  }

  void worker_loop( unsigned index )
  {
    current_worker() = { this, index };
    for ( ;; )
    {
      std::function<void()> job;
      bool have_job = pop_own( index, job );
      if ( !have_job )
      {
        std::unique_lock<std::mutex> lock( mutex_ );
        wake_workers_.wait( lock, [this] { return stopping_ || pending_ > 0u; } );
        if ( pending_ == 0u )
        {
          return; // stopping_ and every queue drained
        }
        if ( !injected_.empty() )
        {
          job = std::move( injected_.front() );
          injected_.pop_front();
          have_job = true;
        }
        else
        {
          // The pending job sits on some worker's queue: try our own
          // again (a submit raced the wait), then steal.
          lock.unlock();
          have_job = pop_own( index, job ) || steal( index, job );
          if ( !have_job )
          {
            continue; // lost the race to another thief; re-wait
          }
        }
      }
      {
        std::unique_lock<std::mutex> lock( mutex_ );
        --pending_;
      }
      // Claimed a job another worker may still be waiting for? No: every
      // claim decrements pending_, and waiters re-check the predicate.
      run_guarded( job );
      {
        std::unique_lock<std::mutex> lock( mutex_ );
        if ( --outstanding_ == 0u )
        {
          idle_.notify_all();
        }
      }
    }
  }

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<worker_queue>> queues_;
  std::deque<std::function<void()>> injected_; ///< jobs from non-worker threads
  std::mutex mutex_;
  std::condition_variable wake_workers_;
  std::condition_variable idle_;
  std::size_t pending_ = 0;     ///< submitted, not yet claimed by a worker
  std::size_t outstanding_ = 0; ///< submitted, not yet finished
  bool stopping_ = false;
  std::vector<std::exception_ptr> errors_;
  std::atomic<std::uint64_t> steals_{ 0 };
};

} // namespace qsyn
