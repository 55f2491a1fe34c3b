/// \file thread_pool.hpp
/// \brief Fixed-size FIFO thread pool under the task-graph scheduler.
///
/// The pool owns `num_threads` workers that pop jobs from the front of one
/// shared queue under one mutex.  Jobs submitted from a worker and from
/// any other thread go to the same queue, oldest first.  Jobs here are
/// coarse (stage kernels, synthesis tails — milliseconds to seconds), so
/// the one mutex is noise; per-worker deques with stealing measured no
/// faster on the DSE sweep and the daemon.
///
/// With `num_threads <= 1` no worker threads are started and `submit` runs
/// the job inline, so the sequential and parallel code paths share one
/// call site and the sequential path stays deterministic and
/// overhead-free.
///
/// The pool tracks no completion and collects no errors: its one client,
/// `task_graph`, counts its own jobs and records every task's exception.
/// A job that throws is a bug: on a worker it terminates the process,
/// inline it propagates to the `submit` caller.  The destructor lets the
/// workers drain the queue, then joins them.
///
/// A thread running a job (a worker, or the submitting thread of an inline
/// pool while the job runs) is marked, `in_job()`: `parallel_chunks`
/// (parallel_chunks.hpp) runs inline there, so a stage inside a pool job
/// never starts threads of its own on top of the pool's.

#pragma once

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <functional>
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
    workers_.reserve( num_threads );
    for ( unsigned t = 0; t < num_threads; ++t )
    {
      workers_.emplace_back( [this] { worker_loop(); } );
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

  /// Appends a job to the queue (or runs it inline when the pool has no
  /// workers).
  void submit( std::function<void()> job )
  {
    if ( workers_.empty() )
    {
      job_scope scope;
      job();
      return;
    }
    {
      std::unique_lock<std::mutex> lock( mutex_ );
      jobs_.push_back( std::move( job ) );
    }
    wake_workers_.notify_one();
  }

  /// Number of worker threads (0 = inline execution).
  unsigned num_workers() const { return static_cast<unsigned>( workers_.size() ); }

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

  /// True while the calling thread runs a pool job or a `job_scope`.
  static bool in_job() { return in_job_; }

  /// Marks the calling thread as running a job for the scope's lifetime
  /// (nests: the destructor restores the previous mark).
  class job_scope
  {
  public:
    job_scope() : outer_( in_job_ ) { in_job_ = true; }
    ~job_scope() { in_job_ = outer_; }
    job_scope( const job_scope& ) = delete;
    job_scope& operator=( const job_scope& ) = delete;

  private:
    bool outer_;
  };

private:
  void worker_loop()
  {
    job_scope scope;
    for ( ;; )
    {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock( mutex_ );
        wake_workers_.wait( lock, [this] { return stopping_ || !jobs_.empty(); } );
        if ( jobs_.empty() )
        {
          return; // stopping_ and the queue drained
        }
        job = std::move( jobs_.front() );
        jobs_.pop_front();
      }
      job();
    }
  }

  static inline thread_local bool in_job_ = false;

  std::mutex mutex_;
  std::deque<std::function<void()>> jobs_; ///< guarded by mutex_
  bool stopping_ = false;                  ///< guarded by mutex_
  std::condition_variable wake_workers_;
  std::vector<std::thread> workers_; ///< last: the workers use every member above
};

} // namespace qsyn
