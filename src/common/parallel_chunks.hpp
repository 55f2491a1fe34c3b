/// \file parallel_chunks.hpp
/// \brief Runs a loop of independent chunks on every core of a one-shot
/// call, and inline inside a pool job.
///
/// Two front-end stages are embarrassingly parallel and run outside any
/// task graph when a user compiles one design: refactor planning and the
/// lane groups of `aig_network::simulate_outputs`.  `parallel_chunks`
/// spreads such a loop over `min(thread_pool::default_num_threads(),
/// chunks)` threads, the calling thread included; `QSYN_THREADS` stays
/// the only setting, and at 1 no thread is started.
///
/// The nesting rule: when the caller already runs a `thread_pool` job
/// (`thread_pool::in_job()`: a worker, or the submitting thread of an
/// inline pool), the width is 1 and the chunks run inline, so sweeps and
/// the daemon, which already fill their pool, never oversubscribe the
/// machine.  The threads of a run are themselves marked as in a job, so a
/// nested `parallel_chunks` runs inline too.
///
/// Threads claim chunks in ascending order from one counter.  The body
/// gets the chunk index and the slot (< width()) of the thread running it,
/// so it can keep per-thread scratch in a slot-indexed array; a result
/// that must not depend on the thread count is written per chunk and
/// combined in chunk order by the caller.  An exception thrown by a chunk
/// stops further claims and is rethrown on the caller after every thread
/// has been joined (the first one, when several threads throw).

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "thread_pool.hpp"

namespace qsyn
{

class parallel_chunks
{
public:
  explicit parallel_chunks( std::size_t num_chunks )
      : num_chunks_( num_chunks ),
        width_( thread_pool::in_job()
                    ? 1u
                    : static_cast<unsigned>( std::min<std::size_t>(
                          thread_pool::default_num_threads(), std::max<std::size_t>( num_chunks, 1u ) ) ) )
  {
  }

  /// Number of threads `run` uses (slots 0 .. width() - 1).
  unsigned width() const { return width_; }

  /// Calls `body( chunk, slot )` once for every chunk in [0, num_chunks).
  template <typename Body>
  void run( Body&& body ) const
  {
    if ( width_ <= 1u )
    {
      for ( std::size_t chunk = 0; chunk < num_chunks_; ++chunk )
      {
        body( chunk, 0u );
      }
      return;
    }
    std::atomic<std::size_t> next{ 0 };
    std::atomic<bool> failed{ false };
    std::mutex error_mutex;
    std::exception_ptr first_error; ///< guarded by error_mutex
    const auto work = [&]( unsigned slot ) {
      thread_pool::job_scope scope;
      try
      {
        for ( std::size_t chunk = next++; chunk < num_chunks_ && !failed; chunk = next++ )
        {
          body( chunk, slot );
        }
      }
      catch ( ... )
      {
        std::lock_guard<std::mutex> lock( error_mutex );
        if ( !first_error )
        {
          first_error = std::current_exception();
        }
        failed = true;
      }
    };
    std::vector<std::thread> threads;
    threads.reserve( width_ - 1u );
    for ( unsigned slot = 1; slot < width_; ++slot )
    {
      try
      {
        threads.emplace_back( work, slot );
      }
      catch ( const std::system_error& )
      {
        break; // no thread to spare: the threads started so far do the rest
      }
    }
    work( 0u );
    for ( auto& thread : threads )
    {
      thread.join();
    }
    if ( first_error )
    {
      std::rethrow_exception( first_error );
    }
  }

private:
  std::size_t num_chunks_;
  unsigned width_;
};

} // namespace qsyn
