/// \file budget.hpp
/// \brief Wall-clock deadlines and the flow budget.
///
/// Long-running kernels (CDCL search, the incremental CEC portfolio, the
/// EXORCISM improvement loop, the TBS tail) poll a `deadline` cooperatively
/// at cheap checkpoints.  A `deadline` is an absolute time limit and
/// trivially copyable; run-level cancellation is the task graph's deadline,
/// which stops every not-yet-started task of a daemon request once it
/// expires.
///
/// Kernels that can stop *gracefully* (EXORCISM, sampling) simply return a
/// partial result; kernels that cannot produce a meaningful partial answer
/// (TBS) throw `budget_exhausted`, which the flow/DSE layer converts into a
/// `timed_out` status record.

#pragma once

#include <chrono>
#include <stdexcept>
#include <string>

namespace qsyn
{

/// Thrown by kernels that cannot return a partial result when their
/// deadline expires.
class budget_exhausted : public std::runtime_error
{
public:
  explicit budget_exhausted( const std::string& what_arg )
      : std::runtime_error( what_arg )
  {
  }
};

/// Cooperative wall-clock deadline.  Default-constructed deadlines never
/// expire and cost one branch per poll, so kernels can check
/// unconditionally.
class deadline
{
public:
  using clock = std::chrono::steady_clock;

  deadline() = default;

  /// Deadline `seconds` from now; `seconds <= 0` or NaN means unlimited.
  /// A limit beyond the clock's range (up to infinity) never expires.
  static deadline in( double seconds )
  {
    deadline d;
    if ( seconds > 0.0 )
    {
      d.has_time_limit_ = true;
      d.expires_at_ = expiry_after( seconds );
    }
    return d;
  }

  [[nodiscard]] bool unlimited() const noexcept
  {
    return !has_time_limit_;
  }

  [[nodiscard]] bool expired() const
  {
    return has_time_limit_ && clock::now() >= expires_at_;
  }

  /// Seconds until expiry; a very large value when unlimited, 0 when
  /// already expired.
  [[nodiscard]] double remaining_seconds() const
  {
    if ( !has_time_limit_ )
    {
      return 1e18;
    }
    const auto left = std::chrono::duration<double>( expires_at_ - clock::now() ).count();
    return left > 0.0 ? left : 0.0;
  }

private:
  /// `now + seconds` for positive `seconds`, clamped to the clock's last
  /// time point: the double-to-tick cast would overflow past it.
  static clock::time_point expiry_after( double seconds )
  {
    const auto now = clock::now();
    const std::chrono::duration<double> limit( seconds );
    if ( limit >= clock::time_point::max() - now )
    {
      return clock::time_point::max();
    }
    return now + std::chrono::duration_cast<clock::duration>( limit );
  }

  bool has_time_limit_ = false;
  clock::time_point expires_at_{};
};

/// The one resource budget carried by `flow_params` / `explore_options`:
/// the flow's wall-clock deadline.  A default-constructed budget leaves
/// behavior bit-identical to the unbudgeted engine.
struct budget
{
  /// Wall-clock limit per flow/design, in seconds (0, negative or NaN =
  /// unlimited).
  double deadline_seconds = 0.0;

  [[nodiscard]] bool unlimited() const noexcept
  {
    return !( deadline_seconds > 0.0 );
  }

  /// True when this budget's deadline is strictly longer than `other`'s
  /// (unlimited ranks above any finite deadline; two unlimited budgets are
  /// equal).  `flow_artifact_cache`'s upgrade rule uses this to decide
  /// whether a requester's budget justifies recomputing an imperfect
  /// cached value (an out-of-budget ESOP, a `degraded` outcome): only a
  /// strictly better-funded request can hope for a better one.
  [[nodiscard]] bool more_generous_than( const budget& other ) const noexcept
  {
    if ( unlimited() )
    {
      return !other.unlimited();
    }
    return !other.unlimited() && deadline_seconds > other.deadline_seconds;
  }
};

} // namespace qsyn
