/// \file fault_injection.hpp
/// \brief Deterministic fault injection for tests and benches.
///
/// Production code calls `fault_injection::poll("site.name")` at named
/// sites.  When nothing is armed this is a single relaxed atomic load.
/// Tests arm a site with a fault kind:
///
/// * `fail`    — poll() throws `injected_fault` (a stage failure),
/// * `timeout` — poll() throws `qsyn::budget_exhausted` (a hang that the
///               budget layer caught),
/// * `trip`    — poll() returns true; the caller implements the
///               degradation itself (e.g. "pretend the deadline has
///               expired", "treat this cache hit as a miss").
///
/// Site registry (keep in sync with docs/ARCHITECTURE.md):
///
///   flow.optimize   — AIG optimization stage
///   flow.collapse   — truth-table collapse stage (functional flow)
///   flow.esop       — ESOP extraction/minimization stage
///   exorcism.stop   — EXORCISM's deadline poll (trip = deadline expired)
///   flow.xmg        — XMG mapping stage (hierarchical flow)
///   cache.hit       — optimized-AIG cache hit (trip = treat as miss)
///   verify.sat      — SAT verify tier (trip = deadline expired)
///   dse.elaborate   — per-design elaboration in explore_designs
///
/// Arming supports `after_hits` (skip the first N polls) and `times`
/// (fire at most N times, -1 = forever), making multi-threaded tests
/// deterministic: the fault fires on an exact poll count regardless of
/// scheduling.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace qsyn::fault_injection
{

/// Thrown by poll() at a site armed with `kind::fail`.
class injected_fault : public std::runtime_error
{
public:
  explicit injected_fault( const std::string& what_arg )
      : std::runtime_error( what_arg )
  {
  }
};

enum class kind
{
  fail,    ///< poll() throws injected_fault
  timeout, ///< poll() throws qsyn::budget_exhausted
  trip     ///< poll() returns true
};

/// Arms `site`.  The fault fires on polls `after_hits+1 .. after_hits+times`
/// (times == -1 fires forever once reached).  Re-arming a site replaces its
/// previous configuration.
void arm( const std::string& site, kind k, std::uint64_t after_hits = 0, std::int64_t times = -1 );

/// Disarms every site and resets all hit counters.
void disarm_all();

/// Number of times `site` has been polled since the last disarm_all()
/// (counted only while the site is armed).
std::uint64_t hits( const std::string& site );

/// Polls `site`.  No-op (returns false) unless the site is armed and its
/// firing window is reached; see `kind` for the armed behavior.
bool poll( const char* site );

} // namespace qsyn::fault_injection
