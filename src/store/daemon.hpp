/// \file daemon.hpp
/// \brief Long-lived synthesis daemon over a unix-domain socket.
///
/// `synthesis_daemon` keeps the expensive state of the synthesis pipeline
/// alive between queries: one shared persistent `artifact_store` (disk
/// tier) and a per-design `flow_artifact_cache`.  That cache holds the
/// stage artifacts, the persistent incremental SAT engine (so repeat
/// verifications of one design share the miter encoding and learned
/// lemmas) and the full flow outcomes (`flow_artifact_cache::outcome`,
/// store kind `flow_outcome`), so a repeat synthesis query is answered
/// without recomputing anything.
///
/// Execution model: connection threads are pure I/O.  Every admitted
/// synthesize request builds its staged flow as a `task_graph`
/// (optimize → backend artifact → synthesis tail) and runs it on ONE
/// long-lived FIFO thread pool shared by all in-flight requests, so a
/// big design's stages parallelize across workers and concurrent requests
/// interleave at task granularity instead of fighting over cores
/// thread-per-request.  Identical concurrent queries coalesce: every
/// outcome key (`outcome_key`) has its own cache slot, held while the key
/// is served from memory, loaded from the store, or synthesized, so every
/// duplicate waits on the slot and shares the holder's result — N
/// identical in-flight queries run `run_flow_staged` exactly once (stats
/// `synthesized == 1`, the rest counted `coalesced`).  Designs get
/// per-key slots too: a new design elaborates holding only its own slot,
/// never the daemon-wide lock, so requests for other designs go ahead.
///
/// Admission control: at most `max_inflight` syntheses may be in flight;
/// requests beyond that are rejected immediately with
/// `{"ok":false,...,"code":"busy"}` so one huge design cannot starve the
/// socket.  A request's deadline is armed at admission — time spent
/// queued behind other requests' tasks consumes its budget, and a tail
/// that cannot start before expiry reports `timed_out`.
///
/// Budget-honest result cache: the outcome cache follows the one upgrade
/// rule of `flow_artifact_cache`.  A cached `degraded` (or
/// verify-downgraded) outcome remembers the budget it was produced under
/// and is served as-is to requesters with no more budget; a strictly
/// better-funded requester triggers a recompute that replaces the memory
/// entry and the store entry (stats `upgraded`).
///
/// Wire protocol: line-delimited JSON over `AF_UNIX`/`SOCK_STREAM` — one
/// flat JSON object per request line, one per response line.  Requests:
///
///   {"cmd":"ping"}
///   {"cmd":"stats"}
///   {"cmd":"shutdown"}
///   {"cmd":"synthesize","design":"intdiv","bitwidth":6,"flow":"esop",
///    "rounds":2,"esop_p":1,"exorcism":1,"cleanup":"keep_garbage",
///    "cut_size":4,"verify":"sampled","deadline":0}
///
/// (`deadline` in seconds, 0 = unlimited, matching `qsyn::budget`.  A
/// synthesize request naming any other field, and one with `cut_size`
/// outside [2, 6], is answered with an error before the design is
/// elaborated.)
///
/// Every response carries `"ok":true|false`; a synthesize response adds
/// the cost report, the flow/verification status, `"from_cache"` (served
/// from the result cache or coalesced onto an in-flight duplicate), and
/// `"seconds"` (server-side handling time).  Failures get `"ok":false` +
/// `"error"`, plus a machine-readable `"code"` for backpressure:
/// `"busy"` (admission or connection cap hit — retry later) and
/// `"line_too_long"` (request line exceeded `max_line_bytes`; the daemon
/// answers then drops the connection instead of buffering without bound).
/// The daemon never dies on bad input.  Connections are capped at
/// `max_connections` and their threads reaped as they finish; all shared
/// state is internally synchronized.
#pragma once

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "../core/flows.hpp"
#include "artifact_store.hpp"

namespace qsyn
{
class thread_pool;
}

namespace qsyn::store
{

/// Largest `bitwidth` a synthesize request may name.  INTDIV(n) and
/// NEWTON(n) have n inputs, and INTDIV(128) is the largest design of the
/// paper's Table IV; a wider request is rejected before elaboration.
inline constexpr unsigned max_design_bitwidth = 128;

struct daemon_options
{
  std::string socket_path;  ///< unix-domain socket to listen on
  std::string store_root;   ///< artifact store root; empty = no disk tier
  /// Workers of the shared synthesis pool (0 = thread_pool's default,
  /// honoring QSYN_THREADS; 1 = inline execution on the request thread).
  unsigned num_threads = 0;
  /// Admission cap: synthesize requests beyond this many in-flight
  /// syntheses are rejected with code "busy" (0 = 2x workers, min 4).
  std::size_t max_inflight = 0;
  /// Connection cap: accepts beyond this many live connections are
  /// answered with code "busy" and closed.
  std::size_t max_connections = 64;
  /// A request line longer than this is answered with code
  /// "line_too_long" and the connection dropped (guards against a client
  /// streaming bytes without a newline).
  std::size_t max_line_bytes = 1u << 20;
};

/// Request counters (monotone over the daemon's lifetime).
struct daemon_stats
{
  std::size_t requests = 0;     ///< total request lines handled
  std::size_t errors = 0;       ///< malformed / failed requests
  std::size_t synthesized = 0;  ///< synthesize queries that ran the flow
  std::size_t result_hits = 0;  ///< synthesize queries served from the
                                ///< result cache (memory or disk)
  std::size_t coalesced = 0;    ///< synthesize queries that waited on an
                                ///< identical in-flight query's synthesis
  std::size_t rejected = 0;     ///< requests/connections rejected "busy"
  std::size_t upgraded = 0;     ///< degraded cached outcomes recomputed
                                ///< for a better-budgeted requester
};

class synthesis_daemon
{
public:
  explicit synthesis_daemon( daemon_options options );
  ~synthesis_daemon();
  synthesis_daemon( const synthesis_daemon& ) = delete;
  synthesis_daemon& operator=( const synthesis_daemon& ) = delete;

  /// Handles one request line and returns the response line (without the
  /// trailing newline).  This is the daemon's whole brain — the socket
  /// loop is a thin transport around it — and it is exposed so tests can
  /// drive the daemon without a socket.  Thread-safe.
  std::string handle_request( const std::string& line );

  /// Binds the socket and starts accepting connections on a background
  /// thread; returns once the socket is listening.  Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();

  /// Stops accepting, wakes the accept loop, and joins every connection
  /// thread.  Idempotent; also run by the destructor.
  void stop();

  /// True once a `shutdown` request was received (the CLI uses this to
  /// exit its serve loop).
  [[nodiscard]] bool shutdown_requested() const;

  [[nodiscard]] daemon_stats stats() const;
  /// Currently admitted (owner) syntheses — a gauge, not a counter; also
  /// reported as `"inflight"` by the stats command so clients can probe
  /// saturation.
  [[nodiscard]] std::size_t inflight() const;
  /// Workers of the shared synthesis pool (after defaulting).
  [[nodiscard]] unsigned num_threads() const;
  [[nodiscard]] std::shared_ptr<artifact_store> store() const { return store_; }

private:
  struct design_slot;

  design_slot& context_for( const std::string& design, unsigned bitwidth );
  void count( std::size_t daemon_stats::*counter );
  std::string handle_synthesize( const std::map<std::string, std::string>& fields );
  void accept_loop();
  void handle_connection( int fd );
  bool send_all( int fd, const std::string& data );

  daemon_options options_;
  std::shared_ptr<artifact_store> store_; ///< nullptr when store_root is empty
  std::unique_ptr<thread_pool> pool_;     ///< shared by all in-flight requests
  std::size_t max_inflight_ = 0;          ///< resolved admission cap

  /// Guards the designs_ map (not the slots) and stats_; held only briefly.
  /// Lock order: a request takes its design slot, releases it, then holds
  /// its outcome slot (in the design's cache) while the flow's pool tasks
  /// take artifact slots; artifact code never takes an outcome slot.
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<design_slot>> designs_;
  daemon_stats stats_;
  std::atomic<std::size_t> inflight_{ 0 }; ///< admitted owner syntheses

  std::atomic<bool> stopping_{ false };
  std::atomic<bool> shutdown_requested_{ false };
  int listen_fd_ = -1;
  std::mutex stop_mutex_; ///< makes stop() idempotent without holding mutex_
  std::thread accept_thread_;

  /// Reaped, capped connection pool: each slot's `done` flag is set by the
  /// connection thread as its last action, and the accept loop joins and
  /// erases finished slots before admitting the next connection, so the
  /// daemon's thread count is bounded by live connections instead of
  /// growing with every connection ever accepted.
  struct connection_slot
  {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex conn_mutex_; ///< guards connections_
  std::list<connection_slot> connections_;
};

/// Parses one flat JSON object (string / number / bool / null values —
/// no nesting) into key → value text, with string escapes decoded.
/// Throws std::runtime_error on malformed input, including trailing
/// garbage after the closing '}'.
std::map<std::string, std::string> parse_flat_json( const std::string& line );

/// JSON string escaping for response assembly (and the client CLI).
std::string json_escape( const std::string& s );

} // namespace qsyn::store
