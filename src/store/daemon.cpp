#include "daemon.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "../common/thread_pool.hpp"
#include "../common/timer.hpp"
#include "../core/dse.hpp" // dse_label
#include "../core/task_graph.hpp"
#include "../synth/lut_map.hpp"
#include "../verilog/elaborator.hpp"

namespace qsyn::store
{

// --- flat JSON ---------------------------------------------------------------

std::string json_escape( const std::string& s )
{
  std::string out;
  out.reserve( s.size() + 2 );
  for ( const char c : s )
  {
    switch ( c )
    {
    case '"':
      out += "\\\"";
      break;
    case '\\':
      out += "\\\\";
      break;
    case '\n':
      out += "\\n";
      break;
    case '\r':
      out += "\\r";
      break;
    case '\t':
      out += "\\t";
      break;
    default:
      if ( static_cast<unsigned char>( c ) < 0x20u )
      {
        char buf[8];
        std::snprintf( buf, sizeof buf, "\\u%04x", c );
        out += buf;
      }
      else
      {
        out += c;
      }
    }
  }
  return out;
}

namespace
{

void skip_ws( const std::string& s, std::size_t& i )
{
  while ( i < s.size() && ( s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n' ) )
  {
    ++i;
  }
}

std::string parse_json_string( const std::string& s, std::size_t& i )
{
  if ( i >= s.size() || s[i] != '"' )
  {
    throw std::runtime_error( "json: expected string" );
  }
  ++i;
  std::string out;
  while ( true )
  {
    if ( i >= s.size() )
    {
      throw std::runtime_error( "json: unterminated string" );
    }
    const char c = s[i++];
    if ( c == '"' )
    {
      return out;
    }
    if ( c != '\\' )
    {
      out += c;
      continue;
    }
    if ( i >= s.size() )
    {
      throw std::runtime_error( "json: dangling escape" );
    }
    const char e = s[i++];
    switch ( e )
    {
    case '"':
    case '\\':
    case '/':
      out += e;
      break;
    case 'n':
      out += '\n';
      break;
    case 't':
      out += '\t';
      break;
    case 'r':
      out += '\r';
      break;
    case 'b':
      out += '\b';
      break;
    case 'f':
      out += '\f';
      break;
    case 'u':
    {
      if ( i + 4 > s.size() )
      {
        throw std::runtime_error( "json: truncated \\u escape" );
      }
      unsigned cp = 0;
      for ( int k = 0; k < 4; ++k )
      {
        const char h = s[i++];
        cp <<= 4;
        if ( h >= '0' && h <= '9' )
        {
          cp |= static_cast<unsigned>( h - '0' );
        }
        else if ( h >= 'a' && h <= 'f' )
        {
          cp |= static_cast<unsigned>( h - 'a' + 10 );
        }
        else if ( h >= 'A' && h <= 'F' )
        {
          cp |= static_cast<unsigned>( h - 'A' + 10 );
        }
        else
        {
          throw std::runtime_error( "json: bad \\u escape" );
        }
      }
      // Basic-plane UTF-8 encoding (surrogate pairs are rejected — the
      // protocol's field values are ASCII identifiers and numbers).
      if ( cp >= 0xd800u && cp <= 0xdfffu )
      {
        throw std::runtime_error( "json: surrogate escapes unsupported" );
      }
      if ( cp < 0x80u )
      {
        out += static_cast<char>( cp );
      }
      else if ( cp < 0x800u )
      {
        out += static_cast<char>( 0xc0u | ( cp >> 6 ) );
        out += static_cast<char>( 0x80u | ( cp & 0x3fu ) );
      }
      else
      {
        out += static_cast<char>( 0xe0u | ( cp >> 12 ) );
        out += static_cast<char>( 0x80u | ( ( cp >> 6 ) & 0x3fu ) );
        out += static_cast<char>( 0x80u | ( cp & 0x3fu ) );
      }
      break;
    }
    default:
      throw std::runtime_error( "json: unknown escape" );
    }
  }
}

} // namespace

namespace
{

/// Only trailing whitespace may follow the object's closing '}' — a
/// request like `{"cmd":"ping"} {"cmd":"shutdown"}` is one malformed line,
/// not two commands.
void reject_trailing_garbage( const std::string& line, std::size_t i )
{
  skip_ws( line, i );
  if ( i != line.size() )
  {
    throw std::runtime_error( "json: trailing garbage after object" );
  }
}

} // namespace

std::map<std::string, std::string> parse_flat_json( const std::string& line )
{
  std::map<std::string, std::string> fields;
  std::size_t i = 0;
  skip_ws( line, i );
  if ( i >= line.size() || line[i] != '{' )
  {
    throw std::runtime_error( "json: expected object" );
  }
  ++i;
  skip_ws( line, i );
  if ( i < line.size() && line[i] == '}' )
  {
    reject_trailing_garbage( line, i + 1 );
    return fields;
  }
  while ( true )
  {
    skip_ws( line, i );
    const auto key = parse_json_string( line, i );
    skip_ws( line, i );
    if ( i >= line.size() || line[i] != ':' )
    {
      throw std::runtime_error( "json: expected ':' after key" );
    }
    ++i;
    skip_ws( line, i );
    if ( i >= line.size() )
    {
      throw std::runtime_error( "json: missing value" );
    }
    std::string value;
    if ( line[i] == '"' )
    {
      value = parse_json_string( line, i );
    }
    else
    {
      // number / true / false / null — everything up to the next
      // separator, validated as a bare token
      const auto start = i;
      while ( i < line.size() && line[i] != ',' && line[i] != '}' && line[i] != ' ' &&
              line[i] != '\t' )
      {
        if ( line[i] == '{' || line[i] == '[' )
        {
          throw std::runtime_error( "json: nested values unsupported" );
        }
        ++i;
      }
      value = line.substr( start, i - start );
      if ( value.empty() )
      {
        throw std::runtime_error( "json: empty value" );
      }
    }
    fields[key] = value;
    skip_ws( line, i );
    if ( i >= line.size() )
    {
      throw std::runtime_error( "json: unterminated object" );
    }
    if ( line[i] == ',' )
    {
      ++i;
      continue;
    }
    if ( line[i] == '}' )
    {
      reject_trailing_garbage( line, i + 1 );
      return fields;
    }
    throw std::runtime_error( "json: expected ',' or '}'" );
  }
}

// --- request helpers ---------------------------------------------------------

namespace
{

std::string field_or( const std::map<std::string, std::string>& fields, const std::string& key,
                      const std::string& fallback )
{
  const auto it = fields.find( key );
  return it == fields.end() ? fallback : it->second;
}

unsigned uint_field( const std::map<std::string, std::string>& fields, const std::string& key,
                     unsigned fallback )
{
  const auto it = fields.find( key );
  if ( it == fields.end() )
  {
    return fallback;
  }
  // Digits only: std::stoull skips leading whitespace and accepts a sign,
  // so "-1" would silently wrap to 2^64 - 1.
  const auto& text = it->second;
  const bool digit_first = !text.empty() && text[0] >= '0' && text[0] <= '9';
  std::size_t pos = 0;
  const auto value = digit_first ? std::stoull( text, &pos ) : 0u;
  if ( !digit_first || pos != text.size() || value > 0xffffffffull )
  {
    throw std::runtime_error( "field '" + key + "' is not an unsigned integer" );
  }
  return static_cast<unsigned>( value );
}

double double_field( const std::map<std::string, std::string>& fields, const std::string& key,
                     double fallback )
{
  const auto it = fields.find( key );
  if ( it == fields.end() )
  {
    return fallback;
  }
  std::size_t pos = 0;
  const auto value = std::stod( it->second, &pos );
  if ( pos != it->second.size() || !std::isfinite( value ) || value < 0.0 )
  {
    throw std::runtime_error( "field '" + key + "' is not a finite non-negative number" );
  }
  return value;
}

std::string number_json( double v )
{
  char buf[32];
  std::snprintf( buf, sizeof buf, "%.6f", v );
  return buf;
}

/// Throws on a field outside the documented synthesize request set, so a
/// misspelled or retired field is an error instead of being dropped.
void check_synthesize_fields( const std::map<std::string, std::string>& fields )
{
  static const std::set<std::string> known = { "cmd",      "design", "bitwidth", "flow",
                                                "rounds",   "esop_p", "exorcism", "cleanup",
                                                "cut_size", "verify", "deadline" };
  for ( const auto& [key, value] : fields )
  {
    if ( !known.count( key ) )
    {
      throw std::runtime_error( "unknown synthesize field '" + key + "'" );
    }
  }
}

flow_params params_from_fields( const std::map<std::string, std::string>& fields )
{
  flow_params params;
  const auto flow = field_or( fields, "flow", "hierarchical" );
  if ( flow == "functional" )
  {
    params.kind = flow_kind::functional;
  }
  else if ( flow == "esop" )
  {
    params.kind = flow_kind::esop_based;
  }
  else if ( flow == "hierarchical" )
  {
    params.kind = flow_kind::hierarchical;
  }
  else
  {
    throw std::runtime_error( "unknown flow '" + flow + "'" );
  }
  params.optimization_rounds = uint_field( fields, "rounds", params.optimization_rounds );
  params.esop_p = uint_field( fields, "esop_p", params.esop_p );
  params.run_exorcism = uint_field( fields, "exorcism", params.run_exorcism ? 1u : 0u ) != 0u;
  params.cut_size = uint_field( fields, "cut_size", params.cut_size );
  if ( params.cut_size < 2u || params.cut_size > lut_map_params::max_cut_size )
  {
    throw std::runtime_error( "field 'cut_size' must be in [2, " +
                              std::to_string( lut_map_params::max_cut_size ) + "]" );
  }
  const auto cleanup = field_or( fields, "cleanup", "keep_garbage" );
  if ( cleanup == "keep_garbage" )
  {
    params.cleanup = cleanup_strategy::keep_garbage;
  }
  else if ( cleanup == "bennett" )
  {
    params.cleanup = cleanup_strategy::bennett;
  }
  else
  {
    throw std::runtime_error( "unknown cleanup '" + cleanup + "'" );
  }
  const auto verify = field_or( fields, "verify", "sampled" );
  const auto mode = verify_mode_from_name( verify );
  if ( !mode )
  {
    throw std::runtime_error( "unknown verify mode '" + verify + "'" );
  }
  params.verification = *mode;
  params.verify = *mode != verify_mode::none;
  params.limits.deadline_seconds = double_field( fields, "deadline", 0.0 );
  return params;
}

std::string synthesize_response( const flow_params& params, const flow_result& result,
                                 bool from_cache, double seconds )
{
  std::string out = "{\"ok\":true";
  out += ",\"label\":\"" + json_escape( dse_label( params ) ) + "\"";
  out += ",\"from_cache\":" + std::string( from_cache ? "true" : "false" );
  out += ",\"qubits\":" + std::to_string( result.costs.qubits );
  out += ",\"t_count\":" + std::to_string( result.costs.t_count );
  out += ",\"gates\":" + std::to_string( result.costs.gates );
  out += ",\"toffoli_gates\":" + std::to_string( result.costs.toffoli_gates );
  out += ",\"depth\":" + std::to_string( result.costs.depth );
  out += ",\"status\":\"" + flow_status_name( result.status ) + "\"";
  if ( !result.status_detail.empty() )
  {
    out += ",\"status_detail\":\"" + json_escape( result.status_detail ) + "\"";
  }
  out += ",\"verified\":" + std::string( result.verified ? "true" : "false" );
  out += ",\"verified_with\":\"" + verify_mode_name( result.verified_with ) + "\"";
  if ( result.esop_terms != 0u )
  {
    out += ",\"esop_terms\":" + std::to_string( result.esop_terms );
  }
  if ( result.xmg_maj != 0u || result.xmg_xor != 0u )
  {
    out += ",\"xmg_maj\":" + std::to_string( result.xmg_maj );
    out += ",\"xmg_xor\":" + std::to_string( result.xmg_xor );
  }
  out += ",\"runtime_seconds\":" + number_json( result.runtime_seconds );
  out += ",\"seconds\":" + number_json( seconds );
  out += "}";
  return out;
}

std::string error_response( const std::string& message, const std::string& code = {} )
{
  std::string out = "{\"ok\":false,\"error\":\"" + json_escape( message ) + "\"";
  if ( !code.empty() )
  {
    out += ",\"code\":\"" + code + "\"";
  }
  out += "}";
  return out;
}

} // namespace

// --- daemon core -------------------------------------------------------------

/// Everything the daemon keeps alive for one (design, bitwidth): `mutex`
/// is held while the design elaborates, and `ready` publishes `aig` once
/// elaboration succeeded (a failed elaboration leaves the slot empty for
/// the next request).  `cache` holds the stage artifacts, the full flow
/// outcomes and the persistent SAT engine, and is attached to the shared
/// store.
struct synthesis_daemon::design_slot
{
  std::mutex mutex;
  std::atomic<bool> ready{ false };
  aig_network aig{ 0 };
  flow_artifact_cache cache;
};

synthesis_daemon::synthesis_daemon( daemon_options options ) : options_( std::move( options ) )
{
  if ( !options_.store_root.empty() )
  {
    store_ = std::make_shared<artifact_store>( options_.store_root );
  }
  const unsigned workers =
      options_.num_threads == 0u ? thread_pool::default_num_threads() : options_.num_threads;
  pool_ = std::make_unique<thread_pool>( workers );
  max_inflight_ = options_.max_inflight != 0u
                      ? options_.max_inflight
                      : std::max<std::size_t>( 4u, 2u * static_cast<std::size_t>( workers ) );
}

synthesis_daemon::~synthesis_daemon()
{
  stop();
}

void synthesis_daemon::count( std::size_t daemon_stats::*counter )
{
  std::lock_guard<std::mutex> lock( mutex_ );
  ++( stats_.*counter );
}

synthesis_daemon::design_slot& synthesis_daemon::context_for( const std::string& design,
                                                              unsigned bitwidth )
{
  reciprocal_design kind;
  if ( design == "intdiv" )
  {
    kind = reciprocal_design::intdiv;
  }
  else if ( design == "newton" )
  {
    kind = reciprocal_design::newton;
  }
  else
  {
    throw std::runtime_error( "unknown design '" + design + "' (intdiv|newton)" );
  }
  design_slot* slot = nullptr;
  {
    std::lock_guard<std::mutex> lock( mutex_ );
    auto& entry = designs_[design + ":" + std::to_string( bitwidth )];
    if ( !entry )
    {
      entry = std::make_unique<design_slot>();
    }
    slot = entry.get();
  }
  if ( !slot->ready.load() )
  {
    // Elaboration holds only this design's slot: requests for other
    // designs, memory hits included, go ahead.
    std::lock_guard<std::mutex> lock( slot->mutex );
    if ( !slot->ready.load() )
    {
      slot->aig = verilog::elaborate_verilog( reciprocal_verilog( kind, bitwidth ) ).aig;
      slot->cache.attach_store( store_ );
      slot->ready.store( true );
    }
  }
  return *slot;
}

std::string synthesis_daemon::handle_synthesize( const std::map<std::string, std::string>& fields )
{
  stopwatch watch;
  check_synthesize_fields( fields );
  const auto design = field_or( fields, "design", "" );
  if ( design.empty() )
  {
    throw std::runtime_error( "synthesize needs a 'design' field" );
  }
  const auto bitwidth = uint_field( fields, "bitwidth", 0u );
  if ( bitwidth == 0u )
  {
    throw std::runtime_error( "synthesize needs a nonzero 'bitwidth' field" );
  }
  const auto params = params_from_fields( fields );
  // INTDIV(n) and NEWTON(n) have n inputs and n outputs.
  if ( const auto limit = flow_input_limit_error( bitwidth, bitwidth, params ); !limit.empty() )
  {
    throw std::runtime_error( "field 'bitwidth' is out of range: " + limit );
  }
  if ( bitwidth > max_design_bitwidth )
  {
    throw std::runtime_error( "field 'bitwidth' is out of range: " + std::to_string( bitwidth ) +
                              " inputs exceed the " + std::to_string( max_design_bitwidth ) +
                              "-input limit of the largest Table IV design" );
  }
  auto& ctx = context_for( design, bitwidth );

  // Runs the flow on the shared pool: the staged flow becomes a little
  // dependency graph (optimize → artifact → tail) that runs alongside every
  // other in-flight request's graph; stage work still coalesces per design
  // through the artifact-cache keys.  Admission comes first: beyond
  // max_inflight_ admitted syntheses the request is rejected immediately,
  // so one huge design cannot absorb every connection thread.  The
  // deadline is armed at admission, so time spent queued behind other
  // requests' tasks consumes this request's budget, and a tail that cannot
  // start before expiry reports `timed_out` instead of running late.
  bool rejected = false;
  const auto synthesize = [&] {
    if ( inflight_.fetch_add( 1 ) >= max_inflight_ )
    {
      inflight_.fetch_sub( 1 );
      rejected = true;
      throw std::runtime_error( "synthesis queue full" );
    }
    struct release
    {
      std::atomic<std::size_t>& gauge;
      ~release() { gauge.fetch_sub( 1 ); }
    } admitted{ inflight_ };
    flow_result out;
    const auto stop = deadline::in( params.limits.deadline_seconds );
    task_graph graph;
    const auto ids = add_flow_tasks( graph, ctx.aig, params, ctx.cache, stop, out );
    graph.run( *pool_, stop );
    fill_flow_status_from_graph( graph, ids.tail, out );
    return out;
  };

  // The outcome's cache slot coalesces identical requests: one that finds
  // it held waits, counts as coalesced (never as a result hit), and gets
  // the holder's answer.  A memory or store hit skips synthesis AND
  // verification — the cached entry carries the verdict.
  flow_artifact_cache::lookup how;
  std::shared_ptr<const flow_result> result;
  try
  {
    result = ctx.cache.outcome( ctx.aig, params, synthesize, how );
  }
  catch ( ... )
  {
    if ( how.waited )
    {
      count( &daemon_stats::coalesced );
    }
    if ( !rejected )
    {
      throw;
    }
    count( &daemon_stats::rejected );
    return error_response(
        "synthesis queue full (" + std::to_string( max_inflight_ ) + " in flight)", "busy" );
  }
  const bool synthesized = how.served == flow_artifact_cache::tier::computed;
  {
    std::lock_guard<std::mutex> lock( mutex_ );
    stats_.coalesced += how.waited ? 1u : 0u;
    stats_.result_hits += !synthesized && !how.waited ? 1u : 0u;
    stats_.synthesized += synthesized ? 1u : 0u;
    stats_.upgraded += synthesized && how.upgraded ? 1u : 0u;
  }
  return synthesize_response( params, *result, !synthesized, watch.elapsed_seconds() );
}

std::string synthesis_daemon::handle_request( const std::string& line )
{
  count( &daemon_stats::requests );
  try
  {
    const auto fields = parse_flat_json( line );
    const auto cmd = field_or( fields, "cmd", "" );
    if ( cmd == "ping" )
    {
      return "{\"ok\":true,\"pong\":true}";
    }
    if ( cmd == "shutdown" )
    {
      shutdown_requested_.store( true );
      return "{\"ok\":true,\"stopping\":true}";
    }
    if ( cmd == "stats" )
    {
      daemon_stats d;
      std::size_t num_designs = 0;
      cache_stats artifacts;
      {
        std::lock_guard<std::mutex> lock( mutex_ );
        d = stats_;
        for ( const auto& [name, slot] : designs_ )
        {
          if ( !slot->ready.load() )
          {
            continue; // still elaborating, or its elaboration failed
          }
          ++num_designs;
          const auto s = slot->cache.stats();
          artifacts.hits += s.hits;
          artifacts.misses += s.misses;
          artifacts.store_hits += s.store_hits;
        }
      }
      std::string out = "{\"ok\":true";
      out += ",\"requests\":" + std::to_string( d.requests );
      out += ",\"errors\":" + std::to_string( d.errors );
      out += ",\"synthesized\":" + std::to_string( d.synthesized );
      out += ",\"result_hits\":" + std::to_string( d.result_hits );
      out += ",\"coalesced\":" + std::to_string( d.coalesced );
      out += ",\"rejected\":" + std::to_string( d.rejected );
      out += ",\"upgraded\":" + std::to_string( d.upgraded );
      out += ",\"inflight\":" + std::to_string( inflight_.load() );
      out += ",\"threads\":" + std::to_string( num_threads() );
      out += ",\"designs\":" + std::to_string( num_designs );
      out += ",\"artifact_hits\":" + std::to_string( artifacts.hits );
      out += ",\"artifact_store_hits\":" + std::to_string( artifacts.store_hits );
      out += ",\"artifact_misses\":" + std::to_string( artifacts.misses );
      if ( store_ )
      {
        const auto s = store_->stats();
        out += ",\"store_hits\":" + std::to_string( s.hits );
        out += ",\"store_misses\":" + std::to_string( s.misses );
        out += ",\"store_writes\":" + std::to_string( s.writes );
        out += ",\"store_corrupt\":" + std::to_string( s.corrupt_entries );
      }
      out += "}";
      return out;
    }
    if ( cmd == "synthesize" )
    {
      return handle_synthesize( fields );
    }
    throw std::runtime_error( cmd.empty() ? "missing 'cmd' field" : "unknown cmd '" + cmd + "'" );
  }
  catch ( const std::exception& e )
  {
    count( &daemon_stats::errors );
    return error_response( e.what() );
  }
}

bool synthesis_daemon::shutdown_requested() const
{
  return shutdown_requested_.load();
}

daemon_stats synthesis_daemon::stats() const
{
  std::lock_guard<std::mutex> lock( mutex_ );
  return stats_;
}

std::size_t synthesis_daemon::inflight() const
{
  return inflight_.load();
}

unsigned synthesis_daemon::num_threads() const
{
  return pool_->num_workers() == 0u ? 1u : pool_->num_workers();
}

// --- socket transport --------------------------------------------------------

void synthesis_daemon::start()
{
  if ( options_.socket_path.empty() )
  {
    throw std::runtime_error( "daemon: no socket path configured" );
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if ( options_.socket_path.size() >= sizeof( addr.sun_path ) )
  {
    throw std::runtime_error( "daemon: socket path too long" );
  }
  std::strncpy( addr.sun_path, options_.socket_path.c_str(), sizeof( addr.sun_path ) - 1 );

  listen_fd_ = ::socket( AF_UNIX, SOCK_STREAM, 0 );
  if ( listen_fd_ < 0 )
  {
    throw std::runtime_error( "daemon: socket() failed" );
  }
  ::unlink( options_.socket_path.c_str() ); // stale socket from a dead daemon
  if ( ::bind( listen_fd_, reinterpret_cast<const sockaddr*>( &addr ), sizeof( addr ) ) != 0 ||
       ::listen( listen_fd_, 16 ) != 0 )
  {
    ::close( listen_fd_ );
    listen_fd_ = -1;
    throw std::runtime_error( "daemon: cannot listen on '" + options_.socket_path + "'" );
  }
  accept_thread_ = std::thread( &synthesis_daemon::accept_loop, this );
}

void synthesis_daemon::accept_loop()
{
  while ( !stopping_.load() )
  {
    const int fd = ::accept( listen_fd_, nullptr, nullptr );
    if ( fd < 0 )
    {
      if ( stopping_.load() || errno != EINTR )
      {
        break;
      }
      continue;
    }
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock( conn_mutex_ );
      // Reap finished connections first: their threads set `done` as the
      // last action, so join() returns immediately and the slot count
      // tracks LIVE connections, not connections ever accepted.
      for ( auto it = connections_.begin(); it != connections_.end(); )
      {
        if ( it->done->load() )
        {
          it->thread.join();
          it = connections_.erase( it );
        }
        else
        {
          ++it;
        }
      }
      if ( connections_.size() < options_.max_connections )
      {
        auto done = std::make_shared<std::atomic<bool>>( false );
        connection_slot slot;
        slot.done = done;
        slot.thread = std::thread( [this, fd, done] {
          handle_connection( fd );
          done->store( true );
        } );
        connections_.push_back( std::move( slot ) );
        admitted = true;
      }
    }
    if ( !admitted )
    {
      count( &daemon_stats::rejected );
      send_all( fd, error_response( "too many connections (" +
                                        std::to_string( options_.max_connections ) + " open)",
                                    "busy" ) +
                        "\n" );
      ::close( fd );
    }
  }
}

/// Sends all of `data`, retrying short writes and EINTR; MSG_NOSIGNAL so
/// a client that hung up yields an error return instead of SIGPIPE.
bool synthesis_daemon::send_all( int fd, const std::string& data )
{
  std::size_t sent = 0;
  while ( sent < data.size() )
  {
    const auto m = ::send( fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL );
    if ( m < 0 && errno == EINTR )
    {
      continue;
    }
    if ( m <= 0 )
    {
      return false;
    }
    sent += static_cast<std::size_t>( m );
  }
  return true;
}

void synthesis_daemon::handle_connection( int fd )
{
  std::string buffer;
  char chunk[4096];
  while ( true )
  {
    const auto n = ::recv( fd, chunk, sizeof chunk, 0 );
    if ( n < 0 && errno == EINTR )
    {
      continue; // interrupted by a signal, not a hangup
    }
    if ( n <= 0 )
    {
      break;
    }
    buffer.append( chunk, static_cast<std::size_t>( n ) );
    std::size_t pos;
    while ( ( pos = buffer.find( '\n' ) ) != std::string::npos )
    {
      const auto line = buffer.substr( 0, pos );
      buffer.erase( 0, pos + 1 );
      if ( line.empty() )
      {
        continue;
      }
      const auto response = handle_request( line ) + "\n";
      if ( !send_all( fd, response ) )
      {
        ::close( fd );
        return;
      }
    }
    // A client streaming bytes without ever sending a newline would grow
    // `buffer` until the daemon OOMs; answer once and drop the connection.
    if ( buffer.size() > options_.max_line_bytes )
    {
      count( &daemon_stats::errors );
      send_all( fd, error_response( "request line exceeds " +
                                        std::to_string( options_.max_line_bytes ) + " bytes",
                                    "line_too_long" ) +
                        "\n" );
      break;
    }
  }
  ::close( fd );
}

void synthesis_daemon::stop()
{
  std::lock_guard<std::mutex> stop_lock( stop_mutex_ );
  stopping_.store( true );
  if ( listen_fd_ >= 0 )
  {
    ::shutdown( listen_fd_, SHUT_RDWR );
  }
  if ( accept_thread_.joinable() )
  {
    accept_thread_.join();
  }
  if ( listen_fd_ >= 0 )
  {
    ::close( listen_fd_ );
    listen_fd_ = -1;
    ::unlink( options_.socket_path.c_str() );
  }
  std::list<connection_slot> connections;
  {
    std::lock_guard<std::mutex> lock( conn_mutex_ );
    connections.swap( connections_ );
  }
  for ( auto& slot : connections )
  {
    slot.thread.join();
  }
}

} // namespace qsyn::store
