/// Synthesis daemon: protocol parsing, request handling, result caching
/// (memory + store), and the socket transport.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fault_injection.hpp"
#include "store/daemon.hpp"

using namespace qsyn;
using store::parse_flat_json;
using store::synthesis_daemon;

namespace
{

struct temp_dir
{
  std::string path;
  temp_dir()
  {
    char pattern[] = "/tmp/qsyn-daemon-test-XXXXXX";
    path = ::mkdtemp( pattern );
  }
  ~temp_dir()
  {
    std::error_code ec;
    std::filesystem::remove_all( path, ec );
  }
};

/// RAII disarm so an assertion failure cannot leak an armed site into
/// later tests.
struct fault_guard
{
  ~fault_guard() { fault_injection::disarm_all(); }
};

bool contains( const std::string& haystack, const std::string& needle )
{
  return haystack.find( needle ) != std::string::npos;
}

/// One-shot client: connect, send `line`, read one response line.
std::string roundtrip( const std::string& socket_path, const std::string& line )
{
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy( addr.sun_path, socket_path.c_str(), sizeof( addr.sun_path ) - 1 );
  const int fd = ::socket( AF_UNIX, SOCK_STREAM, 0 );
  EXPECT_GE( fd, 0 );
  EXPECT_EQ( ::connect( fd, reinterpret_cast<const sockaddr*>( &addr ), sizeof( addr ) ), 0 );
  const auto request = line + "\n";
  // MSG_NOSIGNAL and no assert on the result: the daemon may answer (e.g.
  // "busy") and close before this send runs — the pre-close response is
  // still readable below, and a plain send would raise SIGPIPE.
  ::send( fd, request.data(), request.size(), MSG_NOSIGNAL );
  std::string response;
  char chunk[4096];
  while ( response.find( '\n' ) == std::string::npos )
  {
    const auto n = ::recv( fd, chunk, sizeof chunk, 0 );
    if ( n <= 0 )
    {
      break;
    }
    response.append( chunk, static_cast<std::size_t>( n ) );
  }
  ::close( fd );
  const auto eol = response.find( '\n' );
  return eol == std::string::npos ? response : response.substr( 0, eol );
}

} // namespace

// --- flat JSON ---------------------------------------------------------------

TEST( daemon_json, parses_flat_objects )
{
  const auto fields = parse_flat_json(
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":6,"deadline":1.5,"fast":true})" );
  EXPECT_EQ( fields.at( "cmd" ), "synthesize" );
  EXPECT_EQ( fields.at( "design" ), "intdiv" );
  EXPECT_EQ( fields.at( "bitwidth" ), "6" );
  EXPECT_EQ( fields.at( "deadline" ), "1.5" );
  EXPECT_EQ( fields.at( "fast" ), "true" );
  EXPECT_TRUE( parse_flat_json( "{}" ).empty() );
  EXPECT_TRUE( parse_flat_json( "  { }  " ).empty() );
}

TEST( daemon_json, decodes_string_escapes )
{
  const auto fields =
      parse_flat_json( R"({"a":"line\nbreak","b":"quote\"slash\\","c":"Aé"})" );
  EXPECT_EQ( fields.at( "a" ), "line\nbreak" );
  EXPECT_EQ( fields.at( "b" ), "quote\"slash\\" );
  EXPECT_EQ( fields.at( "c" ), "A\xc3\xa9" );
}

TEST( daemon_json, rejects_malformed_input )
{
  for ( const auto* bad : { "", "null", "[1,2]", "{", R"({"a")", R"({"a":})", R"({"a":1)",
                            R"({"a":{"nested":1}})", R"({"a":"unterminated)",
                            R"({"a":1 "b":2})" } )
  {
    EXPECT_THROW( parse_flat_json( bad ), std::runtime_error ) << bad;
  }
}

TEST( daemon_json, rejects_trailing_garbage_after_object )
{
  for ( const auto* bad : { R"({"a":1}garbage)", R"({"a":1} {"b":2})", R"({} x)",
                            R"({"cmd":"ping"},)", R"({}})" } )
  {
    EXPECT_THROW( parse_flat_json( bad ), std::runtime_error ) << bad;
  }
  // Trailing whitespace is still fine.
  EXPECT_EQ( parse_flat_json( "{\"a\":1} \t " ).at( "a" ), "1" );
}

// --- request handling (no socket) --------------------------------------------

TEST( daemon, ping_stats_and_errors )
{
  synthesis_daemon daemon( {} );
  EXPECT_EQ( daemon.handle_request( R"({"cmd":"ping"})" ), R"({"ok":true,"pong":true})" );

  // Malformed requests answer with an error instead of killing anything.
  EXPECT_TRUE( contains( daemon.handle_request( "garbage" ), "\"ok\":false" ) );
  EXPECT_TRUE( contains( daemon.handle_request( R"({"cmd":"no-such"})" ), "\"ok\":false" ) );
  EXPECT_TRUE( contains( daemon.handle_request( R"({"design":"intdiv"})" ), "missing 'cmd'" ) );
  EXPECT_TRUE( contains(
      daemon.handle_request( R"({"cmd":"synthesize","design":"intdiv"})" ), "bitwidth" ) );
  EXPECT_TRUE( contains(
      daemon.handle_request(
          R"({"cmd":"synthesize","design":"pentium","bitwidth":4})" ),
      "unknown design" ) );

  const auto stats = daemon.handle_request( R"({"cmd":"stats"})" );
  EXPECT_TRUE( contains( stats, "\"ok\":true" ) );
  EXPECT_TRUE( contains( stats, "\"errors\":5" ) );
}

TEST( daemon, out_of_range_cut_size_is_rejected_before_elaboration )
{
  synthesis_daemon daemon( {} );
  // An unknown design would fail in elaboration; the cut_size error proves
  // the parameters are checked first.
  for ( const auto* request :
        { R"({"cmd":"synthesize","design":"pentium","bitwidth":4,"cut_size":20})",
          R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"cut_size":7})",
          R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"cut_size":1})" } )
  {
    const auto response = daemon.handle_request( request );
    EXPECT_TRUE( contains( response, "\"ok\":false" ) ) << response;
    EXPECT_TRUE( contains( response, "cut_size" ) ) << response;
  }
  EXPECT_EQ( daemon.stats().errors, 3u );
  EXPECT_EQ( daemon.stats().synthesized, 0u );
}

TEST( daemon, cleanup_other_than_keep_garbage_or_bennett_is_malformed )
{
  synthesis_daemon daemon( {} );
  // "eager" names a deleted strategy: a request for it is malformed too.
  for ( const std::string cleanup : { "eager", "none", "" } )
  {
    const auto response = daemon.handle_request(
        R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"hierarchical","cleanup":")" +
        cleanup + R"("})" );
    EXPECT_TRUE( contains( response, "\"ok\":false" ) ) << response;
    EXPECT_TRUE( contains( response, "unknown cleanup '" + cleanup + "'" ) ) << response;
  }
  EXPECT_EQ( daemon.stats().errors, 3u );
  EXPECT_EQ( daemon.stats().synthesized, 0u );
}

TEST( daemon, explicit_table_flow_over_the_input_limit_is_rejected_before_elaboration )
{
  synthesis_daemon daemon( {} );
  // An unknown design would fail in elaboration; the bitwidth error proves
  // the limit is checked first.
  for ( const auto* request :
        { R"({"cmd":"synthesize","design":"pentium","bitwidth":21,"flow":"esop"})",
          R"({"cmd":"synthesize","design":"newton","bitwidth":64,"flow":"esop"})",
          R"({"cmd":"synthesize","design":"intdiv","bitwidth":24,"flow":"functional"})" } )
  {
    const auto response = daemon.handle_request( request );
    EXPECT_TRUE( contains( response, "\"ok\":false" ) ) << response;
    EXPECT_TRUE( contains( response, "bitwidth" ) ) << response;
    EXPECT_TRUE( contains( response, "20-input limit" ) ) << response;
  }
  EXPECT_EQ( daemon.stats().errors, 3u );
  EXPECT_EQ( daemon.stats().synthesized, 0u );
}

TEST( daemon, hierarchical_bitwidth_above_table_iv_scale_is_rejected_before_elaboration )
{
  synthesis_daemon daemon( {} );
  // Elaborating NEWTON(4096) would take minutes; the bitwidth error proves
  // the limit is checked first.
  for ( const auto* request : { R"({"cmd":"synthesize","design":"newton","bitwidth":4096})",
                                R"({"cmd":"synthesize","design":"intdiv","bitwidth":129,"flow":"hierarchical"})" } )
  {
    const auto response = daemon.handle_request( request );
    EXPECT_TRUE( contains( response, "\"ok\":false" ) ) << response;
    EXPECT_TRUE( contains( response, "bitwidth" ) ) << response;
    EXPECT_TRUE( contains( response, "128-input limit" ) ) << response;
  }
  EXPECT_EQ( daemon.stats().errors, 2u );
  EXPECT_EQ( daemon.stats().synthesized, 0u );
}

TEST( daemon, negative_integer_fields_are_rejected )
{
  synthesis_daemon daemon( {} );
  // std::stoull("-1") wraps to 2^64-1 instead of failing: a negative count
  // must be an error, not an effectively unlimited one.
  for ( const auto* field : { "rounds", "esop_p", "exorcism", "cut_size", "bitwidth" } )
  {
    const auto response = daemon.handle_request(
        std::string( R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop",")" ) +
        field + R"(":-1})" );
    EXPECT_TRUE( contains( response, "\"ok\":false" ) ) << response;
    EXPECT_TRUE( contains( response, std::string( "field '" ) + field +
                                         "' is not an unsigned integer" ) )
        << response;
  }
  EXPECT_EQ( daemon.stats().errors, 5u );
  EXPECT_EQ( daemon.stats().synthesized, 0u );
}

TEST( daemon, unknown_and_retired_fields_are_rejected )
{
  synthesis_daemon daemon( {} );
  // A misspelled deadline used to run unlimited, and the retired count
  // budgets used to cap work: each is an error naming the field now.
  for ( const auto* field : { "dedline", "sat_conflicts", "sat_propagations", "exorcism_pairs" } )
  {
    const auto response = daemon.handle_request(
        std::string( R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop",")" ) +
        field + R"(":2})" );
    EXPECT_TRUE( contains( response, "\"ok\":false" ) ) << response;
    EXPECT_TRUE( contains( response, std::string( "unknown synthesize field '" ) + field + "'" ) )
        << response;
  }
  EXPECT_EQ( daemon.stats().errors, 4u );
  EXPECT_EQ( daemon.stats().synthesized, 0u );
  // Every documented field is accepted.
  const auto full = daemon.handle_request(
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","rounds":2,"esop_p":1,"exorcism":1,"cleanup":"keep_garbage","cut_size":4,"verify":"sampled","deadline":0})" );
  EXPECT_TRUE( contains( full, "\"ok\":true" ) ) << full;
}

TEST( daemon, huge_deadline_means_no_limit_and_non_finite_is_rejected )
{
  synthesis_daemon daemon( {} );
  // A deadline past the clock's range used to overflow into an expiry in
  // the past and time the request out at once.
  const auto huge = daemon.handle_request(
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"hierarchical","deadline":1e300})" );
  EXPECT_TRUE( contains( huge, "\"status\":\"ok\"" ) ) << huge;
  for ( const auto* value : { "nan", "inf" } )
  {
    const auto response = daemon.handle_request(
        std::string( R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"hierarchical","deadline":)" ) +
        value + "}" );
    EXPECT_TRUE( contains( response, "\"ok\":false" ) ) << response;
    EXPECT_TRUE( contains( response, "field 'deadline' is not a finite non-negative number" ) )
        << response;
  }
  EXPECT_EQ( daemon.stats().errors, 2u );
  EXPECT_EQ( daemon.stats().synthesized, 1u );
}

TEST( daemon, repeat_query_is_served_from_the_result_cache )
{
  synthesis_daemon daemon( {} );
  const auto request =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1,"verify":"sampled"})";
  const auto first = daemon.handle_request( request );
  ASSERT_TRUE( contains( first, "\"ok\":true" ) ) << first;
  EXPECT_TRUE( contains( first, "\"from_cache\":false" ) );
  EXPECT_TRUE( contains( first, "\"verified\":true" ) );

  const auto second = daemon.handle_request( request );
  ASSERT_TRUE( contains( second, "\"ok\":true" ) );
  EXPECT_TRUE( contains( second, "\"from_cache\":true" ) );

  // The cached response carries the same result payload.
  const auto strip_timing = []( const std::string& s ) {
    return s.substr( 0, s.find( ",\"runtime_seconds\"" ) );
  };
  EXPECT_EQ( strip_timing( first ).replace( strip_timing( first ).find( "\"from_cache\":false" ),
                                            std::strlen( "\"from_cache\":false" ),
                                            "\"from_cache\":true" ),
             strip_timing( second ) );

  // A different parameterization is its own cache entry.
  const auto other = daemon.handle_request(
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"hierarchical","cleanup":"bennett"})" );
  EXPECT_TRUE( contains( other, "\"from_cache\":false" ) );

  const auto stats = daemon.stats();
  EXPECT_EQ( stats.synthesized, 2u );
  EXPECT_EQ( stats.result_hits, 1u );
}

TEST( daemon, store_backed_daemon_answers_repeat_query_across_instances )
{
  temp_dir dir;
  const auto root = dir.path + "/store";
  const auto request =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":2,"verify":"sat"})";

  std::string first;
  {
    synthesis_daemon daemon( { "", root } );
    first = daemon.handle_request( request );
    ASSERT_TRUE( contains( first, "\"from_cache\":false" ) ) << first;
    EXPECT_TRUE( contains( first, "\"verified\":true" ) );
    EXPECT_TRUE( contains( first, "\"verified_with\":\"sat\"" ) );
  }

  // A brand-new daemon on the same store — the "restarted" server —
  // serves the query from disk without synthesizing or re-verifying.
  synthesis_daemon reborn( { "", root } );
  const auto second = reborn.handle_request( request );
  ASSERT_TRUE( contains( second, "\"ok\":true" ) ) << second;
  EXPECT_TRUE( contains( second, "\"from_cache\":true" ) );
  EXPECT_TRUE( contains( second, "\"verified\":true" ) );
  EXPECT_TRUE( contains( second, "\"verified_with\":\"sat\"" ) );
  EXPECT_EQ( reborn.stats().synthesized, 0u );
  EXPECT_EQ( reborn.stats().result_hits, 1u );

  // Same costs, verbatim.
  const auto payload_of = []( const std::string& s ) {
    const auto from = s.find( "\"qubits\"" );
    const auto to = s.find( ",\"runtime_seconds\"" );
    return s.substr( from, to - from );
  };
  EXPECT_EQ( payload_of( first ), payload_of( second ) );
}

TEST( daemon, concurrent_queries_are_safe )
{
  synthesis_daemon daemon( {} );
  constexpr unsigned num_threads = 6;
  std::vector<std::string> responses( num_threads );
  std::vector<std::thread> threads;
  for ( unsigned t = 0; t < num_threads; ++t )
  {
    threads.emplace_back( [&daemon, &responses, t] {
      // Half hit the same key, half sweep distinct parameterizations.
      const auto p = std::to_string( t % 2u );
      responses[t] = daemon.handle_request(
          R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":)" + p +
          "}" );
    } );
  }
  for ( auto& t : threads )
  {
    t.join();
  }
  for ( const auto& r : responses )
  {
    EXPECT_TRUE( contains( r, "\"ok\":true" ) ) << r;
    EXPECT_TRUE( contains( r, "\"status\":\"ok\"" ) ) << r;
  }
}

TEST( daemon, concurrent_identical_queries_coalesce_into_one_synthesis )
{
  synthesis_daemon daemon( {} );
  constexpr unsigned num_clients = 8;
  const auto request =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":5,"flow":"esop","esop_p":1,"verify":"sampled"})";
  std::vector<std::string> responses( num_clients );
  std::vector<std::thread> clients;
  for ( unsigned t = 0; t < num_clients; ++t )
  {
    clients.emplace_back(
        [&daemon, &responses, t, request] { responses[t] = daemon.handle_request( request ); } );
  }
  for ( auto& t : clients )
  {
    t.join();
  }

  // Whatever the interleaving — true coalescing onto the one in-flight
  // owner, or stragglers served from the result cache it filled — the
  // flow ran exactly once, and everyone got the same payload.
  const auto payload_of = []( const std::string& s ) {
    const auto from = s.find( "\"qubits\"" );
    const auto to = s.find( ",\"runtime_seconds\"" );
    return s.substr( from, to - from );
  };
  for ( const auto& r : responses )
  {
    ASSERT_TRUE( contains( r, "\"ok\":true" ) ) << r;
    EXPECT_TRUE( contains( r, "\"status\":\"ok\"" ) ) << r;
    EXPECT_EQ( payload_of( r ), payload_of( responses[0] ) );
  }
  const auto stats = daemon.stats();
  EXPECT_EQ( stats.requests, num_clients );
  EXPECT_EQ( stats.synthesized, 1u );
  EXPECT_EQ( stats.result_hits + stats.coalesced, num_clients - 1u );
  EXPECT_EQ( daemon.inflight(), 0u );
}

TEST( daemon, degraded_outcome_upgrades_on_better_budgeted_repeat )
{
  synthesis_daemon daemon( {} );
  // The `verify.sat` trip (an expired deadline in the SAT tier) downgrades
  // the first request's proof to sampling: its outcome is cached
  // `degraded` under the finite deadline.
  fault_guard guard;
  fault_injection::arm( "verify.sat", fault_injection::kind::trip, 0, 1 );
  const auto starved =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1,"exorcism":1,"verify":"sat","deadline":3600})";
  const auto first = daemon.handle_request( starved );
  ASSERT_TRUE( contains( first, "\"ok\":true" ) ) << first;
  EXPECT_TRUE( contains( first, "\"status\":\"degraded\"" ) ) << first;

  // An equally starved repeat is a plain cache hit — same degraded verdict.
  const auto repeat = daemon.handle_request( starved );
  EXPECT_TRUE( contains( repeat, "\"from_cache\":true" ) ) << repeat;
  EXPECT_TRUE( contains( repeat, "\"status\":\"degraded\"" ) );

  // An unlimited-budget requester of the same flow must NOT be served the
  // pinned degraded verdict: the daemon recomputes and upgrades the slot.
  const auto unlimited =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1,"exorcism":1,"verify":"sat"})";
  const auto upgraded = daemon.handle_request( unlimited );
  ASSERT_TRUE( contains( upgraded, "\"ok\":true" ) ) << upgraded;
  EXPECT_TRUE( contains( upgraded, "\"from_cache\":false" ) ) << upgraded;
  EXPECT_TRUE( contains( upgraded, "\"status\":\"ok\"" ) ) << upgraded;

  // The upgrade overwrote the cache: both budget classes now hit it.
  EXPECT_TRUE( contains( daemon.handle_request( unlimited ), "\"from_cache\":true" ) );
  const auto after = daemon.handle_request( starved );
  EXPECT_TRUE( contains( after, "\"from_cache\":true" ) );
  EXPECT_TRUE( contains( after, "\"status\":\"ok\"" ) );

  const auto stats = daemon.stats();
  EXPECT_EQ( stats.synthesized, 2u );
  EXPECT_EQ( stats.upgraded, 1u );
  EXPECT_EQ( stats.result_hits, 3u );
}

TEST( daemon, degraded_store_entry_upgrades_across_instances )
{
  temp_dir dir;
  const auto root = dir.path + "/store";
  const auto starved =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1,"exorcism":1,"verify":"sat","deadline":3600})";
  const auto unlimited =
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1,"exorcism":1,"verify":"sat"})";
  fault_guard guard;

  {
    // The `verify.sat` trip leaves a degraded outcome under the finite
    // deadline.
    fault_injection::arm( "verify.sat", fault_injection::kind::trip, 0, 1 );
    synthesis_daemon daemon( { "", root } );
    const auto first = daemon.handle_request( starved );
    ASSERT_TRUE( contains( first, "\"status\":\"degraded\"" ) ) << first;
  }

  // A restarted daemon finds the degraded entry on disk, sees the bigger
  // budget, recomputes, and rewrites the entry upgraded.
  {
    synthesis_daemon reborn( { "", root } );
    const auto upgraded = reborn.handle_request( unlimited );
    ASSERT_TRUE( contains( upgraded, "\"ok\":true" ) ) << upgraded;
    EXPECT_TRUE( contains( upgraded, "\"from_cache\":false" ) );
    EXPECT_TRUE( contains( upgraded, "\"status\":\"ok\"" ) );
    EXPECT_EQ( reborn.stats().synthesized, 1u );
    EXPECT_EQ( reborn.stats().upgraded, 1u );
  }

  // After the upgrade, a third instance serves `ok` straight from disk.
  synthesis_daemon third( { "", root } );
  const auto served = third.handle_request( unlimited );
  EXPECT_TRUE( contains( served, "\"from_cache\":true" ) ) << served;
  EXPECT_TRUE( contains( served, "\"status\":\"ok\"" ) );
  EXPECT_EQ( third.stats().synthesized, 0u );
}

TEST( daemon, admission_cap_rejects_with_busy )
{
  store::daemon_options options;
  options.num_threads = 1;
  options.max_inflight = 1;
  synthesis_daemon daemon( options );

  // Occupy the single admission slot with a slow synthesis...
  std::thread owner( [&daemon] {
    const auto r = daemon.handle_request(
        R"({"cmd":"synthesize","design":"newton","bitwidth":7,"flow":"hierarchical","verify":"sat"})" );
    EXPECT_TRUE( contains( r, "\"ok\":true" ) ) << r;
  } );
  // ...wait until it is admitted (inflight is a gauge exposed for exactly
  // this kind of saturation probe)...
  for ( int i = 0; i < 5000 && daemon.inflight() == 0u; ++i )
  {
    std::this_thread::sleep_for( std::chrono::milliseconds( 1 ) );
  }
  ASSERT_EQ( daemon.inflight(), 1u );

  // ...and observe a different query bounce instead of queuing behind it.
  const auto busy = daemon.handle_request(
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1})" );
  EXPECT_TRUE( contains( busy, "\"ok\":false" ) ) << busy;
  EXPECT_TRUE( contains( busy, "\"code\":\"busy\"" ) ) << busy;
  owner.join();
  EXPECT_GE( daemon.stats().rejected, 1u );

  // With the slot free again the same query is admitted and served.
  const auto after = daemon.handle_request(
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1})" );
  EXPECT_TRUE( contains( after, "\"ok\":true" ) ) << after;
}

TEST( daemon, elaborating_a_new_design_does_not_block_memory_hits )
{
  synthesis_daemon daemon( {} );
  const auto hit = R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"esop","esop_p":1})";
  const auto warm = daemon.handle_request( hit );
  ASSERT_TRUE( contains( warm, "\"from_cache\":false" ) ) << warm;

  // NEWTON(64) takes ~0.3 s to elaborate.  Its 1 us deadline, armed at
  // admission, has expired by the time the flow's first task would start,
  // so the request ends `timed_out` right after elaboration.
  std::string slow;
  std::thread elaborating( [&daemon, &slow] {
    slow = daemon.handle_request(
        R"({"cmd":"synthesize","design":"newton","bitwidth":64,"flow":"hierarchical","deadline":0.000001})" );
  } );
  std::this_thread::sleep_for( std::chrono::milliseconds( 30 ) );

  // A memory hit on another design must not queue behind that elaboration.
  const auto start = std::chrono::steady_clock::now();
  const auto served = daemon.handle_request( hit );
  const auto waited = std::chrono::steady_clock::now() - start;
  elaborating.join();
  EXPECT_TRUE( contains( served, "\"from_cache\":true" ) ) << served;
  EXPECT_LT( waited, std::chrono::milliseconds( 50 ) );
  EXPECT_TRUE( contains( slow, "\"status\":\"timed_out\"" ) ) << slow;
}

TEST( daemon, requests_waiting_on_a_timed_out_synthesis_share_its_answer )
{
  synthesis_daemon daemon( {} );
  // Prewarm the optimized AIG (shared with the ESOP flow) so that the
  // hierarchical request below spends its 20 ms deadline inside the XMG
  // stage, and its synthesis tail can no longer start.  NEWTON(16)'s XMG
  // stage takes ~50 ms in a Release build on a 4-vCPU x86-64 Xeon;
  // NEWTON(10)'s takes ~14 ms there, so at that size the whole flow could
  // finish inside the deadline.
  const auto prewarm = daemon.handle_request(
      R"({"cmd":"synthesize","design":"newton","bitwidth":16,"flow":"esop"})" );
  ASSERT_TRUE( contains( prewarm, "\"status\":\"ok\"" ) ) << prewarm;
  const auto synthesized_before = daemon.stats().synthesized;

  fault_injection::disarm_all();
  // Armed only to count polls: the XMG stage never fails.
  fault_injection::arm( "flow.xmg", fault_injection::kind::fail, 1000000u );
  const auto request =
      R"({"cmd":"synthesize","design":"newton","bitwidth":16,"flow":"hierarchical","deadline":0.02})";
  std::vector<std::string> responses( 4 );
  std::vector<std::thread> clients;
  for ( unsigned t = 0; t < responses.size(); ++t )
  {
    clients.emplace_back(
        [&daemon, &responses, t, request] { responses[t] = daemon.handle_request( request ); } );
    // Once the first request is inside the XMG stage, the identical ones
    // must wait on its synthesis and get its `timed_out` answer, not start
    // their own.
    for ( int i = 0; t == 0u && i < 100000 && fault_injection::hits( "flow.xmg" ) == 0u; ++i )
    {
      std::this_thread::sleep_for( std::chrono::microseconds( 100 ) );
    }
  }
  for ( auto& c : clients )
  {
    c.join();
  }
  EXPECT_EQ( fault_injection::hits( "flow.xmg" ), 1u );
  fault_injection::disarm_all();
  for ( const auto& r : responses )
  {
    EXPECT_TRUE( contains( r, "\"status\":\"timed_out\"" ) ) << r;
  }
  EXPECT_EQ( daemon.stats().synthesized - synthesized_before, 1u );
  EXPECT_EQ( daemon.stats().coalesced, 3u );
}

// --- socket transport --------------------------------------------------------

TEST( daemon, serves_line_delimited_json_over_unix_socket )
{
  temp_dir dir;
  store::daemon_options options;
  options.socket_path = dir.path + "/d.sock";
  synthesis_daemon daemon( options );
  daemon.start();

  EXPECT_EQ( roundtrip( options.socket_path, R"({"cmd":"ping"})" ),
             R"({"ok":true,"pong":true})" );

  const auto response = roundtrip(
      options.socket_path,
      R"({"cmd":"synthesize","design":"intdiv","bitwidth":4,"flow":"hierarchical"})" );
  EXPECT_TRUE( contains( response, "\"ok\":true" ) ) << response;
  EXPECT_TRUE( contains( response, "\"qubits\"" ) );

  // Parallel clients.
  std::vector<std::thread> clients;
  std::vector<std::string> responses( 4 );
  for ( unsigned c = 0; c < 4; ++c )
  {
    clients.emplace_back( [&options, &responses, c] {
      responses[c] = roundtrip( options.socket_path, R"({"cmd":"ping"})" );
    } );
  }
  for ( auto& c : clients )
  {
    c.join();
  }
  for ( const auto& r : responses )
  {
    EXPECT_EQ( r, R"({"ok":true,"pong":true})" );
  }

  EXPECT_TRUE(
      contains( roundtrip( options.socket_path, R"({"cmd":"shutdown"})" ), "stopping" ) );
  EXPECT_TRUE( daemon.shutdown_requested() );
  daemon.stop();
  EXPECT_FALSE( std::filesystem::exists( options.socket_path ) );
}

TEST( daemon, oversized_request_line_is_answered_and_dropped )
{
  temp_dir dir;
  store::daemon_options options;
  options.socket_path = dir.path + "/d.sock";
  options.max_line_bytes = 64u * 1024u;
  synthesis_daemon daemon( options );
  daemon.start();

  const int fd = ::socket( AF_UNIX, SOCK_STREAM, 0 );
  ASSERT_GE( fd, 0 );
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy( addr.sun_path, options.socket_path.c_str(), sizeof( addr.sun_path ) - 1 );
  ASSERT_EQ( ::connect( fd, reinterpret_cast<const sockaddr*>( &addr ), sizeof( addr ) ), 0 );

  // Stream well past the cap without ever sending a newline.  The daemon
  // must answer with line_too_long and close instead of buffering forever;
  // once it does, our sends start failing (EPIPE) — that is expected.
  const std::string blob( 4096, 'x' );
  for ( int i = 0; i < 32; ++i )
  {
    if ( ::send( fd, blob.data(), blob.size(), MSG_NOSIGNAL ) <= 0 )
    {
      break;
    }
  }
  std::string response;
  char chunk[4096];
  while ( response.find( '\n' ) == std::string::npos )
  {
    const auto n = ::recv( fd, chunk, sizeof chunk, 0 );
    if ( n <= 0 )
    {
      break;
    }
    response.append( chunk, static_cast<std::size_t>( n ) );
  }
  ::close( fd );
  EXPECT_TRUE( contains( response, "\"code\":\"line_too_long\"" ) ) << response;

  // The daemon survived and still serves new connections.
  EXPECT_EQ( roundtrip( options.socket_path, R"({"cmd":"ping"})" ),
             R"({"ok":true,"pong":true})" );
  EXPECT_GE( daemon.stats().errors, 1u );
  daemon.stop();
}

TEST( daemon, connection_cap_rejects_with_busy )
{
  temp_dir dir;
  store::daemon_options options;
  options.socket_path = dir.path + "/d.sock";
  options.max_connections = 1;
  synthesis_daemon daemon( options );
  daemon.start();

  // Fill the single slot and prove the connection is established by
  // completing a round trip on it.
  const int held = ::socket( AF_UNIX, SOCK_STREAM, 0 );
  ASSERT_GE( held, 0 );
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy( addr.sun_path, options.socket_path.c_str(), sizeof( addr.sun_path ) - 1 );
  ASSERT_EQ( ::connect( held, reinterpret_cast<const sockaddr*>( &addr ), sizeof( addr ) ), 0 );
  const std::string ping = "{\"cmd\":\"ping\"}\n";
  ASSERT_EQ( ::send( held, ping.data(), ping.size(), MSG_NOSIGNAL ),
             static_cast<ssize_t>( ping.size() ) );
  char chunk[4096];
  ASSERT_GT( ::recv( held, chunk, sizeof chunk, 0 ), 0 );

  // The next connection is told "busy" and closed, not silently queued.
  const auto rejected = roundtrip( options.socket_path, R"({"cmd":"ping"})" );
  EXPECT_TRUE( contains( rejected, "\"code\":\"busy\"" ) ) << rejected;

  // Releasing the held connection frees the slot (after reaping).
  ::close( held );
  std::string ok;
  for ( int attempt = 0; attempt < 100 && !contains( ok, "pong" ); ++attempt )
  {
    std::this_thread::sleep_for( std::chrono::milliseconds( 5 ) );
    ok = roundtrip( options.socket_path, R"({"cmd":"ping"})" );
  }
  EXPECT_TRUE( contains( ok, "pong" ) ) << ok;
  EXPECT_GE( daemon.stats().rejected, 1u );
  daemon.stop();
}
