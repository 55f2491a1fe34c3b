/// \file qsyn_client.cpp
/// \brief Thin client for the synthesis daemon (qsynd).
///
/// Usage:
///   qsyn_client --socket PATH '{"cmd":"ping"}'         # raw JSON passthrough
///   qsyn_client --socket PATH cmd=synthesize design=intdiv bitwidth=6 \
///               flow=esop esop_p=1 verify=sampled      # key=value sugar
///
/// Sends exactly one request line and prints the daemon's response line.
/// With key=value arguments, values that parse as numbers are sent as
/// JSON numbers, everything else as strings.  Synthesize requests accept
/// one budget, deadline=SECONDS (0 = unlimited) — a repeat of a degraded
/// result with a longer deadline makes the daemon recompute and upgrade
/// its cache.  The daemon rejects any field it does not know.
/// Exit status 0 when the daemon answered with "ok":true; 3 when it
/// answered "code":"busy" (backpressure — retry later); 1 otherwise.

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "store/daemon.hpp" // json_escape

namespace
{

int usage( const char* argv0 )
{
  std::fprintf( stderr,
                "usage: %s --socket PATH ('{\"cmd\":...}' | key=value [key=value ...])\n",
                argv0 );
  return 2;
}

bool is_number( const std::string& s )
{
  if ( s.empty() )
  {
    return false;
  }
  std::size_t i = s[0] == '-' ? 1 : 0;
  bool digits = false, dot = false;
  for ( ; i < s.size(); ++i )
  {
    if ( std::isdigit( static_cast<unsigned char>( s[i] ) ) )
    {
      digits = true;
    }
    else if ( s[i] == '.' && !dot )
    {
      dot = true;
    }
    else
    {
      return false;
    }
  }
  return digits;
}

std::string build_request( const std::vector<std::string>& pairs )
{
  std::string out = "{";
  for ( std::size_t i = 0; i < pairs.size(); ++i )
  {
    const auto eq = pairs[i].find( '=' );
    if ( eq == std::string::npos || eq == 0 )
    {
      throw std::runtime_error( "argument '" + pairs[i] + "' is not key=value" );
    }
    const auto key = pairs[i].substr( 0, eq );
    const auto value = pairs[i].substr( eq + 1 );
    if ( i != 0 )
    {
      out += ",";
    }
    out += "\"" + qsyn::store::json_escape( key ) + "\":";
    if ( is_number( value ) || value == "true" || value == "false" )
    {
      out += value;
    }
    else
    {
      out += "\"" + qsyn::store::json_escape( value ) + "\"";
    }
  }
  out += "}";
  return out;
}

} // namespace

int main( int argc, char** argv )
{
  std::string socket_path;
  std::vector<std::string> rest;
  for ( int i = 1; i < argc; ++i )
  {
    const std::string arg = argv[i];
    if ( arg == "--socket" && i + 1 < argc )
    {
      socket_path = argv[++i];
    }
    else
    {
      rest.push_back( arg );
    }
  }
  if ( socket_path.empty() || rest.empty() )
  {
    return usage( argv[0] );
  }

  std::string request;
  try
  {
    request = rest.size() == 1 && rest[0].front() == '{' ? rest[0] : build_request( rest );
  }
  catch ( const std::exception& e )
  {
    std::fprintf( stderr, "qsyn_client: %s\n", e.what() );
    return 2;
  }
  request += "\n";

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if ( socket_path.size() >= sizeof( addr.sun_path ) )
  {
    std::fprintf( stderr, "qsyn_client: socket path too long\n" );
    return 1;
  }
  std::strncpy( addr.sun_path, socket_path.c_str(), sizeof( addr.sun_path ) - 1 );
  const int fd = ::socket( AF_UNIX, SOCK_STREAM, 0 );
  if ( fd < 0 ||
       ::connect( fd, reinterpret_cast<const sockaddr*>( &addr ), sizeof( addr ) ) != 0 )
  {
    std::fprintf( stderr, "qsyn_client: cannot connect to '%s'\n", socket_path.c_str() );
    if ( fd >= 0 )
    {
      ::close( fd );
    }
    return 1;
  }

  std::size_t sent = 0;
  while ( sent < request.size() )
  {
    const auto n = ::send( fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL );
    if ( n < 0 && errno == EINTR )
    {
      continue;
    }
    if ( n <= 0 )
    {
      std::fprintf( stderr, "qsyn_client: send failed\n" );
      ::close( fd );
      return 1;
    }
    sent += static_cast<std::size_t>( n );
  }

  std::string response;
  char chunk[4096];
  while ( response.find( '\n' ) == std::string::npos )
  {
    const auto n = ::recv( fd, chunk, sizeof chunk, 0 );
    if ( n < 0 && errno == EINTR )
    {
      continue;
    }
    if ( n <= 0 )
    {
      break;
    }
    response.append( chunk, static_cast<std::size_t>( n ) );
  }
  ::close( fd );
  const auto eol = response.find( '\n' );
  if ( eol != std::string::npos )
  {
    response.resize( eol );
  }
  if ( response.empty() )
  {
    std::fprintf( stderr, "qsyn_client: no response\n" );
    return 1;
  }
  std::printf( "%s\n", response.c_str() );
  if ( response.find( "\"ok\":true" ) != std::string::npos )
  {
    return 0;
  }
  // Backpressure (admission or connection cap) gets its own status so
  // scripted callers can retry instead of treating it as a hard failure.
  return response.find( "\"code\":\"busy\"" ) != std::string::npos ? 3 : 1;
}
