/// \file max_n_arg.hpp
/// \brief The `[--max-n N]` command line of the Table I–IV benches.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace qsyn
{

/// Returns the value of `--max-n`, or `fallback` when the flag is absent.
/// On `--help`, an unknown flag, a missing value or a non-numeric one,
/// prints `usage: <name> [--max-n N]` to stderr and exits with status 2
/// before the bench does any work, so a typo such as `--max_n 16` cannot
/// silently run the default range.
inline unsigned parse_max_n_arg( int argc, char** argv, const char* name, unsigned fallback )
{
  unsigned max_n = fallback;
  for ( int i = 1; i < argc; ++i )
  {
    if ( std::strcmp( argv[i], "--max-n" ) == 0 && i + 1 < argc && argv[i + 1][0] >= '0' &&
         argv[i + 1][0] <= '9' )
    {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul( argv[i + 1], &end, 10 );
      if ( *end == '\0' && parsed <= std::numeric_limits<unsigned>::max() )
      {
        max_n = static_cast<unsigned>( parsed );
        ++i;
        continue;
      }
    }
    std::fprintf( stderr, "usage: %s [--max-n N]\n", name );
    std::exit( 2 );
  }
  return max_n;
}

} // namespace qsyn
