/// \file balanced_reduce.hpp
/// \brief In-place balanced reduction of an operand list.

#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace qsyn
{

/// Combines the non-empty `items` into one with `combine` as a balanced
/// tree, in place: each level pairs neighbours left to right and carries an
/// odd last item up unchanged, so the depth is logarithmic.  Builders call
/// `combine` in this fixed order, which fixes the ids of the nodes they
/// create.
template<typename T, typename Combine>
T reduce_balanced( std::vector<T>& items, Combine&& combine )
{
  assert( !items.empty() );
  auto size = items.size();
  while ( size > 1u )
  {
    std::size_t next = 0;
    for ( std::size_t i = 0; i + 1u < size; i += 2u )
    {
      items[next++] = combine( items[i], items[i + 1u] );
    }
    if ( size & 1u )
    {
      items[next++] = items[size - 1u];
    }
    size = next;
  }
  return items[0];
}

} // namespace qsyn
