#include "collapse.hpp"

namespace qsyn
{

std::vector<truth_table> collapse_to_truth_tables( const aig_network& aig )
{
  return aig.simulate_outputs();
}

} // namespace qsyn
