#include "oracles/oracles.h"

namespace nse {
namespace oracles {

std::vector<std::pair<size_t, size_t>> DataAccessGraphReference(
    const Schedule& schedule, const IntegrityConstraint& ic) {
  const size_t l = ic.num_conjuncts();
  std::vector<std::vector<bool>> adj(l, std::vector<bool>(l, false));
  for (const Transaction& txn : schedule.Transactions()) {
    DataSet reads = txn.ReadSet();
    DataSet writes = txn.WriteSet();
    for (size_t i = 0; i < l; ++i) {
      if (DataSet::Disjoint(reads, ic.data_set(i))) continue;
      for (size_t j = 0; j < l; ++j) {
        if (i == j) continue;
        if (!DataSet::Disjoint(writes, ic.data_set(j))) adj[i][j] = true;
      }
    }
  }
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i < l; ++i) {
    for (size_t j = 0; j < l; ++j) {
      if (adj[i][j]) edges.emplace_back(i, j);
    }
  }
  return edges;
}

}  // namespace oracles
}  // namespace nse
