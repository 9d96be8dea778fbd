// Data access graph DAG(S, IC) of §3.3: one node per conjunct; a directed
// edge (C_i, C_j), i ≠ j, when some transaction of S reads a data item in
// d_i and writes a data item in d_j. Theorem 3: a PWSR schedule with an
// acyclic data access graph is strongly correct.
//
// Build walks the schedule once: each operation is routed through the IC's
// item → conjuncts table (IntegrityConstraint::SlotsOf) into its
// transaction's read-conjunct or write-conjunct bitset, and each
// transaction then adds i → j for every read conjunct i and write conjunct
// j ≠ i. No transaction or DataSet is materialized; the per-transaction
// DataSet build lives in tests/oracles (oracles::DataAccessGraphReference)
// as the cross-checked reference.

#ifndef NSE_ANALYSIS_ACCESS_GRAPH_H_
#define NSE_ANALYSIS_ACCESS_GRAPH_H_

#include <optional>
#include <string>
#include <vector>

#include "constraints/integrity_constraint.h"
#include "txn/schedule.h"

namespace nse {

/// The data access graph over conjunct indices 0..l-1.
class DataAccessGraph {
 public:
  /// Builds DAG(S, IC) in one walk of the schedule: O(ops × conjuncts per
  /// item + txns × read conjuncts × write conjuncts).
  static DataAccessGraph Build(const Schedule& schedule,
                               const IntegrityConstraint& ic);

  /// Number of conjuncts (nodes).
  size_t num_nodes() const { return adj_.size(); }

  /// True iff the edge i → j is present.
  bool HasEdge(size_t i, size_t j) const { return adj_[i][j]; }

  /// All edges as (from, to) conjunct-index pairs.
  std::vector<std::pair<size_t, size_t>> Edges() const;

  /// True iff the graph has no directed cycle.
  bool IsAcyclic() const;

  /// A topological order of conjunct indices, or nullopt if cyclic. With
  /// this ordering, every transaction that writes in d_k reads only from
  /// d_1, ..., d_k (the induction order of Theorem 3's proof).
  std::optional<std::vector<size_t>> TopologicalOrder() const;

  /// Renders "C1 -> C2, C2 -> C3" (1-based, as in the paper).
  std::string ToString() const;

 private:
  std::vector<std::vector<bool>> adj_;
};

}  // namespace nse

#endif  // NSE_ANALYSIS_ACCESS_GRAPH_H_
