#include <algorithm>

#include "oracles/oracles.h"

namespace nse {
namespace oracles {

namespace {

/// Walks the schedule once, feeding each operation through a
/// ConflictAccessIndex keyed by txn indices into schedule.txn_ids(), and
/// calls emit(from_index, to_index, op_pos) for every candidate conflict
/// pair — a write conflicts with every earlier accessor of its item, a read
/// with every earlier writer. Candidate pairs repeat across positions.
template <typename EmitFn>
void SweepConflicts(const Schedule& schedule, EmitFn emit) {
  const std::vector<TxnId>& txn_ids = schedule.txn_ids();
  ConflictAccessIndex index;
  const OpSequence& ops = schedule.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    const uint32_t idx = static_cast<uint32_t>(
        std::lower_bound(txn_ids.begin(), txn_ids.end(), op.txn) -
        txn_ids.begin());
    index.ForEachConflict(idx, op.is_write(), op.entity,
                          [&](uint32_t from) { emit(from, idx, i); });
    index.Record(idx, op.is_write(), op.entity);
  }
}

}  // namespace

ConflictGraph BuildReference(const Schedule& schedule, CycleMode mode) {
  // AddEdgeByIndexAt dedupes the candidate pairs, so total work is
  // O(ops · txns-per-item) instead of O(ops²).
  ConflictGraph graph(schedule.txn_ids(), mode);
  SweepConflicts(schedule, [&graph](uint32_t from, uint32_t to, size_t pos) {
    graph.AddEdgeByIndexAt(from, to, pos);
  });
  return graph;
}

}  // namespace oracles
}  // namespace nse
