#include "analysis/serializability.h"

#include <algorithm>

#include "common/string_util.h"

namespace nse {

bool IsConflictSerializable(const Schedule& schedule) {
  return ConflictGraph::Build(schedule).IsAcyclic();
}

CsrReport CheckConflictSerializability(const Schedule& schedule) {
  return CsrReportFromGraph(ConflictGraph::Build(schedule));
}

CsrReport CsrReportFromGraph(const ConflictGraph& graph) {
  CsrReport report;
  report.order = graph.TopologicalOrder();
  report.serializable = report.order.has_value();
  if (!report.serializable) {
    // Fast path: Build and incremental graphs already recorded the first
    // cycle (and the edge / operation position that closed it) — no second
    // DFS. Hand-assembled batch graphs fall back to the reference DFS.
    if (graph.cycle().has_value()) {
      report.cycle = graph.cycle();
      report.cycle_edge = graph.cycle_edge();
      report.cycle_op_pos = graph.cycle_op_pos();
    } else {
      report.cycle = graph.FindCycle();
    }
  }
  return report;
}

std::vector<std::vector<TxnId>> SerializationOrders(const Schedule& schedule,
                                                    size_t limit) {
  return ConflictGraph::Build(schedule).AllTopologicalOrders(limit);
}

Result<Schedule> SerialArrangement(const Schedule& schedule,
                                   const std::vector<TxnId>& order) {
  std::vector<TxnId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  if (sorted != schedule.txn_ids()) {
    return Status::InvalidArgument(
        "order must list every transaction of the schedule exactly once");
  }
  OpSequence ops;
  ops.reserve(schedule.size());
  for (TxnId txn : order) {
    OpSequence txn_ops = OpsOfTxn(schedule.ops(), txn);
    ops.insert(ops.end(), txn_ops.begin(), txn_ops.end());
  }
  return Schedule(std::move(ops));
}

}  // namespace nse
