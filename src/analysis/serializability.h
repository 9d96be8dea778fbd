// Conflict serializability (CSR) — the baseline correctness criterion the
// paper relaxes (footnote 2: "by serializability we refer to conflict
// serializability").

#ifndef NSE_ANALYSIS_SERIALIZABILITY_H_
#define NSE_ANALYSIS_SERIALIZABILITY_H_

#include <optional>
#include <vector>

#include "analysis/conflict_graph.h"
#include "common/status.h"
#include "txn/schedule.h"

namespace nse {

/// Outcome of a CSR test.
struct CsrReport {
  bool serializable = false;
  /// A serialization order when serializable.
  std::optional<std::vector<TxnId>> order;
  /// A conflict-graph cycle witness when not.
  std::optional<std::vector<TxnId>> cycle;
  /// The conflict edge whose insertion closed the first cycle, when the
  /// graph records it (ConflictGraph::Build, AnalysisContext graphs,
  /// incremental graphs).
  std::optional<std::pair<TxnId, TxnId>> cycle_edge;
  /// Schedule position of the operation that created the cycle-closing
  /// edge, when recorded. For a projected conflict graph this is mapped to
  /// a *full-schedule* position by the AnalysisContext pwsr path (via
  /// ScheduleProjection::source_positions), so verdicts render where the
  /// user can see them.
  std::optional<size_t> cycle_op_pos;
};

/// True iff `schedule` is conflict serializable.
bool IsConflictSerializable(const Schedule& schedule);

/// Full CSR report with order/cycle witness.
CsrReport CheckConflictSerializability(const Schedule& schedule);

/// The CSR report of an already-built conflict graph — the single
/// implementation behind both the free function and the memoized
/// AnalysisContext path.
CsrReport CsrReportFromGraph(const ConflictGraph& graph);

/// All serialization orders of `schedule`, up to `limit`; empty if not CSR.
std::vector<std::vector<TxnId>> SerializationOrders(const Schedule& schedule,
                                                    size_t limit);

/// The serial schedule obtained by concatenating the transactions of
/// `schedule` in `order` (with their recorded values).
Result<Schedule> SerialArrangement(const Schedule& schedule,
                                   const std::vector<TxnId>& order);

}  // namespace nse

#endif  // NSE_ANALYSIS_SERIALIZABILITY_H_
