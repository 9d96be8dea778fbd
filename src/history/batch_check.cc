#include "history/batch_check.h"

#include <algorithm>

#include "analysis/analysis_context.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "constraints/ast.h"

namespace nse {

bool BatchReport::ok() const {
  if (!full.ok || !aborted_reads.empty()) return false;
  return std::all_of(planes.begin(), planes.end(),
                     [](const BatchPlaneReport& p) { return p.ok; });
}

namespace {

BatchPlaneReport PlaneFromCsr(const CsrReport& csr,
                              const std::vector<size_t>& source_events) {
  BatchPlaneReport plane;
  plane.ok = csr.serializable;
  if (!csr.serializable) {
    // Context graphs always record the first cycle's closing edge and its
    // position (replayed up to the cycle after the batch build).
    NSE_CHECK(csr.cycle_edge.has_value() && csr.cycle_op_pos.has_value() &&
              csr.cycle.has_value());
    HistoryViolation violation;
    violation.edge = *csr.cycle_edge;
    violation.event = source_events[*csr.cycle_op_pos];
    violation.cycle = *csr.cycle;
    plane.violation = std::move(violation);
  }
  return plane;
}

}  // namespace

std::vector<size_t> AbortedReadEvents(const History& history) {
  CommittedProjection proj = CommittedProjectionOf(history);
  std::vector<size_t> events;
  for (size_t i = 0; i < history.events.size(); ++i) {
    const HistoryEvent& e = history.events[i];
    if (e.type != HistoryEventType::kRead || !e.read_from.has_value() ||
        *e.read_from == 0) {
      continue;
    }
    if (proj.FateOf(e.txn) == TxnFate::kCommitted &&
        proj.FateOf(*e.read_from) == TxnFate::kAborted) {
      events.push_back(i);
    }
  }
  return events;
}

BatchReport CheckHistoryBatch(const History& history,
                              const std::vector<DataSet>& planes) {
  CommittedProjection proj = CommittedProjectionOf(history);
  BatchReport report;
  report.aborted_reads = AbortedReadEvents(history);

  if (planes.empty()) {
    AnalysisContext ctx(proj.schedule);
    report.full = PlaneFromCsr(ctx.csr_report(), proj.source_events);
    return report;
  }

  auto ic = PlanesAsConstraint(history.db, planes, ConjunctOverlap::kAllow);
  NSE_CHECK(ic.ok());
  AnalysisContext ctx(*ic, proj.schedule);
  report.full = PlaneFromCsr(ctx.csr_report(), proj.source_events);
  const PwsrReport& pwsr = ctx.pwsr_report();
  NSE_CHECK(pwsr.per_conjunct.size() == planes.size());
  for (const ConjunctSerializability& entry : pwsr.per_conjunct) {
    report.planes.push_back(PlaneFromCsr(entry.csr, proj.source_events));
  }
  return report;
}

Result<IntegrityConstraint> PlanesAsConstraint(
    const Database& db, const std::vector<DataSet>& planes,
    ConjunctOverlap overlap) {
  std::vector<Formula> conjuncts;
  conjuncts.reserve(planes.size());
  for (const DataSet& plane : planes) {
    if (plane.empty()) {
      return Status::InvalidArgument("a plane must contain at least one item");
    }
    std::optional<Term> sum;
    for (ItemId item : plane) {
      if (item >= db.num_items()) {
        return Status::NotFound(StrCat("plane references unknown item ", item));
      }
      Term var = Var(item);
      sum = sum.has_value() ? Add(std::move(*sum), std::move(var))
                            : std::move(var);
    }
    conjuncts.push_back(Ge(std::move(*sum), Const(Value(int64_t{0}))));
  }
  return IntegrityConstraint::FromConjuncts(db, std::move(conjuncts), overlap);
}

}  // namespace nse
