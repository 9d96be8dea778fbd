// Batch reference analysis of a history: the committed projection run
// through the existing analysis plane (AnalysisContext), with every
// witness mapped from schedule positions back to log event indices via
// CommittedProjection::source_events. This is the oracle the streaming
// checker is differentially tested against — both planes speak the same
// coordinate system (event indices), so witness agreement is exact
// equality.

#ifndef NSE_HISTORY_BATCH_CHECK_H_
#define NSE_HISTORY_BATCH_CHECK_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "constraints/integrity_constraint.h"
#include "history/history.h"

namespace nse {

/// Verdict of one analysis plane (the full schedule, or one projection).
struct BatchPlaneReport {
  bool ok = true;
  std::optional<HistoryViolation> violation;
};

/// The complete batch verdict over a history.
struct BatchReport {
  /// CSR of the committed projection.
  BatchPlaneReport full;
  /// Per requested plane: CSR of the projection onto that data set
  /// (PWSR's per-conjunct test, Definition 2), parallel to the `planes`
  /// argument of CheckHistoryBatch.
  std::vector<BatchPlaneReport> planes;
  /// Event indices of committed dirty reads: reads whose annotation names
  /// a transaction that aborted, performed by a transaction that
  /// committed. Ascending.
  std::vector<size_t> aborted_reads;

  /// True iff every plane is serializable and no aborted read exists.
  bool ok() const;
};

/// Runs the batch plane over `history` (which must validate). Each entry
/// of `planes` is a non-empty item set defining one projected plane.
BatchReport CheckHistoryBatch(const History& history,
                              const std::vector<DataSet>& planes = {});

/// Event indices of committed dirty reads (see BatchReport), by direct
/// scan of the log — independent of both checkers, for cross-checking.
std::vector<size_t> AbortedReadEvents(const History& history);

/// Wraps item partitions as an integrity constraint whose conjunct data
/// sets are exactly `planes` (each conjunct is the vacuous sum(items) >= 0
/// over its set) — the bridge from the history plane, which has no
/// constraint language, to PWSR machinery that wants an IC.
Result<IntegrityConstraint> PlanesAsConstraint(
    const Database& db, const std::vector<DataSet>& planes,
    ConjunctOverlap overlap = ConjunctOverlap::kReject);

}  // namespace nse

#endif  // NSE_HISTORY_BATCH_CHECK_H_
