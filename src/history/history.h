// Black-box transaction histories: the external-log counterpart of the
// simulator/engine traces. A History is an ordered event log — begin, read,
// write, commit, abort — over a derived item catalog, produced by an
// external system (or by our own drivers through trace_export.h) and
// consumed without knowing which scheduler generated it, the
// online-auditor scenario of ROADMAP item 4 (Nagar–Jagannathan's
// weak-consistency violation detection; Biswas–Enea's polynomial
// fragments).
//
// Reads may carry an optional `read_from` version annotation naming the
// transaction whose write produced the observed version (0 = the initial
// state), the same sidecar convention as VersionAnnotations — that is what
// makes dirty reads (a committed reader observing an aborted write)
// decidable from the log alone.
//
// ValidateHistory enforces the event protocol (one begin per transaction,
// operations only while active, commit/abort exactly once, annotations
// only on versions actually written); CommittedProjectionOf derives the
// committed Schedule the batch analysis plane (AnalysisContext +
// CheckerRegistry) consumes, with a position map back to log event indices
// so witnesses from either plane land in the same coordinate system.

#ifndef NSE_HISTORY_HISTORY_H_
#define NSE_HISTORY_HISTORY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/multiversion.h"
#include "common/status.h"
#include "state/database.h"
#include "txn/schedule.h"

namespace nse {

/// Current (and only) history format version.
inline constexpr int kHistoryFormatVersion = 1;

/// One log event.
enum class HistoryEventType : uint8_t { kBegin, kRead, kWrite, kCommit, kAbort };

/// "begin", "read", "write", "commit", or "abort".
const char* HistoryEventTypeName(HistoryEventType type);

/// One event of a history log. `item`, `value` and `read_from` are
/// meaningful only for reads/writes (`read_from` only for reads).
struct HistoryEvent {
  HistoryEventType type = HistoryEventType::kBegin;
  TxnId txn = 0;
  ItemId item = 0;
  Value value;
  /// Version annotation: the transaction whose write produced the observed
  /// version (0 = initial state). Absent reads resolve positionally.
  std::optional<TxnId> read_from;

  static HistoryEvent Begin(TxnId txn) {
    return HistoryEvent{HistoryEventType::kBegin, txn, 0, Value(), {}};
  }
  static HistoryEvent Read(TxnId txn, ItemId item, Value value,
                           std::optional<TxnId> from = std::nullopt) {
    return HistoryEvent{HistoryEventType::kRead, txn, item, std::move(value),
                        from};
  }
  static HistoryEvent Write(TxnId txn, ItemId item, Value value) {
    return HistoryEvent{HistoryEventType::kWrite, txn, item, std::move(value),
                        {}};
  }
  static HistoryEvent Commit(TxnId txn) {
    return HistoryEvent{HistoryEventType::kCommit, txn, 0, Value(), {}};
  }
  static HistoryEvent Abort(TxnId txn) {
    return HistoryEvent{HistoryEventType::kAbort, txn, 0, Value(), {}};
  }

  friend bool operator==(const HistoryEvent& a, const HistoryEvent& b) {
    return a.type == b.type && a.txn == b.txn && a.item == b.item &&
           a.value == b.value && a.read_from == b.read_from;
  }
};

/// A parsed (or constructed) history: the derived item catalog plus the
/// event log. Constructed histories should pass ValidateHistory before any
/// analysis; ParseHistory returns only validated histories.
struct History {
  int version = kHistoryFormatVersion;
  Database db;
  std::vector<HistoryEvent> events;
};

/// Final state of a transaction in a history.
enum class TxnFate : uint8_t { kCommitted, kAborted, kIncomplete };

/// Checks the event protocol over the whole log. Violations yield typed
/// errors (InvalidArgument / FailedPrecondition), never a crash:
///   - txn ids are >= 1 and items are registered in `history.db`;
///   - a transaction begins exactly once, before any of its operations;
///   - no operation or re-begin after the transaction commits or aborts;
///   - commit/abort name a begun, still-active transaction (an out-of-order
///     or duplicate commit is rejected);
///   - a `read_from` annotation names 0 (initial state) or a transaction
///     that wrote the item at an earlier log position (a read of a
///     never-written version is rejected).
Status ValidateHistory(const History& history);

/// The committed projection of a history: what the batch analysis plane
/// checks. Operations of transactions whose fate is kCommitted, in log
/// order, with the version annotations lifted into the checker sidecar.
struct CommittedProjection {
  Schedule schedule;              ///< committed operations, log order
  VersionAnnotations annotations; ///< read_from per position (reads only)
  /// schedule position -> index of the originating event in History.events;
  /// the shared coordinate map between batch witnesses (schedule positions)
  /// and streaming witnesses (log event indices).
  std::vector<size_t> source_events;
  /// Fate per transaction id present in the log, ascending by txn id,
  /// parallel to `txn_ids`.
  std::vector<TxnId> txn_ids;
  std::vector<TxnFate> fates;

  /// Fate of `txn`, or kIncomplete if the id never appears.
  TxnFate FateOf(TxnId txn) const;
};

/// Derives the committed projection. The history must validate; call
/// ValidateHistory first on untrusted input (ParseHistory already does).
CommittedProjection CommittedProjectionOf(const History& history);

/// One serializability violation, in log coordinates: the witness both the
/// batch plane and the streaming checker report, so their differential
/// compares witnesses with ==.
struct HistoryViolation {
  /// The conflict edge whose creation closed the first cycle.
  std::pair<TxnId, TxnId> edge;
  /// Log event index of the operation that created that edge.
  size_t event = 0;
  /// Cycle witness (txn ids, first == last).
  std::vector<TxnId> cycle;

  bool operator==(const HistoryViolation& other) const {
    return edge == other.edge && event == other.event && cycle == other.cycle;
  }
};

}  // namespace nse

#endif  // NSE_HISTORY_HISTORY_H_
