// Online waits-for tracking for the scheduler layer. Both drivers' deadlock
// detectors (and any policy that wants to see its own wait cycles, e.g. the
// delayed-read scheduler) repeatedly ask "did this new wait close a
// cycle?" — formerly answered by rebuilding a graph and running a full DFS
// on every stall. The tracker instead keeps one persistent ConflictGraph in
// incremental (Pearce–Kelly) mode and *diffs* each transaction's blocker
// set against the previous one, so a stall tick whose waits-for relation
// did not change costs a handful of vector compares, a changed edge costs
// O(affected region), and the cycle query is O(1).

#ifndef NSE_SCHEDULER_WAITS_FOR_H_
#define NSE_SCHEDULER_WAITS_FOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/conflict_graph.h"

namespace nse {

/// A persistent waits-for graph over txn ids (1-based), maintained by edge
/// diffs. Node capacity grows on demand (the graph is rebuilt — replaying
/// the current edges — when a new high txn id appears, which is rare).
class WaitsForTracker {
 public:
  WaitsForTracker() = default;

  /// Pre-sizes the node set for txn ids 1..n (optional; SetWaits grows on
  /// demand).
  void EnsureTxns(size_t n);

  /// Replaces txn's outgoing wait edges with `blockers` (self-waits and
  /// duplicates are dropped). Only the symmetric difference against the
  /// previous blocker set touches the graph.
  void SetWaits(TxnId txn, const std::vector<TxnId>& blockers);

  /// Drops txn's outgoing wait edges (it stopped waiting).
  void ClearWaits(TxnId txn) { SetWaits(txn, {}); }

  /// Txn completed or was aborted: drops its outgoing edges and every edge
  /// waiting on it, and re-detects the cycle state if one was recorded.
  void OnResolved(TxnId txn);

  /// True iff the current waits-for relation has a cycle. O(1).
  bool has_cycle() const;

  /// The recorded deadlock cycle (txn ids, first == last), or nullopt.
  const std::optional<std::vector<TxnId>>& cycle() const;

  /// The wait edge that closed the recorded cycle, or nullopt.
  const std::optional<std::pair<TxnId, TxnId>>& cycle_edge() const;

  /// Graph mutations actually performed — the work the diffing saves shows
  /// up as these counters staying flat across unchanged stall ticks.
  uint64_t edges_added() const { return edges_added_; }
  uint64_t edges_removed() const { return edges_removed_; }

  /// The underlying incremental graph (read-only; for tests and benches).
  const ConflictGraph& graph() const { return *graph_; }

 private:
  std::optional<ConflictGraph> graph_;
  std::vector<std::vector<TxnId>> waits_;  // sorted blocker set per txn id
  size_t capacity_ = 0;                    // txn ids 1..capacity_ are nodes
  uint64_t edges_added_ = 0;
  uint64_t edges_removed_ = 0;
};

}  // namespace nse

#endif  // NSE_SCHEDULER_WAITS_FOR_H_
