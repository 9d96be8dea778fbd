// Streaming windowed serializability checker: the online half of the
// black-box history plane (src/history/). Events arrive one at a time
// through Feed; verdicts are emitted online (violation_seen() flips the
// moment a committed-only conflict cycle completes) and the final report
// carries witnesses that agree bit-for-bit with the batch plane
// (history/batch_check.h) on the same log — the contract pinned by the
// history differential fuzz suite.
//
// The checker maintains one live conflict graph per plane (the full
// schedule, plus one projected plane per StreamingOptions::planes entry,
// PWSR-style) over the decremental incremental-cycle ConflictGraph.
// Transactions occupy recycled node slots; when every slot is taken the
// plane doubles its slot capacity, and its graph grows in place
// (ConflictGraph::AppendNodes) with no edge re-inserted. Aborted
// transactions have their edges retracted (RemoveEdgesOf + access-index
// erase), exactly the committed-projection semantics of the batch plane.
//
// Eviction (the window): a committed transaction can gain no further
// in-edges — every in-edge u → v is created by an operation of v, and a
// committed v issues no more operations. So a committed transaction with
// zero in-degree in the live graph can never lie on any future cycle, and
// retiring it (edges, access-index entries, slot) is sound AND complete:
// no verdict ever changes because of an eviction. Each plane keeps a
// worklist of exactly those transactions. A slot enters it once, at its
// commit if it has no in-edge, or when a retirement removes its last
// in-edge (its in-degree only falls). When a plane retains more than
// `window` committed transactions, the sweep pops the worklist until the
// plane is back at the window or the worklist is empty; each retirement
// can push the successors it freed. A retirement costs O(the slot's
// degree and distinct items): no pass over the retained slots, none over
// the catalog. Which worklist slot goes first does not change any count.
// A committed slot is pinned exactly while some active transaction
// reaches it, and in an acyclic graph the cascade reaches every unpinned
// one. An unpinned slot gains no in-edge, so it never becomes pinned, and
// keeping it instead of another adds only out-edges from an unpinned
// slot, which pin nothing. So every sweep retires min(excess, unpinned)
// slots whatever the order, and the evictions, retention and
// slot-capacity doublings follow. Retained memory is therefore bounded by
// the active transactions plus the committed ones they transitively pin,
// not by log length. Conversely a transaction pinned by an in-edge from a
// live predecessor stays until the predecessor resolves — the
// concurrent-overlap term of the bound.
//
// Violations fire only at commit events: a new edge always points INTO
// the operating (hence active) transaction, so a committed-only cycle can
// only complete when its last member commits. Detection is a targeted
// DFS through the committing transaction over committed nodes, guarded
// by the O(1) has_cycle() of the Pearce–Kelly graph. On detection the
// verdict latches and the plane freezes: its live edge set (with each
// edge's creation order and originating log event) is snapshotted, the
// graph is dropped, and only the commit fates of the snapshot's endpoints
// are tracked further. Finish() replays the snapshot's
// committed-committed edges in creation order into a fresh incremental
// graph — reproducing the batch plane's insertion sequence, hence its
// first cycle-closing edge, witness cycle and event position exactly
// (evicted transactions never lie on a batch cycle, so their absence from
// the snapshot is invisible to the witness; see docs/adr/0011).
//
// Dirty reads are tracked from the read_from annotations: a committed
// reader whose annotation names an aborted writer is reported with the
// read's event index, matching AbortedReadEvents. The id set of aborted
// transactions is the one structure that grows with aborts rather than
// the window (any future read may name any past writer).
//
// Feed validates the event protocol over live transactions (duplicate
// begin, operation before begin or after finish, unknown items) with
// typed Status errors; checks that need unbounded memory (reuse of a
// long-retired id, read_from of a retired writer) are the parser's job —
// ParseHistory rejects them exactly.

#ifndef NSE_ANALYSIS_STREAMING_CHECKER_H_
#define NSE_ANALYSIS_STREAMING_CHECKER_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/conflict_graph.h"
#include "common/status.h"
#include "history/history.h"

namespace nse {

/// Knobs for the streaming checker.
struct StreamingOptions {
  /// Committed transactions a plane retains before eviction sweeps run;
  /// 0 = unbounded (never evict). Any value yields identical verdicts —
  /// the window trades memory against sweep work only.
  size_t window = 64;
  /// Projected planes (PWSR's per-conjunct test): each non-empty item set
  /// is checked for conflict serializability of its projection, in
  /// addition to the always-present full plane.
  std::vector<DataSet> planes;
};

/// Final verdict of one plane.
struct StreamingPlaneReport {
  bool ok = true;
  std::optional<HistoryViolation> violation;
  /// Event index at which the verdict latched online (the commit that
  /// completed the first committed-only cycle) — diagnostic; the witness
  /// above is the batch-identical one.
  std::optional<size_t> detected_at;
};

/// Counters for the memory/throughput contract.
struct StreamingStats {
  uint64_t events = 0;        ///< events fed
  uint64_t ops = 0;           ///< read/write events
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t evictions = 0;     ///< committed transactions swept out
  uint64_t rebuilds = 0;      ///< slot-capacity doublings (in place)
  size_t peak_retained = 0;   ///< max transactions resident in any plane
  size_t retained = 0;        ///< resident at Finish
};

/// The complete streaming verdict.
struct StreamingReport {
  StreamingPlaneReport full;                 ///< CSR of the full projection
  std::vector<StreamingPlaneReport> planes;  ///< per StreamingOptions plane
  /// Event indices of committed dirty reads, ascending (agrees with
  /// AbortedReadEvents).
  std::vector<size_t> aborted_reads;
  StreamingStats stats;

  /// True iff every plane is serializable and no aborted read exists.
  bool ok() const;
};

/// The streaming checker. Thread-compatible, not thread-safe.
class StreamingChecker {
 public:
  /// `db` is the item catalog events refer to (borrowed; must outlive the
  /// checker).
  explicit StreamingChecker(const Database& db, StreamingOptions options = {});

  /// Ingests one event. Protocol violations over live transactions yield
  /// typed errors and leave the checker state unchanged.
  Status Feed(const HistoryEvent& event);

  /// True once any plane has latched a violation or a committed dirty
  /// read has resolved — the online verdict.
  bool violation_seen() const { return violation_seen_; }

  /// Running counters (peak_retained is maintained live).
  const StreamingStats& stats() const { return stats_; }

  /// Finalizes witnesses and returns the report. The checker is spent
  /// afterwards; further Feed calls are rejected.
  StreamingReport Finish();

 private:
  /// An edge's identity in batch insertion order: `seq` is the global
  /// creation rank (the batch plane inserts committed-committed edges in
  /// exactly this order), `event` the log event of the creating op.
  struct EdgeMeta {
    uint64_t seq = 0;
    size_t event = 0;
  };

  /// A snapshotted live edge of a frozen (violated) plane.
  struct FrozenEdge {
    TxnId from = 0;
    TxnId to = 0;
    uint64_t seq = 0;
    size_t event = 0;
  };

  /// A free slot is SlotInfo{}; a retired one is reset to it.
  struct SlotInfo {
    TxnId txn = 0;
    bool committed = false;
  };

  /// One checked plane: the full schedule (empty `items`), or a
  /// projection.
  struct Plane {
    DataSet items;  ///< empty = all items
    ConflictGraph graph;
    ConflictAccessIndex access;
    std::unordered_map<TxnId, uint32_t> slot_of;
    std::vector<SlotInfo> slots;
    std::vector<uint32_t> free_slots;
    /// Edge metadata keyed by (from_slot << 32) | to_slot.
    std::unordered_map<uint64_t, EdgeMeta> edge_meta;
    /// Committed slots with zero in-degree — the eviction worklist. A
    /// committed slot's in-degree only falls, so each slot is pushed once:
    /// at its commit, or when RetireSlot removes its last in-edge.
    std::vector<uint32_t> evictable;
    size_t committed_retained = 0;
    size_t occupied = 0;

    // Frozen (violated) state.
    bool violated = false;
    size_t detected_at = 0;
    std::vector<FrozenEdge> frozen;
    /// Fates of the snapshot's endpoints, resolved as the log continues:
    /// absent = still active at Finish (incomplete, excluded).
    std::unordered_map<TxnId, TxnFate> frozen_fates;

    bool Tracks(ItemId item) const {
      return items.empty() || items.Contains(item);
    }
  };

  /// Pending dirty-read dependency: reader R observed writer W's version.
  struct DirtyPending {
    TxnId reader = 0;
    TxnId writer = 0;
    size_t event = 0;
    bool writer_aborted = false;
    bool reader_committed = false;
    bool dead = false;
  };

  Status FeedOp(const HistoryEvent& event, size_t event_index);
  void FeedCommit(TxnId txn, size_t event_index);
  void FeedAbort(TxnId txn);

  uint32_t EnsureSlot(Plane& plane, TxnId txn);
  /// Appends `count` free slots to the plane (its graph grows in place).
  void AddSlots(Plane& plane, size_t count);
  void RetireSlot(Plane& plane, uint32_t slot);
  void EvictionSweep(Plane& plane);
  bool CommittedCycleThrough(const Plane& plane, uint32_t slot) const;
  void LatchViolation(Plane& plane, size_t event_index);
  StreamingPlaneReport FinishPlane(Plane& plane);

  void TrackDirtyRead(TxnId reader, TxnId writer, size_t event_index);
  void ResolveDirtyReads(TxnId txn, bool committed);
  void RemoveDirtyIndex(std::unordered_multimap<TxnId, size_t>& index,
                        TxnId key, size_t entry);

  const Database* db_;
  StreamingOptions options_;
  std::vector<Plane> planes_;  ///< planes_[0] is the full plane

  /// Live (begun, unresolved) transactions.
  std::unordered_set<TxnId> active_;
  /// Every aborted transaction id — grows with aborts, not log length.
  std::unordered_set<TxnId> aborted_;

  std::vector<DirtyPending> dirty_;
  std::vector<size_t> dirty_free_;
  std::unordered_multimap<TxnId, size_t> dirty_by_reader_;
  std::unordered_multimap<TxnId, size_t> dirty_by_writer_;
  std::vector<size_t> aborted_read_events_;

  uint64_t next_seq_ = 1;
  bool violation_seen_ = false;
  bool finished_ = false;
  StreamingStats stats_;
};

/// Convenience: streams a whole (validated) history and returns the
/// report. Aborts on Feed errors — validate first for untrusted input.
StreamingReport CheckHistoryStreaming(const History& history,
                                      StreamingOptions options = {});

}  // namespace nse

#endif  // NSE_ANALYSIS_STREAMING_CHECKER_H_
