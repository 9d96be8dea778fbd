// Conflict graph (serialization graph) of a schedule: nodes are the
// transactions; there is an edge T_i → T_j when some operation of T_i
// precedes and conflicts with an operation of T_j. A schedule is conflict
// serializable (CSR) iff the graph is acyclic; topological orders of the
// graph are exactly its serialization orders (Papadimitriou [13]).
//
// The graph is stored as sorted adjacency lists and supports incremental
// edge insertion (AddEdge) and in-place node growth (AppendNodes); the
// canonical topological order is computed on demand and cached until the
// next insertion, so repeated acyclicity / serialization-order queries on
// the same graph are free.
//
// Build is batch-only, and so are AnalysisContext's conjunct graphs: one
// sweep per item history (ConflictBitSweep) emits each edge once into an
// EmissionLog, and FromLog fills the adjacency from the log with one
// counting sort keyed by target (each list comes out sorted and sized
// exactly, with no per-edge sorted insert). One Kahn pass decides
// acyclicity, and only a cyclic graph pays for its witness — the log is
// replayed into an incremental graph up to the first cycle
// (ReplayFirstCycle). So a batch-built graph reports the same first cycle,
// closing edge and operation position as an incremental build, without
// maintaining an online order on every insert. The incremental build of a
// whole schedule lives in tests/oracles (oracles::BuildReference) as the
// cross-checked reference.
//
// CycleMode::kIncremental maintains an *online* topological order updated
// in place on every insertion with the Pearce–Kelly algorithm: an edge
// whose endpoints already agree with the order costs O(1), otherwise only
// the affected region between the endpoints is searched and reordered — so
// acyclicity is an O(1) query after every AddEdge instead of an O(V+E)
// recomputation, and edges can be retracted. The first cycle-closing edge
// is recorded together with a cycle witness (and, when supplied, the
// schedule position of the operation that created the edge). Its consumers
// are the ones that ask after every insert or remove edges: the SGT
// policies, the simulator's waits-for graph and the streaming checker. The
// batch DFS (FindCycle) is kept unchanged as the cross-checked reference.

#ifndef NSE_ANALYSIS_CONFLICT_GRAPH_H_
#define NSE_ANALYSIS_CONFLICT_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "txn/schedule.h"

namespace nse {

namespace internal {

class EmissionLog;

/// One item's access history: its distinct writers and readers in
/// first-access order, with membership bitsets over accessor handles
/// (64-bit words, lazily grown) so that Record dedupes with one
/// test-and-set instead of a list scan. The one per-item history behind
/// every conflict-edge producer: ConflictAccessIndex and ConflictBitSweep.
struct ItemHistory {
  std::vector<uint32_t> writers;  // distinct accessors, first-access order
  std::vector<uint32_t> readers;
  std::vector<uint64_t> writer_bits;  // membership of writers / readers
  std::vector<uint64_t> reader_bits;

  /// Records the access; returns true when `accessor` is new in that role.
  bool Record(uint32_t accessor, bool is_write) {
    std::vector<uint64_t>& bits = is_write ? writer_bits : reader_bits;
    const size_t w = accessor >> 6;
    if (w >= bits.size()) bits.resize(w + 1, 0);
    const uint64_t bit = uint64_t{1} << (accessor & 63);
    if ((bits[w] & bit) != 0) return false;
    bits[w] |= bit;
    (is_write ? writers : readers).push_back(accessor);
    return true;
  }
};

}  // namespace internal

/// How a ConflictGraph answers cycle queries.
enum class CycleMode : uint8_t {
  /// Acyclicity / topo order recomputed on demand (cached per revision).
  /// Build and AnalysisContext graphs are kBatch and additionally carry the
  /// first-cycle record of an incremental build (ReplayFirstCycle).
  kBatch,
  /// Online topological order maintained per insertion (Pearce–Kelly);
  /// acyclicity is O(1), the first cycle-closing edge is recorded, edges
  /// can be removed. For consumers that query or retract between inserts:
  /// SGT, the waits-for graph and the streaming checker.
  kIncremental,
};

/// The conflict graph of one schedule (or schedule projection).
class ConflictGraph {
 public:
  /// An empty graph with no nodes.
  ConflictGraph() = default;

  /// An edgeless graph over `nodes` (must be sorted ascending, duplicates
  /// are rejected); edges are added incrementally with AddEdge.
  explicit ConflictGraph(std::vector<TxnId> nodes,
                         CycleMode mode = CycleMode::kBatch);

  /// Builds the kBatch graph of `schedule`: the sweep logs its edges and
  /// FromLog does the rest. The first cycle-closing edge, its witness and
  /// the schedule position of the operation that created it (cycle_op_pos)
  /// are recorded by one Kahn pass plus, only when the graph is cyclic,
  /// ReplayFirstCycle over the sweep's emission order.
  /// Uses the dense bitset sweep (ConflictBitSweep); bit-identical by
  /// construction to the vector-scan reference builder in tests/oracles
  /// (whose kIncremental build records the same witness), and pinned so by
  /// the fuzz differential.
  static ConflictGraph Build(const Schedule& schedule);

  /// The kBatch graph over `nodes` (sorted, distinct) whose edges are
  /// exactly the ones `log` holds, in node indices. Each pair must be
  /// logged once — a sweep's emitted bitset guarantees it. The adjacency is
  /// filled by one counting sort keyed by target; a Kahn pass decides
  /// acyclicity, and a cyclic graph replays `log` (ReplayFirstCycle, seeded
  /// with log.SeedOrder) to record its first cycle. Build and
  /// AnalysisContext's conjunct graphs end here.
  static ConflictGraph FromLog(std::vector<TxnId> nodes,
                               const internal::EmissionLog& log);

  /// Recovers the first cycle of a cyclic batch graph. Replays `log` —
  /// the order in which this graph's edges were emitted, with the position
  /// of the operation behind each — into an incremental graph over the same
  /// nodes, stops at the first cycle-closing edge, and records that cycle,
  /// edge and position here: exactly what an incremental build fed the
  /// same emission order records. `initial_order` lists every node index
  /// once and seeds the replay's online order; any permutation gives the
  /// same witness (Pearce–Kelly's cycle test and witness search depend
  /// only on the edges inserted so far), so it only sets the cost; the
  /// builders pass log.SeedOrder, under which most edges already agree
  /// with the order. The graph must be kBatch and cyclic, and `log` must
  /// hold all of its edges.
  void ReplayFirstCycle(const internal::EmissionLog& log,
                        const std::vector<uint32_t>& initial_order);

  /// Transactions (nodes), ascending by id.
  const std::vector<TxnId>& nodes() const { return nodes_; }

  /// The cycle-query mode this graph was constructed with.
  CycleMode cycle_mode() const { return mode_; }

  /// Appends `ids` (sorted ascending, distinct, above every existing node)
  /// as edgeless nodes, in place: existing edges, the maintained order and
  /// any recorded cycle are kept, and the new nodes rank after every
  /// existing node, so no edge is re-inserted. The streaming checker's slot
  /// planes and the waits-for graph grow this way.
  void AppendNodes(std::vector<TxnId> ids);

  /// Inserts the edge from → to (both must be nodes). Returns true when the
  /// edge is new; the cached topological state is invalidated only then.
  bool AddEdge(TxnId from, TxnId to);

  /// AddEdge by positions into nodes() — the id lookups skipped — recording
  /// the schedule position of the operation that created the edge: if this
  /// insertion closes the first cycle, the position is reported as
  /// cycle_op_pos() (incremental mode; AddEdge records none). For producers
  /// that already work in node indices: the first-cycle replay, the
  /// streaming checker and hand-assembled graphs.
  bool AddEdgeByIndexAt(uint32_t from, uint32_t to,
                        std::optional<size_t> op_pos);

  /// Removes the edge from → to if present (incremental mode only; the
  /// simulator's waits-for graph retracts edges as blockers resolve).
  /// Removing an edge never invalidates the maintained order; if a recorded
  /// cycle might have been broken, the cycle state is recomputed.
  bool RemoveEdge(TxnId from, TxnId to);

  /// Removes every in- and out-edge of `txn` (incremental mode only) — the
  /// deadlock-victim abort path. The now-isolated node is ranked after
  /// every other node in the online order, so a reused node's in-edges
  /// from older nodes cost O(1) to order.
  void RemoveEdgesOf(TxnId txn);

  // ---- first-cycle state (kIncremental, and kBatch after a replay) ------

  /// True iff a cycle has been detected. O(1) in incremental mode; in
  /// batch mode equivalent to !IsAcyclic().
  bool has_cycle() const;

  /// The first cycle-closing edge (from, to) as txn ids, or nullopt while
  /// acyclic (and on batch graphs that did not go through
  /// ReplayFirstCycle). After a removal-triggered re-detection this is the
  /// closing edge of the freshly discovered cycle.
  const std::optional<std::pair<TxnId, TxnId>>& cycle_edge() const {
    return cycle_edge_;
  }

  /// Schedule position of the operation that closed the cycle, when the
  /// cycle-closing edge was inserted with AddEdgeByIndexAt or replayed
  /// (Build and AnalysisContext's conjunct graphs record positions;
  /// waits-for edges have none).
  const std::optional<size_t>& cycle_op_pos() const { return cycle_op_pos_; }

  /// The recorded cycle witness (txn ids, first == last), or nullopt while
  /// acyclic. Recorded by incremental graphs and by batch graphs that went
  /// through ReplayFirstCycle; other batch callers use FindCycle.
  const std::optional<std::vector<TxnId>>& cycle() const { return cycle_; }

  /// The maintained online topological order (incremental mode, acyclic
  /// graphs): a valid — not necessarily canonical — serialization order.
  std::vector<TxnId> OnlineTopologicalOrder() const;

  /// True iff inserting from → to now would close a cycle, i.e. `to`
  /// reaches `from`. O(affected region) in incremental acyclic state via
  /// the order bounds; plain DFS otherwise. Does not mutate the graph.
  bool WouldCloseCycle(TxnId from, TxnId to) const;

  /// The witness variant of WouldCloseCycle: when inserting from → to
  /// would close a cycle, returns the existing path to → ... → from (txn
  /// ids; with the probed edge appended it would be the full cycle), else
  /// nullopt. from == to yields the single-node path {to}. Same bounded
  /// search as WouldCloseCycle in incremental acyclic state (a valid topo
  /// order ranks every node of a to→from path at most ord(from), so the
  /// pruning never hides a path); the victim-choice SGT policy consumes
  /// this to abort the cheapest *active* cycle participant instead of
  /// always restarting the requester. Does not mutate the graph.
  std::optional<std::vector<TxnId>> WouldCloseCycleWitness(TxnId from,
                                                           TxnId to) const;

  /// The direct predecessors of `txn` (incremental mode only — that is
  /// where predecessor lists are maintained). O(in-degree).
  std::vector<TxnId> Predecessors(TxnId txn) const;

  /// The direct successors of `txn` (incremental mode only). O(out-degree).
  /// SgtPolicy's incremental committed-node trim walks these to find the
  /// nodes a retraction may have freed.
  std::vector<TxnId> Successors(TxnId txn) const;

  /// Number of direct predecessors of `txn`, without materializing them.
  uint32_t InDegree(TxnId txn) const;

  /// True iff the edge from → to is present.
  bool HasEdge(TxnId from, TxnId to) const;

  /// Number of distinct edges.
  size_t num_edges() const { return num_edges_; }

  /// All edges as (from, to) pairs, ordered by (from, to).
  std::vector<std::pair<TxnId, TxnId>> Edges() const;

  /// True iff the graph has no directed cycle (schedule is CSR).
  bool IsAcyclic() const;

  /// Some serialization order (topological order), or nullopt if cyclic.
  /// Deterministic: smallest ready node first. Cached between edge inserts.
  std::optional<std::vector<TxnId>> TopologicalOrder() const;

  /// All serialization orders, up to `limit` (empty if cyclic). If exactly
  /// `limit` orders are returned the enumeration may be incomplete.
  std::vector<std::vector<TxnId>> AllTopologicalOrders(size_t limit) const;

  /// A directed cycle witness (sequence of txn ids, first == last), or
  /// nullopt if acyclic.
  std::optional<std::vector<TxnId>> FindCycle() const;

  /// Renders "T1 -> T2, T2 -> T3".
  std::string ToString() const;

 private:
  size_t IndexOf(TxnId txn) const;
  /// Fills out_, indegree_ and num_edges_ of this edgeless batch graph from
  /// `log`: out-degrees size each list, a counting sort buckets the sources
  /// by target (a temporary 4 B per edge), and the targets, walked in
  /// ascending order, append to their sources' lists, so every list comes
  /// out sorted.
  void FillFromLog(const internal::EmissionLog& log);
  /// Debug-only retraction audit: true iff no other node's adjacency (in
  /// either direction) still references `idx`. O(V log deg); only called
  /// from NSE_DCHECK in RemoveEdgesOf.
  bool NoEdgesReference(uint32_t idx) const;
  /// Canonical topological order over node indices, or nullopt if cyclic;
  /// computed once per edge-set revision.
  const std::optional<std::vector<TxnId>>& CachedTopo() const;

  /// Pearce–Kelly order maintenance for a freshly inserted edge x → y with
  /// ord_[y] <= ord_[x]: forward search from y bounded by ord_[x] either
  /// finds x (cycle — recorded, order left untouched) or yields the
  /// affected forward region, which is then merged with the backward region
  /// of x over the pooled order slots.
  void MaintainOrder(uint32_t x, uint32_t y, std::optional<size_t> op_pos);

  /// Recomputes the online order and cycle state from scratch (Kahn + DFS
  /// reference); used after removals while a cycle was recorded, when the
  /// suspended order maintenance must be re-anchored.
  void RebuildOrderAndCycle();

  /// Fresh visit stamp for the bounded searches (avoids O(V) clears).
  uint32_t NextStamp() const;

  std::vector<TxnId> nodes_;
  std::vector<std::vector<uint32_t>> out_;  // sorted successor indices
  std::vector<uint32_t> indegree_;          // by node index
  size_t num_edges_ = 0;
  CycleMode mode_ = CycleMode::kBatch;

  // Incremental mode state.
  std::vector<std::vector<uint32_t>> in_;  // sorted predecessor indices
  std::vector<uint64_t> ord_;              // node index -> online rank
  uint64_t next_rank_ = 0;                 // above every rank in ord_
  std::optional<std::pair<TxnId, TxnId>> cycle_edge_;
  std::optional<size_t> cycle_op_pos_;
  std::optional<std::vector<TxnId>> cycle_;
  mutable std::vector<uint32_t> mark_;     // visit stamps for bounded DFS
  mutable uint32_t stamp_ = 0;
  std::vector<uint32_t> parent_;  // DFS parents; valid for current stamp only

  mutable bool topo_valid_ = false;
  mutable std::optional<std::vector<TxnId>> topo_;
};

/// Per-item access histories with streaming conflict-edge derivation: the
/// paper's conflict rule (same item, distinct transactions, at least one
/// write) for consumers that must also *retract* accesses — the SGT
/// policy's online veto check and the streaming checker's per-plane
/// histories. Batch builds (ConflictGraph::Build, AnalysisContext's conjunct
/// graphs) never retract and use the dense ConflictBitSweep over the same
/// ItemHistory instead. Accessors are caller-chosen uint32_t handles (raw
/// txn ids for the scheduler, slots for the streaming checker).
class ConflictAccessIndex {
 public:
  /// Calls emit(prior) for every distinct prior accessor whose recorded
  /// access conflicts with an (is_write, item) access by `accessor`: a
  /// write conflicts with every earlier accessor of the item, a read with
  /// every earlier writer. `accessor` itself is never emitted. Prior
  /// writers are emitted before prior readers, each group in first-access
  /// order.
  template <typename EmitFn>
  void ForEachConflict(uint32_t accessor, bool is_write, ItemId item,
                       EmitFn emit) const {
    if (item >= history_.size()) return;
    const internal::ItemHistory& h = history_[item];
    for (uint32_t writer : h.writers) {
      if (writer != accessor) emit(writer);
    }
    if (is_write) {
      for (uint32_t reader : h.readers) {
        if (reader != accessor) emit(reader);
      }
    }
  }

  /// Records the access into the item's history (repeat accesses dedupe).
  void Record(uint32_t accessor, bool is_write, ItemId item);

  /// Erases `accessor` from every item history it touched — the
  /// abort-retraction counterpart of ConflictGraph::RemoveEdgesOf. Costs
  /// O(the accessor's distinct items × their accessor lists), independent
  /// of the catalog size; the handle is free for reuse afterwards.
  void Erase(uint32_t accessor);

  /// Drops all histories.
  void Clear() {
    history_.clear();
    touched_.clear();
  }

 private:
  /// Debug-only retraction audit: true iff no item history still lists
  /// `accessor`. O(catalog); only called from NSE_DCHECK in Erase.
  bool NoHistoryLists(uint32_t accessor) const;

  std::vector<internal::ItemHistory> history_;
  /// Accessor handle -> the distinct items it recorded, in first-access
  /// order: Erase visits exactly these instead of the whole catalog.
  std::vector<std::vector<ItemId>> touched_;
};

namespace internal {

/// Dense fast path for the per-item conflict sweep: the per-item histories
/// (ItemHistory) plus one already-emitted bitset (txns × txns, 64-bit word
/// blocks). An access whose conflicts were all emitted before — the common
/// case on hot items — costs a few word scans and popcounts over the
/// history's membership bits, with no per-accessor walk and no downstream
/// dedupe work at all, because the emitted bitset is exactly the
/// consumer-side dedupe pulled up front (an already-present pair is a no-op
/// insert either way).
///
/// First-occurrence emissions walk the recorded first-access orders, so
/// the emitted pair sequence is exactly the reference sweep's sequence of
/// *successful* inserts — prior writers first, then (for writes) prior
/// readers — which keeps dense-built graphs bit-identical to
/// reference-built ones, recorded cycle witnesses included. One sweep feeds
/// one graph: ConflictGraph::Build runs one over the whole schedule, and
/// AnalysisContext one per conjunct in that conjunct's local txn indices.
/// Cross-checked against the vector-scan reference builder in tests/oracles
/// by the fuzz differential.
class ConflictBitSweep {
 public:
  explicit ConflictBitSweep(uint32_t num_txns)
      : words_((static_cast<size_t>(num_txns) + 63) / 64),
        emitted_(static_cast<size_t>(num_txns) * words_, 0) {}

  /// Feeds one access in schedule order: calls emit(from) for every
  /// conflict pair (from → accessor) not yet emitted, then records the
  /// access.
  template <typename EmitFn>
  void Access(uint32_t accessor, bool is_write, ItemId item, EmitFn emit) {
    if (item >= items_.size()) items_.resize(item + 1);
    ItemHistory& h = items_[item];
    uint64_t* row = emitted_.data() + static_cast<size_t>(accessor) * words_;
    uint64_t fresh = CountNew(h.writer_bits, row, accessor);
    if (fresh != 0) WalkOrder(h.writers, row, accessor, fresh, emit);
    if (is_write) {
      // Recomputed after the writer walk: an accessor on both lists was
      // just marked there and must not emit twice.
      fresh = CountNew(h.reader_bits, row, accessor);
      if (fresh != 0) WalkOrder(h.readers, row, accessor, fresh, emit);
    }
    h.Record(accessor, is_write);
  }

 private:
  /// Popcount of candidate bits not yet emitted on `row` (the accessor's
  /// own bit masked out).
  static uint64_t CountNew(const std::vector<uint64_t>& cand,
                           const uint64_t* row, uint32_t accessor) {
    uint64_t fresh = 0;
    const size_t self_word = accessor >> 6;
    for (size_t w = 0; w < cand.size(); ++w) {
      uint64_t word = cand[w] & ~row[w];
      if (w == self_word) word &= ~(uint64_t{1} << (accessor & 63));
      fresh += static_cast<uint64_t>(__builtin_popcountll(word));
    }
    return fresh;
  }

  /// Emits the `fresh` not-yet-emitted accessors of `order` in first-access
  /// order, marking them on `row`.
  template <typename EmitFn>
  static void WalkOrder(const std::vector<uint32_t>& order, uint64_t* row,
                        uint32_t accessor, uint64_t fresh, EmitFn& emit) {
    for (uint32_t from : order) {
      if (from == accessor) continue;
      uint64_t& word = row[from >> 6];
      const uint64_t bit = uint64_t{1} << (from & 63);
      if ((word & bit) != 0) continue;
      word |= bit;
      emit(from);
      if (--fresh == 0) break;
    }
  }

  size_t words_;
  std::vector<ItemHistory> items_;
  std::vector<uint64_t> emitted_;  // txns × words_
};

/// The edges of one batch build in emission order: the `from` node index
/// of every emitted edge, plus one (to, op_pos) header per access that
/// emitted edges — about 4 B per edge. The sweep writes only here;
/// ConflictGraph::FromLog fills the adjacency from it, and a cyclic graph
/// replays it to its first cycle (ConflictGraph::ReplayFirstCycle) without
/// an online order maintained during the build. Builders drop it once
/// acyclicity is decided.
class EmissionLog {
 public:
  /// Logs the edge from → to, created by the operation at `op_pos`. Edges
  /// of one access arrive consecutively and share its header.
  void Append(uint32_t from, uint32_t to, size_t op_pos) {
    if (accesses_.empty() || accesses_.back().op_pos != op_pos ||
        accesses_.back().to != to) {
      accesses_.push_back({op_pos, to, static_cast<uint32_t>(froms_.size())});
    }
    froms_.push_back(from);
  }

  /// The replay's initial order over `num_nodes` node indices: first
  /// appearance in the log, each access's sources before its target, then
  /// the nodes no edge touches. It ranks nodes about as their first
  /// accesses do, so most logged edges agree with it and cost Pearce–Kelly
  /// O(1) — the identity order of txn ids made the seed-1 certify_pwsr
  /// replay about 3x slower.
  std::vector<uint32_t> SeedOrder(size_t num_nodes) const;

 private:
  friend class nse::ConflictGraph;

  struct Access {
    size_t op_pos;
    uint32_t to;
    uint32_t begin;  // first of this access's entries in froms_
  };
  std::vector<Access> accesses_;
  std::vector<uint32_t> froms_;
};

}  // namespace internal

}  // namespace nse

#endif  // NSE_ANALYSIS_CONFLICT_GRAPH_H_
