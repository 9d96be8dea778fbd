#include "analysis/conflict_graph.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "common/logging.h"
#include "common/string_util.h"

namespace nse {

namespace {

bool TestBit(const std::vector<uint64_t>& words, uint32_t accessor) {
  const size_t w = accessor >> 6;
  return w < words.size() &&
         (words[w] & (uint64_t{1} << (accessor & 63))) != 0;
}

void ClearBit(std::vector<uint64_t>& words, uint32_t accessor) {
  const size_t w = accessor >> 6;
  if (w < words.size()) words[w] &= ~(uint64_t{1} << (accessor & 63));
}

/// Inserts `value` into a sorted neighbor list; returns true when it was
/// not already present. Lists stay sorted so that iteration order — and
/// with it Edges(), cycle witnesses and Pearce–Kelly regions — is a
/// function of the edge set alone.
bool SortedInsert(std::vector<uint32_t>& list, uint32_t value) {
  auto pos = std::lower_bound(list.begin(), list.end(), value);
  if (pos != list.end() && *pos == value) return false;
  list.insert(pos, value);
  return true;
}

/// Removes `value` from a sorted neighbor list; returns true when present.
bool SortedErase(std::vector<uint32_t>& list, uint32_t value) {
  auto pos = std::lower_bound(list.begin(), list.end(), value);
  if (pos == list.end() || *pos != value) return false;
  list.erase(pos);
  return true;
}

}  // namespace

void ConflictAccessIndex::Record(uint32_t accessor, bool is_write,
                                 ItemId item) {
  if (item >= history_.size()) history_.resize(item + 1);
  internal::ItemHistory& h = history_[item];
  if (!h.Record(accessor, is_write)) return;
  // First touch of the item in either role: remember it for Erase.
  if (!TestBit(is_write ? h.reader_bits : h.writer_bits, accessor)) {
    if (accessor >= touched_.size()) touched_.resize(accessor + 1);
    touched_[accessor].push_back(item);
  }
}

void ConflictAccessIndex::Erase(uint32_t accessor) {
  if (accessor >= touched_.size()) return;
  for (ItemId item : touched_[accessor]) {
    internal::ItemHistory& h = history_[item];
    if (TestBit(h.writer_bits, accessor)) {
      ClearBit(h.writer_bits, accessor);
      h.writers.erase(
          std::remove(h.writers.begin(), h.writers.end(), accessor),
          h.writers.end());
    }
    if (TestBit(h.reader_bits, accessor)) {
      ClearBit(h.reader_bits, accessor);
      h.readers.erase(
          std::remove(h.readers.begin(), h.readers.end(), accessor),
          h.readers.end());
    }
  }
  touched_[accessor].clear();  // keeps its capacity for the handle's reuse
  // A surviving list entry would resurrect the retracted accessor's
  // conflicts on the next ForEachConflict.
  NSE_DCHECK_MSG(NoHistoryLists(accessor),
                 "access-index entries for retracted accessor %u survived",
                 accessor);
}

bool ConflictAccessIndex::NoHistoryLists(uint32_t accessor) const {
  for (const internal::ItemHistory& h : history_) {
    if (TestBit(h.writer_bits, accessor) || TestBit(h.reader_bits, accessor) ||
        std::find(h.writers.begin(), h.writers.end(), accessor) !=
            h.writers.end() ||
        std::find(h.readers.begin(), h.readers.end(), accessor) !=
            h.readers.end()) {
      return false;
    }
  }
  return true;
}

ConflictGraph::ConflictGraph(std::vector<TxnId> nodes, CycleMode mode)
    : mode_(mode) {
  AppendNodes(std::move(nodes));
}

void ConflictGraph::AppendNodes(std::vector<TxnId> ids) {
  NSE_CHECK_MSG(
      std::is_sorted(ids.begin(), ids.end()) &&
          std::adjacent_find(ids.begin(), ids.end()) == ids.end() &&
          (ids.empty() || nodes_.empty() || nodes_.back() < ids.front()),
      "conflict graph nodes must be sorted and distinct");
  nodes_.insert(nodes_.end(), ids.begin(), ids.end());
  const size_t n = nodes_.size();
  out_.resize(n);
  indegree_.resize(n, 0);
  topo_valid_ = false;
  if (mode_ == CycleMode::kIncremental) {
    in_.resize(n);
    // Any rank is valid for an edgeless node; ranking the new nodes after
    // every existing one leaves the maintained order (and a recorded
    // cycle) untouched.
    while (ord_.size() < n) ord_.push_back(next_rank_++);
    mark_.resize(n, 0);
    parent_.resize(n, UINT32_MAX);
  }
}

namespace internal {

std::vector<uint32_t> EmissionLog::SeedOrder(size_t num_nodes) const {
  std::vector<uint32_t> order;
  order.reserve(num_nodes);
  std::vector<bool> ranked(num_nodes, false);
  auto rank = [&](uint32_t node) {
    if (ranked[node]) return;
    ranked[node] = true;
    order.push_back(node);
  };
  for (size_t a = 0; a < accesses_.size(); ++a) {
    const size_t end =
        a + 1 < accesses_.size() ? accesses_[a + 1].begin : froms_.size();
    for (size_t k = accesses_[a].begin; k < end; ++k) rank(froms_[k]);
    rank(accesses_[a].to);
  }
  for (uint32_t node = 0; node < num_nodes; ++node) rank(node);
  return order;
}

}  // namespace internal

ConflictGraph ConflictGraph::Build(const Schedule& schedule) {
  // Dense bitset sweep: first-occurrence conflict pairs only, so the log
  // holds each edge once and hot items cost word scans instead of history
  // walks. Emission order equals the reference sweep's successful-insert
  // order (see ConflictBitSweep), so the result is bit-identical to the
  // reference build.
  const std::vector<TxnId>& txn_ids = schedule.txn_ids();
  internal::EmissionLog log;
  const OpSequence& ops = schedule.ops();
  {  // the sweep's bitsets are freed before the adjacency is filled
    internal::ConflictBitSweep sweep(static_cast<uint32_t>(txn_ids.size()));
    for (size_t i = 0; i < ops.size(); ++i) {
      const Operation& op = ops[i];
      const uint32_t idx = static_cast<uint32_t>(
          std::lower_bound(txn_ids.begin(), txn_ids.end(), op.txn) -
          txn_ids.begin());
      sweep.Access(idx, op.is_write(), op.entity,
                   [&log, idx, i](uint32_t from) { log.Append(from, idx, i); });
    }
  }
  return FromLog(txn_ids, log);
}

ConflictGraph ConflictGraph::FromLog(std::vector<TxnId> nodes,
                                     const internal::EmissionLog& log) {
  ConflictGraph graph(std::move(nodes));
  graph.FillFromLog(log);
  if (!graph.IsAcyclic()) {
    graph.ReplayFirstCycle(log, log.SeedOrder(graph.nodes_.size()));
  }
  return graph;
}

void ConflictGraph::FillFromLog(const internal::EmissionLog& log) {
  NSE_CHECK_MSG(mode_ == CycleMode::kBatch && num_edges_ == 0,
                "FillFromLog requires an edgeless batch graph");
  const size_t n = nodes_.size();
  const std::vector<internal::EmissionLog::Access>& accesses = log.accesses_;
  const std::vector<uint32_t>& froms = log.froms_;
  auto end_of = [&](size_t a) {
    return a + 1 < accesses.size() ? accesses[a + 1].begin : froms.size();
  };
  // Degrees first, so that every list is reserved once at its exact size.
  std::vector<uint32_t> outdegree(n, 0);
  for (size_t a = 0; a < accesses.size(); ++a) {
    const uint32_t to = accesses[a].to;
    NSE_CHECK_MSG(to < n, "logged edge target %u out of range %zu", to, n);
    indegree_[to] += static_cast<uint32_t>(end_of(a) - accesses[a].begin);
    for (size_t k = accesses[a].begin; k < end_of(a); ++k) {
      NSE_CHECK_MSG(froms[k] < n, "logged edge source %u out of range %zu",
                    froms[k], n);
      ++outdegree[froms[k]];
    }
  }
  // Counting sort keyed by target: bucket[cursor[t] ...] collects t's
  // sources. Scattering advances cursor[t] to the end of t's bucket.
  std::vector<uint32_t> cursor(n, 0);
  for (size_t t = 1; t < n; ++t) cursor[t] = cursor[t - 1] + indegree_[t - 1];
  std::vector<uint32_t> bucket(froms.size());
  for (size_t a = 0; a < accesses.size(); ++a) {
    uint32_t& next = cursor[accesses[a].to];
    for (size_t k = accesses[a].begin; k < end_of(a); ++k) {
      bucket[next++] = froms[k];
    }
  }
  // Targets in ascending order append to their sources' lists, so every
  // list comes out sorted.
  for (size_t u = 0; u < n; ++u) out_[u].reserve(outdegree[u]);
  size_t k = 0;
  for (uint32_t to = 0; to < n; ++to) {
    for (; k < cursor[to]; ++k) out_[bucket[k]].push_back(to);
  }
  num_edges_ = froms.size();
  topo_valid_ = false;
  // The sweep's emitted bitset logs each pair once; a repeat would show as
  // an adjacent duplicate in a sorted list.
  NSE_DCHECK_MSG(std::all_of(out_.begin(), out_.end(),
                             [](const std::vector<uint32_t>& list) {
                               return std::adjacent_find(list.begin(),
                                                         list.end()) ==
                                      list.end();
                             }),
                 "emission log holds a duplicate edge");
}

void ConflictGraph::ReplayFirstCycle(
    const internal::EmissionLog& log,
    const std::vector<uint32_t>& initial_order) {
  NSE_CHECK_MSG(mode_ == CycleMode::kBatch && !cycle_.has_value(),
                "ReplayFirstCycle requires a batch graph with no cycle record");
  NSE_CHECK_MSG(initial_order.size() == nodes_.size(),
                "initial order must rank all %zu nodes", nodes_.size());
  ConflictGraph replay(nodes_, CycleMode::kIncremental);
  std::fill(replay.ord_.begin(), replay.ord_.end(), UINT64_MAX);
  for (uint32_t rank = 0; rank < initial_order.size(); ++rank) {
    const uint32_t node = initial_order[rank];
    NSE_CHECK_MSG(node < nodes_.size() && replay.ord_[node] == UINT64_MAX,
                  "initial order must list each node index once");
    replay.ord_[node] = rank;
  }
  const std::vector<internal::EmissionLog::Access>& accesses = log.accesses_;
  for (size_t a = 0; a < accesses.size(); ++a) {
    const size_t end =
        a + 1 < accesses.size() ? accesses[a + 1].begin : log.froms_.size();
    for (size_t k = accesses[a].begin; k < end; ++k) {
      replay.AddEdgeByIndexAt(log.froms_[k], accesses[a].to,
                              accesses[a].op_pos);
      if (replay.cycle_.has_value()) {
        cycle_ = std::move(replay.cycle_);
        cycle_edge_ = replay.cycle_edge_;
        cycle_op_pos_ = replay.cycle_op_pos_;
        return;
      }
    }
  }
  NSE_CHECK_MSG(false, "emission log replay closed no cycle");
}

size_t ConflictGraph::IndexOf(TxnId txn) const {
  auto it = std::lower_bound(nodes_.begin(), nodes_.end(), txn);
  NSE_CHECK_MSG(it != nodes_.end() && *it == txn, "unknown txn %u", txn);
  return static_cast<size_t>(it - nodes_.begin());
}

bool ConflictGraph::AddEdgeByIndexAt(uint32_t from, uint32_t to,
                                     std::optional<size_t> op_pos) {
  if (!SortedInsert(out_[from], to)) return false;
  ++indegree_[to];
  ++num_edges_;
  topo_valid_ = false;
  if (mode_ == CycleMode::kIncremental) {
    SortedInsert(in_[to], from);
    // While a cycle is recorded the maintained order is suspended (it is
    // re-anchored by RebuildOrderAndCycle once a removal may have broken
    // the cycle).
    if (!cycle_.has_value()) MaintainOrder(from, to, op_pos);
  }
  return true;
}

bool ConflictGraph::AddEdge(TxnId from, TxnId to) {
  return AddEdgeByIndexAt(static_cast<uint32_t>(IndexOf(from)),
                          static_cast<uint32_t>(IndexOf(to)), std::nullopt);
}

uint32_t ConflictGraph::NextStamp() const {
  if (++stamp_ == 0) {
    // Stamp counter wrapped: reset all marks once.
    std::fill(mark_.begin(), mark_.end(), 0);
    stamp_ = 1;
  }
  return stamp_;
}

void ConflictGraph::MaintainOrder(uint32_t x, uint32_t y,
                                  std::optional<size_t> op_pos) {
  // Pearce–Kelly: the order is violated only when ord(y) <= ord(x); the
  // affected region is the open interval of ranks (ord(y), ord(x)).
  if (ord_[x] < ord_[y]) return;
  const uint64_t lb = ord_[y];
  const uint64_t ub = ord_[x];

  // Forward search from y over nodes with ord <= ub. Finding x closes the
  // first cycle: record the edge, a witness walked back over the DFS
  // parents, and the position of the operation that created the edge.
  // parent_ entries are only read for nodes marked with this stamp, so the
  // member scratch needs no per-insertion clearing — the cost stays
  // O(affected region).
  const uint32_t stamp = NextStamp();
  std::vector<uint32_t> delta_f;
  std::vector<uint32_t> stack{y};
  mark_[y] = stamp;
  while (!stack.empty()) {
    uint32_t node = stack.back();
    stack.pop_back();
    delta_f.push_back(node);
    for (uint32_t succ : out_[node]) {
      if (succ == x) {
        // Cycle x -> y -> ... -> node -> x.
        std::vector<TxnId> cycle{nodes_[x], nodes_[y]};
        std::vector<TxnId> tail;
        for (uint32_t walk = node; walk != y; walk = parent_[walk]) {
          tail.push_back(nodes_[walk]);
        }
        cycle.insert(cycle.end(), tail.rbegin(), tail.rend());
        cycle.push_back(nodes_[x]);
        cycle_ = std::move(cycle);
        cycle_edge_ = std::make_pair(nodes_[x], nodes_[y]);
        cycle_op_pos_ = op_pos;
        return;
      }
      if (mark_[succ] != stamp && ord_[succ] <= ub) {
        mark_[succ] = stamp;
        parent_[succ] = node;
        stack.push_back(succ);
      }
    }
  }

  // No cycle: backward search from x over nodes with ord >= lb, then merge
  // the two regions — backward nodes take the smallest pooled ranks (they
  // must precede x), forward nodes the rest, each group keeping its
  // relative order.
  const uint32_t back_stamp = NextStamp();
  std::vector<uint32_t> delta_b;
  stack.assign(1, x);
  mark_[x] = back_stamp;
  while (!stack.empty()) {
    uint32_t node = stack.back();
    stack.pop_back();
    delta_b.push_back(node);
    for (uint32_t pred : in_[node]) {
      if (mark_[pred] != back_stamp && ord_[pred] >= lb) {
        mark_[pred] = back_stamp;
        stack.push_back(pred);
      }
    }
  }

  auto by_ord = [this](uint32_t a, uint32_t b) { return ord_[a] < ord_[b]; };
  std::sort(delta_b.begin(), delta_b.end(), by_ord);
  std::sort(delta_f.begin(), delta_f.end(), by_ord);
  std::vector<uint64_t> pool;
  pool.reserve(delta_b.size() + delta_f.size());
  for (uint32_t node : delta_b) pool.push_back(ord_[node]);
  for (uint32_t node : delta_f) pool.push_back(ord_[node]);
  std::sort(pool.begin(), pool.end());
  size_t slot = 0;
  for (uint32_t node : delta_b) ord_[node] = pool[slot++];
  for (uint32_t node : delta_f) ord_[node] = pool[slot++];
}

void ConflictGraph::RebuildOrderAndCycle() {
  // Kahn over the current edge set. If acyclic, the completion order is a
  // valid online order and the cycle state clears; otherwise re-detect a
  // witness with the batch DFS (its closing edge is the witness's last
  // hop; no operation position is known for a re-detected cycle).
  NSE_CHECK_MSG(mode_ == CycleMode::kIncremental,
                "RebuildOrderAndCycle requires incremental mode");
  std::vector<uint32_t> indegree = indegree_;
  std::vector<uint32_t> ready;
  for (uint32_t i = 0; i < nodes_.size(); ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  uint64_t rank = 0;
  std::vector<uint64_t> order(nodes_.size(), UINT64_MAX);
  while (!ready.empty()) {
    uint32_t node = ready.back();
    ready.pop_back();
    order[node] = rank++;
    for (uint32_t succ : out_[node]) {
      if (--indegree[succ] == 0) ready.push_back(succ);
    }
  }
  if (rank == nodes_.size()) {
    ord_ = std::move(order);
    next_rank_ = rank;
    cycle_.reset();
    cycle_edge_.reset();
    cycle_op_pos_.reset();
    return;
  }
  cycle_ = FindCycle();
  NSE_CHECK(cycle_.has_value());
  const std::vector<TxnId>& cycle = *cycle_;
  cycle_edge_ = std::make_pair(cycle[cycle.size() - 2], cycle.front());
  cycle_op_pos_.reset();
}

bool ConflictGraph::RemoveEdge(TxnId from, TxnId to) {
  NSE_CHECK_MSG(mode_ == CycleMode::kIncremental,
                "RemoveEdge requires incremental mode");
  uint32_t x = static_cast<uint32_t>(IndexOf(from));
  uint32_t y = static_cast<uint32_t>(IndexOf(to));
  if (!SortedErase(out_[x], y)) return false;
  NSE_CHECK(SortedErase(in_[y], x));
  --indegree_[y];
  --num_edges_;
  topo_valid_ = false;
  // Removal never invalidates a valid order (fewer constraints); it can
  // only break a recorded cycle, so re-anchor in that case.
  if (cycle_.has_value()) RebuildOrderAndCycle();
  return true;
}

void ConflictGraph::RemoveEdgesOf(TxnId txn) {
  NSE_CHECK_MSG(mode_ == CycleMode::kIncremental,
                "RemoveEdgesOf requires incremental mode");
  uint32_t idx = static_cast<uint32_t>(IndexOf(txn));
  for (uint32_t succ : out_[idx]) {
    NSE_CHECK(SortedErase(in_[succ], idx));
    --indegree_[succ];
  }
  for (uint32_t pred : in_[idx]) {
    NSE_CHECK(SortedErase(out_[pred], idx));
  }
  num_edges_ -= out_[idx].size() + in_[idx].size();
  out_[idx].clear();
  in_[idx].clear();
  indegree_[idx] = 0;
  // Any rank is valid for an edgeless node. Ranking it last lets the
  // in-edges a recycled node gains from older nodes take the O(1) path of
  // MaintainOrder instead of an affected-region search.
  ord_[idx] = next_rank_++;
  NSE_DCHECK_MSG(NoEdgesReference(idx),
                 "edges referencing retracted txn %u survived", txn);
  topo_valid_ = false;
  if (cycle_.has_value()) RebuildOrderAndCycle();
}

bool ConflictGraph::NoEdgesReference(uint32_t idx) const {
  // Debug-only retraction audit (the concurrent engine leans on this): a
  // fully retracted node must appear in no other node's adjacency, in
  // either direction.
  for (uint32_t i = 0; i < nodes_.size(); ++i) {
    if (i == idx) continue;
    if (std::binary_search(out_[i].begin(), out_[i].end(), idx) ||
        std::binary_search(in_[i].begin(), in_[i].end(), idx)) {
      return false;
    }
  }
  return true;
}

std::vector<TxnId> ConflictGraph::Predecessors(TxnId txn) const {
  NSE_CHECK_MSG(mode_ == CycleMode::kIncremental,
                "Predecessors requires incremental mode");
  std::vector<TxnId> out;
  const std::vector<uint32_t>& pred = in_[IndexOf(txn)];
  out.reserve(pred.size());
  for (uint32_t idx : pred) out.push_back(nodes_[idx]);
  return out;
}

std::vector<TxnId> ConflictGraph::Successors(TxnId txn) const {
  NSE_CHECK_MSG(mode_ == CycleMode::kIncremental,
                "Successors requires incremental mode");
  std::vector<TxnId> out;
  const std::vector<uint32_t>& succ = out_[IndexOf(txn)];
  out.reserve(succ.size());
  for (uint32_t idx : succ) out.push_back(nodes_[idx]);
  return out;
}

uint32_t ConflictGraph::InDegree(TxnId txn) const {
  return indegree_[IndexOf(txn)];
}

bool ConflictGraph::has_cycle() const {
  if (mode_ == CycleMode::kIncremental) return cycle_.has_value();
  return !IsAcyclic();
}

std::vector<TxnId> ConflictGraph::OnlineTopologicalOrder() const {
  NSE_CHECK_MSG(mode_ == CycleMode::kIncremental && !cycle_.has_value(),
                "online order requires an acyclic incremental graph");
  std::vector<uint32_t> by_rank(nodes_.size());
  for (uint32_t i = 0; i < nodes_.size(); ++i) by_rank[i] = i;
  std::sort(by_rank.begin(), by_rank.end(),
            [this](uint32_t a, uint32_t b) { return ord_[a] < ord_[b]; });
  std::vector<TxnId> order;
  order.reserve(by_rank.size());
  for (uint32_t idx : by_rank) order.push_back(nodes_[idx]);
  return order;
}

bool ConflictGraph::WouldCloseCycle(TxnId from, TxnId to) const {
  uint32_t x = static_cast<uint32_t>(IndexOf(from));
  uint32_t y = static_cast<uint32_t>(IndexOf(to));
  if (x == y) return true;
  // Closing a cycle means `to` already reaches `from`. In the maintained
  // (acyclic, incremental) order the search is bounded by the affected
  // region, and ord(from) < ord(to) settles it in O(1).
  const bool bounded =
      mode_ == CycleMode::kIncremental && !cycle_.has_value();
  if (bounded && ord_[x] < ord_[y]) return false;
  const uint32_t stamp =
      mode_ == CycleMode::kIncremental ? NextStamp() : 0;
  std::vector<char> visited;
  if (mode_ != CycleMode::kIncremental) visited.assign(nodes_.size(), 0);
  auto seen = [&](uint32_t node) {
    return mode_ == CycleMode::kIncremental ? mark_[node] == stamp
                                            : visited[node] != 0;
  };
  auto mark = [&](uint32_t node) {
    if (mode_ == CycleMode::kIncremental) {
      mark_[node] = stamp;
    } else {
      visited[node] = 1;
    }
  };
  std::vector<uint32_t> stack{y};
  mark(y);
  while (!stack.empty()) {
    uint32_t node = stack.back();
    stack.pop_back();
    if (node == x) return true;
    for (uint32_t succ : out_[node]) {
      if (seen(succ)) continue;
      if (bounded && ord_[succ] > ord_[x]) continue;
      mark(succ);
      stack.push_back(succ);
    }
  }
  return false;
}

std::optional<std::vector<TxnId>> ConflictGraph::WouldCloseCycleWitness(
    TxnId from, TxnId to) const {
  const uint32_t x = static_cast<uint32_t>(IndexOf(from));
  const uint32_t y = static_cast<uint32_t>(IndexOf(to));
  if (x == y) return std::vector<TxnId>{nodes_[y]};
  // Same reachability question as WouldCloseCycle ("does `to` reach
  // `from`?"), but with DFS parents recorded so the path can be walked
  // back. This is the veto *resolution* path (cold compared to the probe),
  // so local scratch is fine.
  const bool bounded =
      mode_ == CycleMode::kIncremental && !cycle_.has_value();
  if (bounded && ord_[x] < ord_[y]) return std::nullopt;
  std::vector<char> visited(nodes_.size(), 0);
  std::vector<uint32_t> parent(nodes_.size(), UINT32_MAX);
  std::vector<uint32_t> stack{y};
  visited[y] = 1;
  while (!stack.empty()) {
    uint32_t node = stack.back();
    stack.pop_back();
    if (node == x) {
      std::vector<TxnId> path;
      for (uint32_t walk = x; walk != UINT32_MAX; walk = parent[walk]) {
        path.push_back(nodes_[walk]);
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    for (uint32_t succ : out_[node]) {
      if (visited[succ]) continue;
      if (bounded && ord_[succ] > ord_[x]) continue;
      visited[succ] = 1;
      parent[succ] = node;
      stack.push_back(succ);
    }
  }
  return std::nullopt;
}

bool ConflictGraph::HasEdge(TxnId from, TxnId to) const {
  const std::vector<uint32_t>& succ = out_[IndexOf(from)];
  return std::binary_search(succ.begin(), succ.end(),
                            static_cast<uint32_t>(IndexOf(to)));
}

std::vector<std::pair<TxnId, TxnId>> ConflictGraph::Edges() const {
  std::vector<std::pair<TxnId, TxnId>> out;
  out.reserve(num_edges_);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (uint32_t j : out_[i]) out.emplace_back(nodes_[i], nodes_[j]);
  }
  return out;
}

const std::optional<std::vector<TxnId>>& ConflictGraph::CachedTopo() const {
  if (topo_valid_) return topo_;
  size_t n = nodes_.size();
  std::vector<uint32_t> indegree = indegree_;
  // Min-heap of ready node indices: popping the smallest ready node gives
  // the deterministic canonical order in O((V+E) log V).
  std::priority_queue<uint32_t, std::vector<uint32_t>, std::greater<>> ready;
  for (uint32_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  std::vector<TxnId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const uint32_t node = ready.top();
    ready.pop();
    order.push_back(nodes_[node]);
    for (uint32_t j : out_[node]) {
      if (--indegree[j] == 0) ready.push(j);
    }
  }
  if (order.size() != n) {
    topo_ = std::nullopt;
  } else {
    topo_ = std::move(order);
  }
  topo_valid_ = true;
  return topo_;
}

bool ConflictGraph::IsAcyclic() const {
  // Incremental graphs answer in O(1) from the maintained cycle state; the
  // canonical order (TopologicalOrder) is still computed lazily on demand.
  if (mode_ == CycleMode::kIncremental) return !cycle_.has_value();
  return CachedTopo().has_value();
}

std::optional<std::vector<TxnId>> ConflictGraph::TopologicalOrder() const {
  return CachedTopo();
}

namespace {

void AllTopoRec(const std::vector<TxnId>& nodes,
                const std::vector<std::vector<uint32_t>>& out_adj,
                std::vector<uint32_t>& indegree, std::vector<bool>& used,
                std::vector<TxnId>& current, size_t limit,
                std::vector<std::vector<TxnId>>& out) {
  if (out.size() >= limit) return;
  if (current.size() == nodes.size()) {
    out.push_back(current);
    return;
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (used[i] || indegree[i] != 0) continue;
    used[i] = true;
    current.push_back(nodes[i]);
    for (uint32_t j : out_adj[i]) --indegree[j];
    AllTopoRec(nodes, out_adj, indegree, used, current, limit, out);
    for (uint32_t j : out_adj[i]) ++indegree[j];
    current.pop_back();
    used[i] = false;
    if (out.size() >= limit) return;
  }
}

}  // namespace

std::vector<std::vector<TxnId>> ConflictGraph::AllTopologicalOrders(
    size_t limit) const {
  if (!IsAcyclic()) return {};
  std::vector<uint32_t> indegree = indegree_;
  std::vector<bool> used(nodes_.size(), false);
  std::vector<TxnId> current;
  std::vector<std::vector<TxnId>> out;
  AllTopoRec(nodes_, out_, indegree, used, current, limit, out);
  return out;
}

std::optional<std::vector<TxnId>> ConflictGraph::FindCycle() const {
  size_t n = nodes_.size();
  // Colors: 0 = white, 1 = on stack, 2 = done.
  std::vector<int> color(n, 0);
  std::vector<size_t> parent(n, SIZE_MAX);
  for (size_t root = 0; root < n; ++root) {
    if (color[root] != 0) continue;
    // Iterative DFS; `next` indexes into the successor list of `node`.
    std::vector<std::pair<size_t, size_t>> stack{{root, 0}};
    color[root] = 1;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      bool advanced = false;
      const std::vector<uint32_t>& succ = out_[node];
      for (size_t k = next; k < succ.size(); ++k) {
        size_t j = succ[k];
        next = k + 1;
        if (color[j] == 1) {
          // Found a cycle: walk parents from `node` back to j.
          std::vector<TxnId> cycle{nodes_[j]};
          size_t walk = node;
          while (walk != j) {
            cycle.push_back(nodes_[walk]);
            walk = parent[walk];
          }
          cycle.push_back(nodes_[j]);
          std::reverse(cycle.begin() + 1, cycle.end() - 1);
          return cycle;
        }
        if (color[j] == 0) {
          color[j] = 1;
          parent[j] = node;
          stack.emplace_back(j, 0);
          advanced = true;
          break;
        }
      }
      if (!advanced) {
        color[node] = 2;
        stack.pop_back();
      }
    }
  }
  return std::nullopt;
}

std::string ConflictGraph::ToString() const {
  std::vector<std::string> parts;
  for (const auto& [from, to] : Edges()) {
    parts.push_back(StrCat("T", from, " -> T", to));
  }
  return StrJoin(parts, ", ");
}

}  // namespace nse
