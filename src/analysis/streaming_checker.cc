#include "analysis/streaming_checker.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace nse {

namespace {

constexpr size_t kInitialSlots = 64;

uint64_t EdgeKey(uint32_t from, uint32_t to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

}  // namespace

bool StreamingReport::ok() const {
  if (!full.ok || !aborted_reads.empty()) return false;
  return std::all_of(planes.begin(), planes.end(),
                     [](const StreamingPlaneReport& p) { return p.ok; });
}

StreamingChecker::StreamingChecker(const Database& db, StreamingOptions options)
    : db_(&db), options_(std::move(options)) {
  planes_.resize(1 + options_.planes.size());
  for (size_t p = 0; p < planes_.size(); ++p) {
    Plane& plane = planes_[p];
    if (p > 0) {
      plane.items = options_.planes[p - 1];
      NSE_CHECK(!plane.items.empty());
    }
    plane.graph = ConflictGraph({}, CycleMode::kIncremental);
    AddSlots(plane, kInitialSlots);
  }
}

Status StreamingChecker::Feed(const HistoryEvent& event) {
  if (finished_) {
    return Status::FailedPrecondition("Feed after Finish");
  }
  const auto fail = [&](StatusCode code, const std::string& what) {
    return Status(code, StrCat("event ", stats_.events, " (",
                               HistoryEventTypeName(event.type), " txn ",
                               event.txn, "): ", what));
  };
  if (event.txn == 0) {
    return fail(StatusCode::kInvalidArgument, "transaction ids must be >= 1");
  }
  const size_t event_index = stats_.events;
  switch (event.type) {
    case HistoryEventType::kBegin:
      if (active_.count(event.txn) != 0) {
        return fail(StatusCode::kFailedPrecondition,
                    "duplicate begin of an active transaction");
      }
      if (aborted_.count(event.txn) != 0) {
        return fail(StatusCode::kFailedPrecondition,
                    "transaction id reused after abort");
      }
      active_.insert(event.txn);
      break;
    case HistoryEventType::kRead:
    case HistoryEventType::kWrite: {
      if (active_.count(event.txn) == 0) {
        return fail(StatusCode::kFailedPrecondition,
                    "operation of a transaction that is not active");
      }
      if (event.item >= db_->num_items()) {
        return fail(StatusCode::kNotFound,
                    StrCat("unknown item id ", event.item));
      }
      NSE_RETURN_IF_ERROR(FeedOp(event, event_index));
      ++stats_.ops;
      break;
    }
    case HistoryEventType::kCommit:
    case HistoryEventType::kAbort:
      if (active_.count(event.txn) == 0) {
        return fail(StatusCode::kFailedPrecondition,
                    "commit/abort of a transaction that is not active");
      }
      active_.erase(event.txn);
      if (event.type == HistoryEventType::kCommit) {
        FeedCommit(event.txn, event_index);
        ++stats_.commits;
      } else {
        FeedAbort(event.txn);
        ++stats_.aborts;
      }
      break;
  }
  ++stats_.events;
  return Status::Ok();
}

Status StreamingChecker::FeedOp(const HistoryEvent& event, size_t event_index) {
  const bool is_write = event.type == HistoryEventType::kWrite;
  for (Plane& plane : planes_) {
    if (plane.violated || !plane.Tracks(event.item)) continue;
    const uint32_t slot = EnsureSlot(plane, event.txn);
    plane.access.ForEachConflict(
        slot, is_write, event.item, [&](uint32_t from) {
          if (plane.graph.AddEdgeByIndexAt(from, slot, event_index)) {
            plane.edge_meta[EdgeKey(from, slot)] =
                EdgeMeta{next_seq_++, event_index};
          }
        });
    plane.access.Record(slot, is_write, event.item);
  }
  if (!is_write && event.read_from.has_value() && *event.read_from != 0 &&
      *event.read_from != event.txn) {
    TrackDirtyRead(event.txn, *event.read_from, event_index);
  }
  return Status::Ok();
}

void StreamingChecker::FeedCommit(TxnId txn, size_t event_index) {
  for (Plane& plane : planes_) {
    if (plane.violated) {
      auto it = plane.frozen_fates.find(txn);
      if (it != plane.frozen_fates.end() &&
          it->second == TxnFate::kIncomplete) {
        it->second = TxnFate::kCommitted;
      }
      continue;
    }
    auto slot_it = plane.slot_of.find(txn);
    if (slot_it == plane.slot_of.end()) continue;  // no tracked ops
    const uint32_t slot = slot_it->second;
    plane.slots[slot].committed = true;
    ++plane.committed_retained;
    if (plane.graph.InDegree(slot) == 0) plane.evictable.push_back(slot);
    if (plane.graph.has_cycle() && CommittedCycleThrough(plane, slot)) {
      LatchViolation(plane, event_index);
      continue;
    }
    if (options_.window != 0 &&
        plane.committed_retained > options_.window &&
        !plane.graph.has_cycle()) {
      EvictionSweep(plane);
    }
  }
  ResolveDirtyReads(txn, /*committed=*/true);
}

void StreamingChecker::FeedAbort(TxnId txn) {
  aborted_.insert(txn);
  for (Plane& plane : planes_) {
    if (plane.violated) {
      auto it = plane.frozen_fates.find(txn);
      if (it != plane.frozen_fates.end() &&
          it->second == TxnFate::kIncomplete) {
        it->second = TxnFate::kAborted;
      }
      continue;
    }
    auto slot_it = plane.slot_of.find(txn);
    if (slot_it == plane.slot_of.end()) continue;
    RetireSlot(plane, slot_it->second);
  }
  ResolveDirtyReads(txn, /*committed=*/false);
}

uint32_t StreamingChecker::EnsureSlot(Plane& plane, TxnId txn) {
  auto it = plane.slot_of.find(txn);
  if (it != plane.slot_of.end()) return it->second;
  if (plane.free_slots.empty()) {
    AddSlots(plane, plane.slots.size());  // doubles the capacity
    ++stats_.rebuilds;
  }
  const uint32_t slot = plane.free_slots.back();
  plane.free_slots.pop_back();
  plane.slots[slot] = SlotInfo{txn, /*committed=*/false};
  plane.slot_of.emplace(txn, slot);
  ++plane.occupied;
  stats_.peak_retained = std::max(stats_.peak_retained, plane.occupied);
  return slot;
}

void StreamingChecker::AddSlots(Plane& plane, size_t count) {
  const size_t old_cap = plane.slots.size();
  const size_t new_cap = old_cap + count;
  // Slot ids double as graph node ids; the graph grows in place, keeping
  // its edges, maintained order and cycle state.
  std::vector<TxnId> ids(count);
  for (size_t i = 0; i < count; ++i) ids[i] = static_cast<TxnId>(old_cap + i);
  plane.graph.AppendNodes(std::move(ids));
  plane.slots.resize(new_cap);
  for (size_t s = new_cap; s > old_cap; --s) {
    plane.free_slots.push_back(static_cast<uint32_t>(s - 1));
  }
}

void StreamingChecker::RetireSlot(Plane& plane, uint32_t slot) {
  for (TxnId pred : plane.graph.Predecessors(slot)) {
    plane.edge_meta.erase(EdgeKey(static_cast<uint32_t>(pred), slot));
  }
  const std::vector<TxnId> successors = plane.graph.Successors(slot);
  for (TxnId succ : successors) {
    plane.edge_meta.erase(EdgeKey(slot, static_cast<uint32_t>(succ)));
  }
  plane.graph.RemoveEdgesOf(slot);
  // A committed successor whose last in-edge this was becomes evictable.
  for (TxnId succ : successors) {
    if (plane.slots[succ].committed && plane.graph.InDegree(succ) == 0) {
      plane.evictable.push_back(static_cast<uint32_t>(succ));
    }
  }
  plane.access.Erase(slot);
  plane.slot_of.erase(plane.slots[slot].txn);
  if (plane.slots[slot].committed) --plane.committed_retained;
  plane.slots[slot] = SlotInfo{};
  plane.free_slots.push_back(slot);
  --plane.occupied;
}

void StreamingChecker::EvictionSweep(Plane& plane) {
  // Every worklist slot is committed with zero in-degree, which is final,
  // so it can never lie on a future cycle. Retiring one can push the
  // committed successors it freed, so the sweep cascades.
  while (plane.committed_retained > options_.window &&
         !plane.evictable.empty()) {
    const uint32_t slot = plane.evictable.back();
    plane.evictable.pop_back();
    NSE_DCHECK(plane.slots[slot].committed && plane.graph.InDegree(slot) == 0);
    RetireSlot(plane, slot);
    ++stats_.evictions;
  }
}

bool StreamingChecker::CommittedCycleThrough(const Plane& plane,
                                             uint32_t slot) const {
  // Depth-first over committed slots only, looking for a path back to
  // `slot`. Guarded by has_cycle(), so this runs rarely.
  std::vector<bool> visited(plane.slots.size(), false);
  std::vector<uint32_t> stack;
  stack.push_back(slot);
  while (!stack.empty()) {
    const uint32_t u = stack.back();
    stack.pop_back();
    for (TxnId succ : plane.graph.Successors(u)) {
      const uint32_t v = static_cast<uint32_t>(succ);
      if (v == slot) return true;
      if (!visited[v] && plane.slots[v].committed) {
        visited[v] = true;
        stack.push_back(v);
      }
    }
  }
  return false;
}

void StreamingChecker::LatchViolation(Plane& plane, size_t event_index) {
  plane.violated = true;
  plane.detected_at = event_index;
  violation_seen_ = true;
  // Snapshot every live edge with its creation rank and originating
  // event; fates of endpoints still active resolve as the log continues.
  plane.frozen.reserve(plane.edge_meta.size());
  for (const auto& [key, meta] : plane.edge_meta) {
    const uint32_t from = static_cast<uint32_t>(key >> 32);
    const uint32_t to = static_cast<uint32_t>(key & 0xffffffffu);
    plane.frozen.push_back(FrozenEdge{plane.slots[from].txn,
                                      plane.slots[to].txn, meta.seq,
                                      meta.event});
    for (uint32_t end : {from, to}) {
      const SlotInfo& info = plane.slots[end];
      auto it = plane.frozen_fates.emplace(info.txn, TxnFate::kIncomplete).first;
      if (info.committed) it->second = TxnFate::kCommitted;
    }
  }
  // Drop the live structures — the verdict is latched; only the frozen
  // snapshot and its fates matter now.
  plane.graph = ConflictGraph();
  plane.access.Clear();
  plane.slot_of.clear();
  plane.slots.clear();
  plane.free_slots.clear();
  plane.edge_meta.clear();
  plane.evictable.clear();
  plane.committed_retained = 0;
  plane.occupied = 0;
}

StreamingPlaneReport StreamingChecker::FinishPlane(Plane& plane) {
  StreamingPlaneReport report;
  if (!plane.violated) {
    // Sound and complete: with all fates settled, an acyclic live graph
    // means the committed projection is acyclic (evicted transactions
    // provably lie on no cycle).
    return report;
  }
  report.ok = false;
  report.detected_at = plane.detected_at;
  // Replay the snapshot's committed-committed edges in creation order —
  // exactly the batch plane's insertion sequence — to reproduce its first
  // cycle-closing edge, witness cycle, and event position.
  std::vector<FrozenEdge> edges;
  edges.reserve(plane.frozen.size());
  std::vector<TxnId> nodes;
  for (const FrozenEdge& edge : plane.frozen) {
    if (plane.frozen_fates.at(edge.from) != TxnFate::kCommitted ||
        plane.frozen_fates.at(edge.to) != TxnFate::kCommitted) {
      continue;
    }
    edges.push_back(edge);
    nodes.push_back(edge.from);
    nodes.push_back(edge.to);
  }
  std::sort(edges.begin(), edges.end(),
            [](const FrozenEdge& a, const FrozenEdge& b) {
              return a.seq < b.seq;
            });
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  const auto index_of = [&](TxnId txn) {
    return static_cast<uint32_t>(
        std::lower_bound(nodes.begin(), nodes.end(), txn) - nodes.begin());
  };
  ConflictGraph graph(nodes, CycleMode::kIncremental);
  for (const FrozenEdge& edge : edges) {
    graph.AddEdgeByIndexAt(index_of(edge.from), index_of(edge.to), edge.event);
  }
  NSE_CHECK(graph.has_cycle());
  HistoryViolation violation;
  violation.edge = *graph.cycle_edge();
  violation.event = *graph.cycle_op_pos();
  violation.cycle = *graph.cycle();
  report.violation = std::move(violation);
  return report;
}

void StreamingChecker::TrackDirtyRead(TxnId reader, TxnId writer,
                                      size_t event_index) {
  DirtyPending entry;
  entry.reader = reader;
  entry.writer = writer;
  entry.event = event_index;
  if (active_.count(writer) == 0) {
    // Retired writer: committed (clean) unless recorded as aborted.
    if (aborted_.count(writer) == 0) return;
    entry.writer_aborted = true;
  }
  size_t idx;
  if (!dirty_free_.empty()) {
    idx = dirty_free_.back();
    dirty_free_.pop_back();
    dirty_[idx] = entry;
  } else {
    idx = dirty_.size();
    dirty_.push_back(entry);
  }
  dirty_by_reader_.emplace(reader, idx);
  if (!entry.writer_aborted) dirty_by_writer_.emplace(writer, idx);
}

void StreamingChecker::RemoveDirtyIndex(
    std::unordered_multimap<TxnId, size_t>& index, TxnId key, size_t entry) {
  auto range = index.equal_range(key);
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second == entry) {
      index.erase(it);
      return;
    }
  }
}

void StreamingChecker::ResolveDirtyReads(TxnId txn, bool committed) {
  // As a writer: commit clears its entries, abort marks them dirty (and
  // fires the ones whose reader already committed).
  auto writer_range = dirty_by_writer_.equal_range(txn);
  std::vector<size_t> writer_entries;
  for (auto it = writer_range.first; it != writer_range.second; ++it) {
    writer_entries.push_back(it->second);
  }
  dirty_by_writer_.erase(writer_range.first, writer_range.second);
  for (size_t idx : writer_entries) {
    DirtyPending& entry = dirty_[idx];
    if (entry.dead) continue;
    if (committed) {
      entry.dead = true;
      RemoveDirtyIndex(dirty_by_reader_, entry.reader, idx);
      dirty_free_.push_back(idx);
    } else if (entry.reader_committed) {
      aborted_read_events_.push_back(entry.event);
      violation_seen_ = true;
      entry.dead = true;
      dirty_free_.push_back(idx);
    } else {
      entry.writer_aborted = true;  // waits for the reader's fate
    }
  }
  // As a reader: commit fires entries whose writer already aborted (or
  // parks them on the writer); abort drops them.
  auto reader_range = dirty_by_reader_.equal_range(txn);
  std::vector<size_t> reader_entries;
  for (auto it = reader_range.first; it != reader_range.second; ++it) {
    reader_entries.push_back(it->second);
  }
  dirty_by_reader_.erase(reader_range.first, reader_range.second);
  for (size_t idx : reader_entries) {
    DirtyPending& entry = dirty_[idx];
    if (entry.dead) continue;
    if (!committed) {
      entry.dead = true;
      RemoveDirtyIndex(dirty_by_writer_, entry.writer, idx);
      dirty_free_.push_back(idx);
    } else if (entry.writer_aborted) {
      aborted_read_events_.push_back(entry.event);
      violation_seen_ = true;
      entry.dead = true;
      dirty_free_.push_back(idx);
    } else {
      entry.reader_committed = true;  // waits for the writer's fate
    }
  }
}

StreamingReport StreamingChecker::Finish() {
  NSE_CHECK(!finished_);
  finished_ = true;
  StreamingReport report;
  report.full = FinishPlane(planes_[0]);
  for (size_t p = 1; p < planes_.size(); ++p) {
    report.planes.push_back(FinishPlane(planes_[p]));
  }
  std::sort(aborted_read_events_.begin(), aborted_read_events_.end());
  report.aborted_reads = aborted_read_events_;
  size_t retained = 0;
  for (const Plane& plane : planes_) {
    retained = std::max(retained, plane.occupied);
  }
  stats_.retained = retained;
  report.stats = stats_;
  return report;
}

StreamingReport CheckHistoryStreaming(const History& history,
                                      StreamingOptions options) {
  StreamingChecker checker(history.db, std::move(options));
  for (const HistoryEvent& event : history.events) {
    Status fed = checker.Feed(event);
    NSE_CHECK_MSG(fed.ok(), "%s", fed.ToString().c_str());
  }
  return checker.Finish();
}

}  // namespace nse
