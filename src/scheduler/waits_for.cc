#include "scheduler/waits_for.h"

#include <algorithm>

namespace nse {

void WaitsForTracker::EnsureTxns(size_t n) {
  if (n <= capacity_) return;
  size_t grown = std::max(n, capacity_ == 0 ? size_t{8} : capacity_ * 2);
  // The graph grows in place: the current waits, the maintained order and
  // any recorded cycle carry over untouched.
  std::vector<TxnId> ids;
  ids.reserve(grown - capacity_);
  for (TxnId id = capacity_ + 1; id <= grown; ++id) ids.push_back(id);
  graph_.AppendNodes(std::move(ids));
  waits_.resize(grown + 1);
  capacity_ = grown;
}

void WaitsForTracker::SetWaits(TxnId txn, const std::vector<TxnId>& blockers) {
  TxnId high = txn;
  for (TxnId blocker : blockers) high = std::max(high, blocker);
  EnsureTxns(high);

  std::vector<TxnId> next;
  next.reserve(blockers.size());
  for (TxnId blocker : blockers) {
    if (blocker != txn && blocker != 0) next.push_back(blocker);
  }
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());

  std::vector<TxnId>& prev = waits_[txn];
  if (next == prev) return;  // the common stall tick: nothing changed
  // Retract stale edges first (removals cannot create cycles), then insert
  // the new waits — each insert is where a deadlock can close.
  for (TxnId old : prev) {
    if (!std::binary_search(next.begin(), next.end(), old)) {
      graph_.RemoveEdge(txn, old);
      ++edges_removed_;
    }
  }
  for (TxnId blocker : next) {
    if (!std::binary_search(prev.begin(), prev.end(), blocker)) {
      graph_.AddEdge(txn, blocker);
      ++edges_added_;
    }
  }
  prev = std::move(next);
}

void WaitsForTracker::OnResolved(TxnId txn) {
  if (txn > capacity_) return;
  size_t dropped = waits_[txn].size();
  // Strip txn from its waiters' recorded blocker sets (exactly the graph's
  // predecessors of txn) so later diffs stay in sync with the graph —
  // O(degree), not O(capacity).
  for (TxnId waiter : graph_.Predecessors(txn)) {
    std::vector<TxnId>& set = waits_[waiter];
    auto it = std::lower_bound(set.begin(), set.end(), txn);
    if (it != set.end() && *it == txn) {
      set.erase(it);
      ++dropped;
    }
  }
  graph_.RemoveEdgesOf(txn);
  waits_[txn].clear();
  edges_removed_ += dropped;
}

}  // namespace nse
