#include "analysis/access_graph.h"

#include <algorithm>
#include <cstdint>

#include "common/string_util.h"

namespace nse {

namespace {

/// Calls visit(b) for every set bit b of the `words`-word bitset, ascending.
template <typename VisitFn>
void ForEachBit(const uint64_t* bits, size_t words, VisitFn visit) {
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      visit(w * 64 + static_cast<size_t>(__builtin_ctzll(word)));
    }
  }
}

}  // namespace

DataAccessGraph DataAccessGraph::Build(const Schedule& schedule,
                                       const IntegrityConstraint& ic) {
  DataAccessGraph graph;
  const size_t l = ic.num_conjuncts();
  graph.adj_.assign(l, std::vector<bool>(l, false));
  const std::vector<TxnId>& txn_ids = schedule.txn_ids();
  // Per transaction, two conjunct bitsets of `words` words each: the
  // conjuncts it reads in, then the conjuncts it writes in.
  const size_t words = (l + 63) / 64;
  std::vector<uint64_t> touched(txn_ids.size() * 2 * words, 0);
  for (const Operation& op : schedule.ops()) {
    const std::vector<IntegrityConstraint::ConjunctSlot>& slots =
        ic.SlotsOf(op.entity);
    if (slots.empty()) continue;
    const size_t idx = static_cast<size_t>(
        std::lower_bound(txn_ids.begin(), txn_ids.end(), op.txn) -
        txn_ids.begin());
    uint64_t* set =
        touched.data() + (2 * idx + (op.is_write() ? 1 : 0)) * words;
    for (const IntegrityConstraint::ConjunctSlot& at : slots) {
      set[at.conjunct >> 6] |= uint64_t{1} << (at.conjunct & 63);
    }
  }
  for (size_t idx = 0; idx < txn_ids.size(); ++idx) {
    const uint64_t* reads = touched.data() + 2 * idx * words;
    const uint64_t* writes = reads + words;
    ForEachBit(reads, words, [&](size_t i) {
      ForEachBit(writes, words, [&](size_t j) {
        if (i != j) graph.adj_[i][j] = true;
      });
    });
  }
  return graph;
}

std::vector<std::pair<size_t, size_t>> DataAccessGraph::Edges() const {
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t i = 0; i < adj_.size(); ++i) {
    for (size_t j = 0; j < adj_.size(); ++j) {
      if (adj_[i][j]) out.emplace_back(i, j);
    }
  }
  return out;
}

std::optional<std::vector<size_t>> DataAccessGraph::TopologicalOrder() const {
  size_t n = adj_.size();
  std::vector<size_t> indegree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (adj_[i][j]) ++indegree[j];
    }
  }
  std::vector<size_t> ready;
  for (size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push_back(i);
  }
  std::vector<size_t> order;
  while (!ready.empty()) {
    auto it = std::min_element(ready.begin(), ready.end());
    size_t node = *it;
    ready.erase(it);
    order.push_back(node);
    for (size_t j = 0; j < n; ++j) {
      if (adj_[node][j] && --indegree[j] == 0) ready.push_back(j);
    }
  }
  if (order.size() != n) return std::nullopt;
  return order;
}

bool DataAccessGraph::IsAcyclic() const {
  return TopologicalOrder().has_value();
}

std::string DataAccessGraph::ToString() const {
  std::vector<std::string> parts;
  for (const auto& [from, to] : Edges()) {
    parts.push_back(StrCat("C", from + 1, " -> C", to + 1));
  }
  return StrJoin(parts, ", ");
}

}  // namespace nse
