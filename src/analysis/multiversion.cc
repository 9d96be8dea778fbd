#include "analysis/multiversion.h"

#include <algorithm>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/conflict_graph.h"
#include "common/string_util.h"

namespace nse {

namespace {

/// One operation of a transaction, reduced to what the serial-order search
/// needs: action, item, and (for reads) the required observed writer.
struct MvOp {
  bool is_read = false;
  ItemId item = 0;
  TxnId source = 0;  // reads only: required writer (0 = initial state)
};

/// Per-item write metadata harvested in one pass over the trace.
struct ItemWrites {
  std::vector<TxnId> order;  // distinct writers, by first write position
  TxnId final_writer = 0;    // writer of the last write in the trace
};

std::unordered_map<ItemId, ItemWrites> CollectWrites(
    const Schedule& schedule) {
  std::unordered_map<ItemId, ItemWrites> writes;
  for (const Operation& op : schedule.ops()) {
    if (!op.is_write()) continue;
    ItemWrites& entry = writes[op.entity];
    if (std::find(entry.order.begin(), entry.order.end(), op.txn) ==
        entry.order.end()) {
      entry.order.push_back(op.txn);
    }
    entry.final_writer = op.txn;
  }
  return writes;
}

/// Resolves the effective reads-from of every position: the annotation when
/// present, the latest preceding write otherwise (0 = initial state).
std::vector<std::optional<TxnId>> ResolveReadSources(
    const Schedule& schedule, const VersionAnnotations& versions) {
  std::vector<std::optional<TxnId>> resolved(schedule.size());
  std::unordered_map<ItemId, TxnId> last_writer;
  for (size_t p = 0; p < schedule.size(); ++p) {
    const Operation& op = schedule.at(p);
    if (op.is_write()) {
      last_writer[op.entity] = op.txn;
      continue;
    }
    if (p < versions.read_from.size() && versions.read_from[p].has_value()) {
      resolved[p] = versions.read_from[p];
    } else {
      auto it = last_writer.find(op.entity);
      resolved[p] = it == last_writer.end() ? TxnId{0} : it->second;
    }
  }
  return resolved;
}

/// The search input: transactions with their reduced op lists.
struct SearchInput {
  std::vector<TxnId> txns;                 // ascending
  std::vector<std::vector<MvOp>> ops;      // parallel to txns
  std::unordered_map<TxnId, size_t> index;  // txn -> position in txns
};

SearchInput BuildSearchInput(
    const Schedule& schedule,
    const std::vector<std::optional<TxnId>>& sources) {
  SearchInput input;
  input.txns = schedule.txn_ids();
  input.ops.resize(input.txns.size());
  for (size_t k = 0; k < input.txns.size(); ++k) input.index[input.txns[k]] = k;
  for (size_t p = 0; p < schedule.size(); ++p) {
    const Operation& op = schedule.at(p);
    MvOp reduced;
    reduced.is_read = op.is_read();
    reduced.item = op.entity;
    if (op.is_read()) reduced.source = sources[p].value_or(0);
    input.ops[input.index.at(op.txn)].push_back(reduced);
  }
  return input;
}

/// True iff placing `t` next in the serial order is consistent with its
/// required reads-from, given the current last committed writer per item.
bool Feasible(const std::vector<MvOp>& ops, TxnId t,
              const std::unordered_map<ItemId, TxnId>& committed) {
  std::unordered_set<ItemId> own;
  for (const MvOp& op : ops) {
    if (!op.is_read) {
      own.insert(op.item);
      continue;
    }
    TxnId actual;
    if (own.count(op.item) > 0) {
      actual = t;
    } else {
      auto it = committed.find(op.item);
      actual = it == committed.end() ? TxnId{0} : it->second;
    }
    if (actual != op.source) return false;
  }
  return true;
}

/// Exhaustive serial-order search with reads-from feasibility pruning.
/// Returns kFound / kExhausted / kCapped via the report it fills.
enum class SearchOutcome { kFound, kExhausted, kCapped };

SearchOutcome SearchSerialOrder(
    const SearchInput& input,
    const std::unordered_map<ItemId, TxnId>* required_finals,
    uint64_t node_limit, std::vector<TxnId>& order, uint64_t& nodes) {
  const size_t n = input.txns.size();
  std::vector<bool> used(n, false);
  std::unordered_map<ItemId, TxnId> committed;
  order.clear();
  bool capped = false;

  std::function<bool(size_t)> place = [&](size_t depth) {
    if (depth == n) {
      if (required_finals != nullptr) {
        for (const auto& [item, writer] : *required_finals) {
          auto it = committed.find(item);
          if (it == committed.end() || it->second != writer) return false;
        }
      }
      return true;
    }
    for (size_t k = 0; k < n; ++k) {
      if (used[k]) continue;
      if (++nodes > node_limit) {
        capped = true;
        return false;
      }
      const TxnId t = input.txns[k];
      if (!Feasible(input.ops[k], t, committed)) continue;
      used[k] = true;
      order.push_back(t);
      // Overwrite-and-restore: remember each touched item's prior writer.
      std::vector<std::pair<ItemId, TxnId>> saved;
      for (const MvOp& op : input.ops[k]) {
        if (op.is_read) continue;
        auto it = committed.find(op.item);
        saved.emplace_back(op.item, it == committed.end() ? TxnId{0}
                                                          : it->second);
        committed[op.item] = t;
      }
      if (place(depth + 1)) return true;
      for (auto rit = saved.rbegin(); rit != saved.rend(); ++rit) {
        if (rit->second == 0) {
          committed.erase(rit->first);
        } else {
          committed[rit->first] = rit->second;
        }
      }
      order.pop_back();
      used[k] = false;
      if (capped) return false;
    }
    return false;
  };

  if (place(0)) return SearchOutcome::kFound;
  return capped ? SearchOutcome::kCapped : SearchOutcome::kExhausted;
}

/// MVSG fast path: edges under the trace's per-item write order as the
/// version order. Returns a topological order when acyclic.
std::optional<std::vector<TxnId>> MvsgTopologicalOrder(
    const SearchInput& input,
    const std::vector<std::optional<TxnId>>& sources, const Schedule& schedule,
    const std::unordered_map<ItemId, ItemWrites>& writes) {
  ConflictGraph graph(input.txns);
  auto add_edge = [&graph](TxnId from, TxnId to) {
    if (from != to) graph.AddEdge(from, to);
  };
  // Version rank of txn i's version of `item`; the initial version ranks
  // below every written one.
  auto rank_of = [&](const ItemWrites& entry, TxnId txn) -> int {
    if (txn == 0) return -1;
    auto it = std::find(entry.order.begin(), entry.order.end(), txn);
    return static_cast<int>(it - entry.order.begin());
  };
  for (size_t p = 0; p < schedule.size(); ++p) {
    const Operation& op = schedule.at(p);
    if (!op.is_read()) continue;
    const TxnId reader = op.txn;
    const TxnId source = sources[p].value_or(0);
    auto writes_it = writes.find(op.entity);
    if (source != 0 && source != reader) add_edge(source, reader);
    if (writes_it == writes.end()) continue;
    const ItemWrites& entry = writes_it->second;
    const int source_rank = rank_of(entry, source);
    for (TxnId other : entry.order) {
      if (other == source || other == reader) continue;
      if (rank_of(entry, other) < source_rank) {
        add_edge(other, source);
      } else {
        add_edge(reader, other);
      }
    }
  }
  // Smallest-id-first topological order, the deterministic witness.
  return graph.TopologicalOrder();
}

std::string RenderOrder(const std::vector<TxnId>& order) {
  std::vector<std::string> parts;
  parts.reserve(order.size());
  for (TxnId txn : order) parts.push_back(StrCat("T", txn));
  return StrJoin(parts, " ");
}

/// Shared driver for both criteria. `required_finals` non-null switches on
/// classical view equivalence's final-write condition.
MultiversionReport Decide(const Schedule& schedule,
                          const std::vector<std::optional<TxnId>>& sources,
                          const std::unordered_map<ItemId, TxnId>* finals,
                          uint64_t node_limit, std::string_view criterion) {
  MultiversionReport report;
  const std::unordered_map<ItemId, ItemWrites> writes =
      CollectWrites(schedule);
  // A read annotated with a transaction that never writes the item is a
  // malformed trace, refuted without a search.
  for (size_t p = 0; p < schedule.size(); ++p) {
    const Operation& op = schedule.at(p);
    if (!op.is_read() || !sources[p].has_value() || *sources[p] == 0) {
      continue;
    }
    auto it = writes.find(op.entity);
    if (it == writes.end() ||
        std::find(it->second.order.begin(), it->second.order.end(),
                  *sources[p]) == it->second.order.end()) {
      report.satisfied = false;
      report.detail =
          StrCat("position ", p, " reads from T", *sources[p],
                 ", which never writes the item — malformed annotation");
      return report;
    }
  }
  const SearchInput input = BuildSearchInput(schedule, sources);
  std::optional<std::vector<TxnId>> topo =
      MvsgTopologicalOrder(input, sources, schedule, writes);
  if (topo.has_value()) {
    // A topological order of the MVSG reproduces the reads-from; for view
    // equivalence it must additionally land the same final writes.
    bool finals_ok = true;
    if (finals != nullptr) {
      std::unordered_map<ItemId, TxnId> last;
      for (TxnId txn : *topo) {
        for (const MvOp& op : input.ops[input.index.at(txn)]) {
          if (!op.is_read) last[op.item] = txn;
        }
      }
      for (const auto& [item, writer] : *finals) {
        auto it = last.find(item);
        if (it == last.end() || it->second != writer) {
          finals_ok = false;
          break;
        }
      }
    }
    if (finals_ok) {
      report.satisfied = true;
      report.fast_path = true;
      report.detail = StrCat(criterion,
                             " via acyclic MVSG under the trace version "
                             "order; serial order ",
                             RenderOrder(*topo));
      report.order = std::move(topo);
      return report;
    }
  }
  // Exact tier: the trace version order is only a candidate (Thomas-rule
  // writes land older than wall order), so search serial orders outright.
  std::vector<TxnId> order;
  switch (SearchSerialOrder(input, finals, node_limit, order,
                            report.nodes_visited)) {
    case SearchOutcome::kFound:
      report.satisfied = true;
      report.detail = StrCat(criterion, " via serial-order search (",
                             report.nodes_visited, " nodes); serial order ",
                             RenderOrder(order));
      report.order = std::move(order);
      return report;
    case SearchOutcome::kExhausted:
      report.satisfied = false;
      report.detail =
          StrCat("no serial order reproduces the ",
                 finals != nullptr ? "reads-from and final writes"
                                   : "annotated reads-from",
                 " (search exhausted, ", report.nodes_visited, " nodes)");
      return report;
    case SearchOutcome::kCapped:
      report.decided = false;
      report.satisfied = false;
      report.detail = StrCat("serial-order search exceeded ", node_limit,
                             " nodes before deciding");
      return report;
  }
  return report;
}

}  // namespace

VersionAnnotations MonoversionAnnotations(const Schedule& schedule) {
  VersionAnnotations versions;
  versions.read_from.resize(schedule.size());
  std::unordered_map<ItemId, TxnId> last_writer;
  for (size_t p = 0; p < schedule.size(); ++p) {
    const Operation& op = schedule.at(p);
    if (op.is_write()) {
      last_writer[op.entity] = op.txn;
      continue;
    }
    auto it = last_writer.find(op.entity);
    versions.read_from[p] = it == last_writer.end() ? TxnId{0} : it->second;
  }
  return versions;
}

MultiversionReport CheckMvsr(const Schedule& schedule,
                             const VersionAnnotations& versions,
                             uint64_t node_limit) {
  const std::vector<std::optional<TxnId>> sources =
      ResolveReadSources(schedule, versions);
  return Decide(schedule, sources, /*finals=*/nullptr, node_limit, "MVSR");
}

MultiversionReport CheckViewSerializability(const Schedule& schedule,
                                            uint64_t node_limit) {
  const std::vector<std::optional<TxnId>> sources =
      ResolveReadSources(schedule, VersionAnnotations{});
  std::unordered_map<ItemId, TxnId> finals;
  for (const Operation& op : schedule.ops()) {
    if (op.is_write()) finals[op.entity] = op.txn;
  }
  return Decide(schedule, sources, &finals, node_limit,
                "view-serializable");
}

}  // namespace nse
