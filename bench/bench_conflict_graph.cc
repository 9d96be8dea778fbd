// Per-tick cost of cycle detection over a waits-for / conflict graph: the
// legacy path (rebuild a ConflictGraph from the current edge set and run
// the batch DFS on every stall tick — what the simulator did before PR 3)
// vs. the incremental path (one persistent Pearce–Kelly graph, per-tick
// blocker-set diffs, O(1) cycle queries — WaitsForTracker).
//
// Workloads:
//  * stall ticks — n transactions, each with a slowly mutating blocker set
//    (the simulator's stall regime: consecutive ticks mostly identical).
//    Cycles that form are resolved by aborting the max-id transaction on
//    the witness, exactly like the simulator. The 64-txn row is the
//    reference configuration (ISSUE 3 targets >= 5x per tick on it).
//  * insert+query — a growing conflict graph asked "acyclic?" after every
//    insertion (the analysis-side shape: each AddEdge invalidates the
//    legacy topo cache, so every query pays O(V+E); the online order pays
//    O(affected region) once at insert).
//  * dense build — ConflictGraph::Build's bitset sweep vs the reference
//    vector sweep (oracles::BuildReference, tests/oracles) on a
//    many-txns/few-items schedule, with a bit-identical-graph differential
//    check before timing.
//  * batch build scaling — ConflictGraph::Build (the production batch
//    build: sweep, Kahn pass, first-cycle replay) on one seeded dense
//    generator at two sizes; `linearity` is ms/edge at the small size over
//    ms/edge at the large one: ~1 for a build linear in the edge count, far
//    below it for a super-linear one (an adjacency that compacted one
//    shared slab on every region overflow read ~0.1).
//
// Both modes run the same deterministic edge stream (seeded Rng); the
// incremental verdicts are NSE_CHECKed against the batch DFS reference on
// every tick, so the bench doubles as a differential test. --smoke runs
// tiny configurations (parity only, no JSON); the full run writes
// BENCH_conflict_graph.json (override the path with the last argument).

#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/conflict_graph.h"
#include "bench_report.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "oracles/oracles.h"
#include "scheduler/metrics.h"
#include "scheduler/waits_for.h"

namespace nse {
namespace {

/// Deterministic evolution of per-txn blocker sets, shared by both modes.
/// Each tick mutates a few transactions' blocker sets; the consumer decides
/// what a "cycle found" costs (legacy rebuild+DFS vs incremental diff).
struct StallWorkload {
  size_t num_txns;
  size_t ticks;
  double mutate_probability;  // per txn per tick
  uint64_t seed;
};

std::vector<TxnId> DrawBlockers(Rng& rng, TxnId txn, size_t num_txns) {
  // 0-3 blockers, biased toward neighbours (lock queues are local).
  std::vector<TxnId> blockers;
  size_t count = rng.NextBelow(4);
  for (size_t i = 0; i < count; ++i) {
    TxnId blocker =
        1 + static_cast<TxnId>(
                (txn - 1 + 1 + rng.NextBelow(std::min<size_t>(num_txns, 8))) %
                num_txns);
    if (blocker != txn) blockers.push_back(blocker);
  }
  return blockers;
}

struct StallStats {
  uint64_t cycles_resolved = 0;
  uint64_t edge_updates = 0;  // incremental only: graph mutations performed
};

/// Legacy per-tick path: rebuild the graph from the live blocker sets and
/// run the batch DFS (FindCycle) — the pre-PR-3 simulator stall tick.
double RunLegacy(const StallWorkload& w, StallStats& stats) {
  Rng rng(w.seed);
  std::vector<std::vector<TxnId>> waits(w.num_txns + 1);
  std::vector<TxnId> ids;
  for (TxnId id = 1; id <= w.num_txns; ++id) ids.push_back(id);
  auto start = std::chrono::steady_clock::now();
  for (size_t tick = 0; tick < w.ticks; ++tick) {
    for (TxnId txn = 1; txn <= w.num_txns; ++txn) {
      if (rng.NextDouble() < w.mutate_probability) {
        waits[txn] = DrawBlockers(rng, txn, w.num_txns);
      }
    }
    ConflictGraph graph(ids);
    for (TxnId txn = 1; txn <= w.num_txns; ++txn) {
      for (TxnId blocker : waits[txn]) graph.AddEdge(txn, blocker);
    }
    auto cycle = graph.FindCycle();
    if (cycle.has_value()) {
      TxnId victim = *std::max_element(cycle->begin(), cycle->end());
      waits[victim].clear();
      for (auto& set : waits) {
        set.erase(std::remove(set.begin(), set.end(), victim), set.end());
      }
      ++stats.cycles_resolved;
    }
  }
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Incremental path: one persistent tracker, per-tick diffs, O(1) query.
/// When `check` is set, every tick's verdict is cross-checked against a
/// freshly built batch graph + DFS (the reference implementation).
double RunIncremental(const StallWorkload& w, StallStats& stats, bool check) {
  Rng rng(w.seed);
  std::vector<std::vector<TxnId>> waits(w.num_txns + 1);
  WaitsForTracker tracker;
  tracker.EnsureTxns(w.num_txns);
  auto start = std::chrono::steady_clock::now();
  for (size_t tick = 0; tick < w.ticks; ++tick) {
    for (TxnId txn = 1; txn <= w.num_txns; ++txn) {
      if (rng.NextDouble() < w.mutate_probability) {
        waits[txn] = DrawBlockers(rng, txn, w.num_txns);
        tracker.SetWaits(txn, waits[txn]);
      }
    }
    bool cyclic = tracker.has_cycle();
    if (check) {
      std::vector<TxnId> ids;
      for (TxnId id = 1; id <= w.num_txns; ++id) ids.push_back(id);
      ConflictGraph reference(ids);
      for (TxnId txn = 1; txn <= w.num_txns; ++txn) {
        for (TxnId blocker : waits[txn]) {
          if (blocker != txn) reference.AddEdge(txn, blocker);
        }
      }
      NSE_CHECK_MSG(reference.FindCycle().has_value() == cyclic,
                    "incremental verdict diverged from DFS at tick %zu",
                    tick);
    }
    if (cyclic) {
      const std::vector<TxnId>& cycle = *tracker.cycle();
      TxnId victim = *std::max_element(cycle.begin(), cycle.end());
      waits[victim].clear();
      for (auto& set : waits) {
        set.erase(std::remove(set.begin(), set.end(), victim), set.end());
      }
      tracker.OnResolved(victim);
      ++stats.cycles_resolved;
    }
  }
  auto end = std::chrono::steady_clock::now();
  stats.edge_updates = tracker.edges_added() + tracker.edges_removed();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Insert+query: every insertion followed by an acyclicity query.
double RunInsertQuery(size_t num_txns, size_t edges, uint64_t seed,
                      bool incremental, uint64_t& cyclic_at) {
  Rng rng(seed);
  std::vector<TxnId> ids;
  for (TxnId id = 1; id <= num_txns; ++id) ids.push_back(id);
  ConflictGraph graph(std::move(ids), incremental ? CycleMode::kIncremental
                                                  : CycleMode::kBatch);
  cyclic_at = 0;
  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < edges; ++i) {
    uint32_t from = static_cast<uint32_t>(rng.NextBelow(num_txns));
    uint32_t to = static_cast<uint32_t>(rng.NextBelow(num_txns));
    if (from == to) continue;
    graph.AddEdgeByIndexAt(from, to, i);
    if (!graph.IsAcyclic() && cyclic_at == 0) cyclic_at = i + 1;
  }
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Seeded random schedule: `ops` accesses, each by a uniform txn of
/// `num_txns` on a uniform item of `items`, reads and writes equally likely.
Schedule RandomSchedule(size_t num_txns, size_t items, size_t ops,
                        uint64_t seed) {
  Rng rng(seed);
  OpSequence seq;
  for (size_t i = 0; i < ops; ++i) {
    TxnId txn = static_cast<TxnId>(1 + rng.NextBelow(num_txns));
    ItemId item = static_cast<ItemId>(rng.NextBelow(items));
    if (rng.NextBool(0.5)) {
      seq.push_back(Operation::Write(txn, item, Value(0)));
    } else {
      seq.push_back(Operation::Read(txn, item, Value(0)));
    }
  }
  return Schedule(std::move(seq));
}

struct Row {
  std::string workload;
  size_t txns = 0;
  size_t ticks = 0;  // stall ticks, inserted edges, or schedule ops
  double legacy_ms = 0;
  double incremental_ms = 0;
  uint64_t cycles_resolved = 0;
  uint64_t edge_updates = 0;
};

double BestOf(int reps, const std::function<double()>& run) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    double ms = run();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace
}  // namespace nse

int main(int argc, char** argv) {
  using namespace nse;
  const bench::BenchArgs args =
      bench::ParseBenchArgs(argc, argv, "BENCH_conflict_graph.json");
  const bool smoke = args.smoke;
  const int reps = smoke ? 1 : 3;

  std::vector<StallWorkload> stalls =
      smoke ? std::vector<StallWorkload>{{16, 200, 0.05, 7},
                                         {64, 100, 0.05, 11}}
            : std::vector<StallWorkload>{{64, 20000, 0.02, 7},
                                         {256, 8000, 0.02, 11}};

  TablePrinter table({"workload", "txns", "ticks", "legacy us/tick",
                      "incr us/tick", "speedup", "cycles"});
  bench::BenchReport report("conflict_graph");
  auto add_row = [&](const Row& row, bool stall) {
    const double legacy_per_tick_us = row.legacy_ms * 1000.0 / row.ticks;
    const double incr_per_tick_us = row.incremental_ms * 1000.0 / row.ticks;
    const double speedup =
        row.incremental_ms == 0 ? 0 : row.legacy_ms / row.incremental_ms;
    table.AddRow({row.workload, StrCat(row.txns), StrCat(row.ticks),
                  FormatDouble(legacy_per_tick_us, 3),
                  FormatDouble(incr_per_tick_us, 3),
                  StrCat(FormatDouble(speedup, 2), "x"),
                  stall ? StrCat(row.cycles_resolved) : "-"});
    report.AddRow()
        .Key("workload", row.workload)
        .Key("txns", row.txns)
        .Key("ticks", row.ticks)
        .Exact("cycles_resolved", row.cycles_resolved)
        .Ratio("speedup", speedup)
        .Info("legacy_ms", row.legacy_ms)
        .Info("incremental_ms", row.incremental_ms)
        .Info("legacy_per_tick_us", legacy_per_tick_us)
        .Info("incremental_per_tick_us", incr_per_tick_us)
        .Info("edge_updates", row.edge_updates);
  };

  for (const StallWorkload& w : stalls) {
    // Parity first (always): the incremental verdict must match the batch
    // DFS on every tick of the stream.
    StallStats parity;
    RunIncremental(w, parity, /*check=*/true);

    StallStats legacy_stats;
    StallStats incr_stats;
    double legacy_ms = BestOf(reps, [&] {
      legacy_stats = StallStats();
      return RunLegacy(w, legacy_stats);
    });
    double incr_ms = BestOf(reps, [&] {
      incr_stats = StallStats();
      return RunIncremental(w, incr_stats, /*check=*/false);
    });
    NSE_CHECK_MSG(legacy_stats.cycles_resolved > 0,
                  "stall workload produced no deadlocks — not representative");

    Row row;
    row.workload = StrCat("stall_", w.num_txns, "txn");
    row.txns = w.num_txns;
    row.ticks = w.ticks;
    row.legacy_ms = legacy_ms;
    row.incremental_ms = incr_ms;
    row.cycles_resolved = incr_stats.cycles_resolved;
    row.edge_updates = incr_stats.edge_updates;
    add_row(row, /*stall=*/true);
  }

  struct InsertCase {
    size_t txns;
    size_t edges;
  };
  std::vector<InsertCase> inserts =
      smoke ? std::vector<InsertCase>{{32, 200}}
            : std::vector<InsertCase>{{256, 4000}};
  for (const InsertCase& c : inserts) {
    uint64_t cyclic_batch = 0;
    uint64_t cyclic_incr = 0;
    double legacy_ms = BestOf(reps, [&] {
      return RunInsertQuery(c.txns, c.edges, 23, false, cyclic_batch);
    });
    double incr_ms = BestOf(reps, [&] {
      return RunInsertQuery(c.txns, c.edges, 23, true, cyclic_incr);
    });
    // Differential contract: both modes report the cycle on the same edge.
    NSE_CHECK_MSG(cyclic_batch == cyclic_incr,
                  "first cyclic insertion differs: batch %llu vs incr %llu",
                  static_cast<unsigned long long>(cyclic_batch),
                  static_cast<unsigned long long>(cyclic_incr));

    Row row;
    row.workload = StrCat("insert_query_", c.txns, "txn");
    row.txns = c.txns;
    row.ticks = c.edges;
    row.legacy_ms = legacy_ms;
    row.incremental_ms = incr_ms;
    add_row(row, /*stall=*/false);
  }

  // Dense-item builds: many txns hammering a handful of items — the worst
  // case for the reference vector sweep (every access rescans long
  // reader/writer histories) and the target case for the bitset planes
  // (word-parallel novelty masks + first-occurrence emission).
  struct DenseCase {
    size_t txns;
    size_t items;
    size_t ops;
  };
  std::vector<DenseCase> dense_cases =
      smoke ? std::vector<DenseCase>{{48, 2, 400}}
            : std::vector<DenseCase>{{256, 4, 6000}};
  for (const DenseCase& c : dense_cases) {
    const Schedule schedule = RandomSchedule(c.txns, c.items, c.ops, 31);

    // Differential contract first: the dense fast path must produce the
    // bit-identical graph (same edges in the same order).
    {
      ConflictGraph dense = ConflictGraph::Build(schedule);
      ConflictGraph reference = oracles::BuildReference(schedule);
      NSE_CHECK_MSG(dense.Edges() == reference.Edges(),
                    "dense build diverged from the reference sweep");
      NSE_CHECK_MSG(dense.ToString() == reference.ToString(),
                    "dense build render diverged from the reference sweep");
    }

    double reference_ms = BestOf(reps, [&] {
      auto start = std::chrono::steady_clock::now();
      ConflictGraph g = oracles::BuildReference(schedule);
      auto end = std::chrono::steady_clock::now();
      NSE_CHECK(g.num_edges() > 0);
      return std::chrono::duration<double, std::milli>(end - start).count();
    });
    double dense_ms = BestOf(reps, [&] {
      auto start = std::chrono::steady_clock::now();
      ConflictGraph g = ConflictGraph::Build(schedule);
      auto end = std::chrono::steady_clock::now();
      NSE_CHECK(g.num_edges() > 0);
      return std::chrono::duration<double, std::milli>(end - start).count();
    });

    Row row;
    row.workload = StrCat("dense_build_", c.txns, "txn_", c.items, "item");
    row.txns = c.txns;
    row.ticks = c.ops;
    row.legacy_ms = reference_ms;
    row.incremental_ms = dense_ms;
    add_row(row, /*stall=*/false);
  }

  // Batch-build scaling: the same generator (4 accesses per txn over 64
  // items, so edges grow quadratically) at two sizes; per-edge cost must
  // not grow with the graph.
  const size_t small_txns = smoke ? 100 : 750;
  const size_t large_txns = smoke ? 400 : 3000;
  size_t scaling_edges[2] = {0, 0};
  double scaling_ms[2] = {0, 0};
  for (int k = 0; k < 2; ++k) {
    const size_t txns = k == 0 ? small_txns : large_txns;
    const Schedule schedule = RandomSchedule(txns, 64, 4 * txns, 37);
    scaling_ms[k] = bench::BestOfMs(reps, [&] {
      ConflictGraph g = ConflictGraph::Build(schedule);
      scaling_edges[k] = g.num_edges();
    });
  }
  const double linearity = (scaling_ms[0] / scaling_edges[0]) /
                           (scaling_ms[1] / scaling_edges[1]);
  report.AddRow()
      .Key("workload", "batch_build_scaling")
      .Key("txns_small", small_txns)
      .Key("txns_large", large_txns)
      .Exact("edges_small", scaling_edges[0])
      .Exact("edges_large", scaling_edges[1])
      .Ratio("linearity", linearity)
      .Info("small_ms", scaling_ms[0])
      .Info("large_ms", scaling_ms[1]);

  std::cout << "\n=== Conflict graph: incremental (Pearce-Kelly) vs "
               "rebuild+DFS per tick ===\n"
            << table.Render()
            << "(legacy = rebuild graph + batch DFS per tick; incremental = "
               "persistent graph, blocker-set diffs, O(1) cycle query)\n"
            << "batch build scaling: " << small_txns << " txns / "
            << scaling_edges[0] << " edges in "
            << FormatDouble(scaling_ms[0], 3) << " ms, " << large_txns
            << " txns / " << scaling_edges[1] << " edges in "
            << FormatDouble(scaling_ms[1], 3)
            << " ms, linearity (ms/edge small / large) "
            << FormatDouble(linearity, 3) << "\n";

  if (smoke) {
    std::cout << "smoke mode: incremental-vs-DFS parity checks passed, "
                 "no baseline written\n";
    return 0;
  }

  return report.Write(args.json_path) ? 0 : 1;
}
