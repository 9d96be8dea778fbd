// Incremental (Pearce–Kelly) cycle detection, differentially tested against
// the batch DFS reference: randomized insert-only edge streams must agree
// with the reference on the acyclicity verdict after every insertion and
// fire cycle detection on exactly the same edge, and the maintained online
// order must be a valid topological order at every acyclic step.

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/conflict_graph.h"
#include "common/rng.h"
#include "fuzz_env.h"
#include "oracles/oracles.h"

namespace nse {
namespace {

std::vector<TxnId> Nodes(size_t n) {
  std::vector<TxnId> nodes;
  for (TxnId id = 1; id <= n; ++id) nodes.push_back(id);
  return nodes;
}

/// Asserts `order` is a valid topological order of `graph`: a permutation
/// of the nodes with every edge pointing forward.
void ExpectValidTopoOrder(const ConflictGraph& graph,
                          const std::vector<TxnId>& order) {
  std::vector<TxnId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted, graph.nodes()) << "order is not a node permutation";
  std::vector<size_t> position(graph.nodes().back() + 1, 0);
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (const auto& [from, to] : graph.Edges()) {
    EXPECT_LT(position[from], position[to])
        << "edge T" << from << " -> T" << to << " violates the order";
  }
}

/// Asserts `cycle` is a closed walk over existing edges (first == last).
void ExpectValidCycle(const ConflictGraph& graph,
                      const std::vector<TxnId>& cycle) {
  ASSERT_GE(cycle.size(), 2u);
  EXPECT_EQ(cycle.front(), cycle.back());
  for (size_t i = 0; i + 1 < cycle.size(); ++i) {
    EXPECT_TRUE(graph.HasEdge(cycle[i], cycle[i + 1]))
        << "missing cycle edge T" << cycle[i] << " -> T" << cycle[i + 1];
  }
}

TEST(ConflictGraphIncrementalTest, MaintainsOrderAcrossInsertions) {
  ConflictGraph g(Nodes(5), CycleMode::kIncremental);
  EXPECT_TRUE(g.IsAcyclic());
  EXPECT_FALSE(g.has_cycle());
  // Insert edges against the initial identity order to force reordering.
  EXPECT_TRUE(g.AddEdge(5, 1));
  EXPECT_TRUE(g.AddEdge(4, 2));
  EXPECT_TRUE(g.AddEdge(2, 1));
  EXPECT_TRUE(g.IsAcyclic());
  ExpectValidTopoOrder(g, g.OnlineTopologicalOrder());
  // The canonical order is still served (and agrees on acyclicity).
  ASSERT_TRUE(g.TopologicalOrder().has_value());
}

TEST(ConflictGraphIncrementalTest, ReportsFirstCycleClosingEdge) {
  ConflictGraph g(Nodes(4), CycleMode::kIncremental);
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_TRUE(g.AddEdge(2, 3));
  EXPECT_FALSE(g.has_cycle());
  EXPECT_TRUE(g.WouldCloseCycle(3, 1));
  EXPECT_FALSE(g.WouldCloseCycle(1, 4));
  EXPECT_TRUE(g.AddEdge(3, 1));  // closes 1 -> 2 -> 3 -> 1
  EXPECT_TRUE(g.has_cycle());
  EXPECT_FALSE(g.IsAcyclic());
  ASSERT_TRUE(g.cycle_edge().has_value());
  EXPECT_EQ(*g.cycle_edge(), std::make_pair(TxnId{3}, TxnId{1}));
  ASSERT_TRUE(g.cycle().has_value());
  ExpectValidCycle(g, *g.cycle());
  // The batch DFS reference agrees.
  EXPECT_TRUE(g.FindCycle().has_value());
}

TEST(ConflictGraphIncrementalTest, CycleOpPositionRecordedByBuild) {
  // r1(a) w2(a) r2(b) w1(b): the edge T2 -> T1 created by w1(b) at
  // position 3 closes the cycle.
  OpSequence ops;
  ops.push_back(Operation::Read(1, 0, Value(0)));
  ops.push_back(Operation::Write(2, 0, Value(1)));
  ops.push_back(Operation::Read(2, 1, Value(0)));
  ops.push_back(Operation::Write(1, 1, Value(1)));
  Schedule schedule{std::move(ops)};
  ConflictGraph g =
      oracles::BuildReference(schedule, CycleMode::kIncremental);
  EXPECT_TRUE(g.has_cycle());
  ASSERT_TRUE(g.cycle_edge().has_value());
  EXPECT_EQ(*g.cycle_edge(), std::make_pair(TxnId{2}, TxnId{1}));
  ASSERT_TRUE(g.cycle_op_pos().has_value());
  EXPECT_EQ(*g.cycle_op_pos(), 3u);
}

TEST(ConflictGraphIncrementalTest, RemovalRepairsCycleState) {
  ConflictGraph g(Nodes(4), CycleMode::kIncremental);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 1);
  ASSERT_TRUE(g.has_cycle());
  EXPECT_TRUE(g.RemoveEdge(2, 3));
  EXPECT_FALSE(g.has_cycle());
  EXPECT_TRUE(g.IsAcyclic());
  ExpectValidTopoOrder(g, g.OnlineTopologicalOrder());
  EXPECT_FALSE(g.RemoveEdge(2, 3));  // already gone
}

TEST(ConflictGraphIncrementalTest, VictimRemovalBreaksOnlyItsCycles) {
  // Two disjoint cycles: 1 <-> 2 and 3 <-> 4. Removing one victim must
  // leave the other cycle detected.
  ConflictGraph g(Nodes(4), CycleMode::kIncremental);
  g.AddEdge(1, 2);
  g.AddEdge(2, 1);
  g.AddEdge(3, 4);
  g.AddEdge(4, 3);
  ASSERT_TRUE(g.has_cycle());
  g.RemoveEdgesOf(2);
  EXPECT_TRUE(g.has_cycle()) << "second cycle must survive the repair";
  ASSERT_TRUE(g.cycle().has_value());
  ExpectValidCycle(g, *g.cycle());
  g.RemoveEdgesOf(4);
  EXPECT_FALSE(g.has_cycle());
  EXPECT_EQ(g.num_edges(), 0u);
  ExpectValidTopoOrder(g, g.OnlineTopologicalOrder());
}

TEST(ConflictGraphIncrementalTest, RetractedNodeIsRankedLast) {
  // An edgeless node may take any rank; RemoveEdgesOf ranks it after every
  // other node, so in-edges it then gains from older nodes already agree
  // with the order.
  ConflictGraph g(Nodes(5), CycleMode::kIncremental);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(1, 5);
  g.RemoveEdgesOf(2);
  ASSERT_FALSE(g.has_cycle());
  std::vector<TxnId> order = g.OnlineTopologicalOrder();
  ExpectValidTopoOrder(g, order);
  EXPECT_EQ(order.back(), 2u);

  // Reused as a fresh node: edges into it keep it last, and a second
  // retraction moves the other node behind it.
  g.AddEdge(5, 2);
  g.AddEdge(3, 2);
  order = g.OnlineTopologicalOrder();
  ExpectValidTopoOrder(g, order);
  EXPECT_EQ(order.back(), 2u);
  g.RemoveEdgesOf(4);
  order = g.OnlineTopologicalOrder();
  ExpectValidTopoOrder(g, order);
  EXPECT_EQ(order.back(), 4u);
}

TEST(ConflictGraphIncrementalTest, EdgesInsertedWhileCyclicSurviveRepair) {
  ConflictGraph g(Nodes(4), CycleMode::kIncremental);
  g.AddEdge(1, 2);
  g.AddEdge(2, 1);
  ASSERT_TRUE(g.has_cycle());
  // Order maintenance is suspended while cyclic; these must still be
  // re-anchored by the repair after the cycle breaks.
  g.AddEdge(4, 3);
  g.AddEdge(3, 1);
  g.RemoveEdge(2, 1);
  EXPECT_FALSE(g.has_cycle());
  ExpectValidTopoOrder(g, g.OnlineTopologicalOrder());
  EXPECT_TRUE(g.HasEdge(4, 3));
  EXPECT_TRUE(g.HasEdge(3, 1));
}

// Property test (ISSUE 3): streaming randomized insert-only conflict-edge
// sequences, the Pearce–Kelly order is a valid topo order after every
// insertion and cycle detection fires on exactly the same edge as the DFS
// reference.
TEST(ConflictGraphIncrementalTest, RandomStreamsAgreeWithDfsReference) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const size_t n = 2 + rng.NextBelow(20);
    const size_t stream_len = 1 + rng.NextBelow(4 * n);
    ConflictGraph incremental(Nodes(n), CycleMode::kIncremental);
    ConflictGraph reference(Nodes(n), CycleMode::kBatch);
    size_t incremental_cycle_at = 0;  // 1-based stream index, 0 = never
    size_t reference_cycle_at = 0;
    for (size_t i = 0; i < stream_len; ++i) {
      TxnId from = static_cast<TxnId>(1 + rng.NextBelow(n));
      TxnId to = static_cast<TxnId>(1 + rng.NextBelow(n));
      if (from == to) continue;
      bool would_close =
          !incremental.has_cycle() && incremental.WouldCloseCycle(from, to);
      bool inserted = incremental.AddEdge(from, to);
      EXPECT_EQ(reference.AddEdge(from, to), inserted);

      ASSERT_EQ(incremental.IsAcyclic(), reference.IsAcyclic())
          << "verdicts diverged at seed " << seed << " step " << i;
      if (inserted && would_close) {
        EXPECT_TRUE(incremental.has_cycle())
            << "WouldCloseCycle predicted a cycle that did not happen";
      }
      if (incremental.has_cycle() && incremental_cycle_at == 0) {
        incremental_cycle_at = i + 1;
        ASSERT_TRUE(incremental.cycle_edge().has_value());
        EXPECT_EQ(*incremental.cycle_edge(), std::make_pair(from, to))
            << "cycle must fire on the edge that closed it";
        ExpectValidCycle(incremental, *incremental.cycle());
      }
      if (!reference.IsAcyclic() && reference_cycle_at == 0) {
        reference_cycle_at = i + 1;
      }
      if (incremental.IsAcyclic()) {
        ExpectValidTopoOrder(incremental,
                             incremental.OnlineTopologicalOrder());
      }
    }
    EXPECT_EQ(incremental_cycle_at, reference_cycle_at)
        << "cycle fired on different stream steps at seed " << seed;
  }
}

// Removal fuzz: interleaved inserts and removals keep the online order
// valid and the verdict in lockstep with a per-step batch rebuild.
TEST(ConflictGraphIncrementalTest, RandomInsertRemoveStreamsStayConsistent) {
  for (uint64_t seed = 100; seed < 110; ++seed) {
    Rng rng(seed);
    const size_t n = 2 + rng.NextBelow(12);
    ConflictGraph incremental(Nodes(n), CycleMode::kIncremental);
    std::vector<std::pair<TxnId, TxnId>> live;
    for (size_t step = 0; step < 6 * n; ++step) {
      if (!live.empty() && rng.NextBool(0.35)) {
        size_t pick = rng.NextBelow(live.size());
        auto [from, to] = live[pick];
        live.erase(live.begin() + pick);
        EXPECT_TRUE(incremental.RemoveEdge(from, to));
      } else {
        TxnId from = static_cast<TxnId>(1 + rng.NextBelow(n));
        TxnId to = static_cast<TxnId>(1 + rng.NextBelow(n));
        if (from == to) continue;
        if (incremental.AddEdge(from, to)) live.push_back({from, to});
      }
      ConflictGraph rebuilt(Nodes(n));
      for (const auto& [from, to] : live) rebuilt.AddEdge(from, to);
      ASSERT_EQ(incremental.IsAcyclic(), rebuilt.IsAcyclic())
          << "seed " << seed << " step " << step;
      EXPECT_EQ(incremental.num_edges(), live.size());
      if (incremental.IsAcyclic()) {
        ExpectValidTopoOrder(incremental,
                             incremental.OnlineTopologicalOrder());
      } else {
        ExpectValidCycle(incremental, *incremental.cycle());
      }
    }
  }
}

// Decremental-path fuzz: removals fired deliberately *while a cycle is
// recorded* — the Kahn+DFS re-anchor path (order maintenance is suspended
// during cyclic phases and must be rebuilt when a removal may break the
// cycle). Three removal flavours are interleaved: RemoveEdge on an edge of
// the recorded cycle witness (breaks it), RemoveEdge on an edge outside
// the witness (cycle must survive), and RemoveEdgesOf on a cycle
// participant (the deadlock-victim abort path). In-place node growth
// (AppendNodes) is one more random step, in both phases: the new nodes
// start edgeless and a recorded cycle must carry over unchanged. Every
// step is cross-checked against a from-scratch batch-DFS rebuild.
TEST(ConflictGraphDecrementalFuzz, RemovalsWhileCycleRecordedAgreeWithDfs) {
  const size_t seeds = FuzzSeedCount(10);
  size_t cyclic_removals = 0;  // removals issued while a cycle was live
  size_t victim_removals = 0;  // RemoveEdgesOf issued while cyclic
  size_t cyclic_growths = 0;   // AppendNodes issued while cyclic
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed * 977 + 5);
    size_t n = 3 + rng.NextBelow(14);
    const size_t steps = 10 * n;
    ConflictGraph g(Nodes(n), CycleMode::kIncremental);
    std::vector<std::pair<TxnId, TxnId>> live;  // mirror of the edge set

    auto remove_mirror_edge = [&](TxnId from, TxnId to) {
      auto it = std::find(live.begin(), live.end(), std::make_pair(from, to));
      ASSERT_NE(it, live.end());
      live.erase(it);
    };

    for (size_t step = 0; step < steps; ++step) {
      if (rng.NextBool(0.08)) {
        // Grow in place by 1-3 nodes.
        const std::optional<std::vector<TxnId>> cycle = g.cycle();
        const std::optional<std::pair<TxnId, TxnId>> edge = g.cycle_edge();
        const size_t extra = 1 + rng.NextBelow(3);
        std::vector<TxnId> ids;
        for (size_t k = 1; k <= extra; ++k) {
          ids.push_back(static_cast<TxnId>(n + k));
        }
        g.AppendNodes(std::move(ids));
        n += extra;
        ASSERT_EQ(g.nodes(), Nodes(n));
        ASSERT_EQ(g.cycle(), cycle) << "seed " << seed << " step " << step;
        ASSERT_EQ(g.cycle_edge(), edge);
        if (cycle.has_value()) ++cyclic_growths;
      } else if (g.has_cycle()) {
        // Removal under a recorded cycle: pick the flavour randomly. The
        // witness is copied — the removal below re-anchors the graph's
        // cycle state and would invalidate a reference.
        const std::vector<TxnId> cycle = *g.cycle();
        double flavour = rng.NextDouble();
        if (flavour < 0.4) {
          // Break the witness: remove one of its edges.
          size_t hop = rng.NextBelow(cycle.size() - 1);
          ASSERT_TRUE(g.RemoveEdge(cycle[hop], cycle[hop + 1]));
          remove_mirror_edge(cycle[hop], cycle[hop + 1]);
          ++cyclic_removals;
        } else if (flavour < 0.7 && live.size() > cycle.size()) {
          // Remove an edge that is not a witness hop; the recorded cycle
          // must survive the re-anchor (possibly as a different witness).
          std::vector<std::pair<TxnId, TxnId>> witness_edges;
          for (size_t h = 0; h + 1 < cycle.size(); ++h) {
            witness_edges.emplace_back(cycle[h], cycle[h + 1]);
          }
          std::vector<std::pair<TxnId, TxnId>> outside;
          for (const auto& edge : live) {
            if (std::find(witness_edges.begin(), witness_edges.end(), edge) ==
                witness_edges.end()) {
              outside.push_back(edge);
            }
          }
          if (!outside.empty()) {
            auto [from, to] = outside[rng.NextBelow(outside.size())];
            ASSERT_TRUE(g.RemoveEdge(from, to));
            remove_mirror_edge(from, to);
            ++cyclic_removals;
          }
        } else {
          // Victim abort: drop every edge of one cycle participant.
          TxnId victim = cycle[rng.NextBelow(cycle.size() - 1)];
          g.RemoveEdgesOf(victim);
          live.erase(std::remove_if(live.begin(), live.end(),
                                    [victim](const auto& edge) {
                                      return edge.first == victim ||
                                             edge.second == victim;
                                    }),
                     live.end());
          ++cyclic_removals;
          ++victim_removals;
        }
      } else {
        // Acyclic phase: mostly insert, occasionally remove.
        if (!live.empty() && rng.NextBool(0.2)) {
          size_t pick = rng.NextBelow(live.size());
          auto [from, to] = live[pick];
          live.erase(live.begin() + pick);
          ASSERT_TRUE(g.RemoveEdge(from, to));
        } else {
          TxnId from = static_cast<TxnId>(1 + rng.NextBelow(n));
          TxnId to = static_cast<TxnId>(1 + rng.NextBelow(n));
          if (from == to) continue;
          if (g.AddEdge(from, to)) live.push_back({from, to});
        }
      }

      // Cross-check against the batch-DFS reference built from scratch.
      ConflictGraph rebuilt(Nodes(n));
      for (const auto& [from, to] : live) rebuilt.AddEdge(from, to);
      ASSERT_EQ(g.IsAcyclic(), rebuilt.IsAcyclic())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(g.num_edges(), live.size());
      if (g.IsAcyclic()) {
        ExpectValidTopoOrder(g, g.OnlineTopologicalOrder());
      } else {
        ExpectValidCycle(g, *g.cycle());
      }
    }
  }
  // The sweep must actually have exercised the re-anchor and growth paths.
  EXPECT_GT(cyclic_removals, 0u);
  EXPECT_GT(victim_removals, 0u);
  EXPECT_GT(cyclic_growths, 0u);
}

TEST(ConflictGraphIncrementalTest, WitnessProbeReturnsThePathBehindTheVeto) {
  ConflictGraph g(Nodes(5), CycleMode::kIncremental);
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_TRUE(g.AddEdge(2, 3));
  EXPECT_TRUE(g.AddEdge(3, 4));
  // Inserting 4 -> 1 would close the cycle; the witness is the existing
  // path from `to` (1) to `from` (4).
  auto path = g.WouldCloseCycleWitness(4, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<TxnId>{1, 2, 3, 4}));
  // No path means no witness — agreeing with the boolean probe.
  EXPECT_FALSE(g.WouldCloseCycleWitness(1, 3).has_value());
  EXPECT_FALSE(g.WouldCloseCycle(1, 3));
  // Self-probe: the single-node path.
  auto self_path = g.WouldCloseCycleWitness(2, 2);
  ASSERT_TRUE(self_path.has_value());
  EXPECT_EQ(*self_path, std::vector<TxnId>{2});
}

TEST(ConflictGraphDecrementalFuzz, OverlappingCyclesAndWitnessAgreeWithDfs) {
  // Two extensions of the removal-under-cycle fuzz above: (1) while a
  // cycle is recorded, keep *inserting* edges too (order maintenance is
  // suspended, so this breeds multiple overlapping cycles), then fire
  // RemoveEdgesOf on cycle participants — the re-anchor must agree with a
  // from-scratch batch-DFS rebuild even when other cycles survive the
  // removal; (2) in acyclic states, cross-check WouldCloseCycleWitness
  // against batch-DFS reachability and validate the returned path hop by
  // hop (the victim-choice SGT policy trusts it to name the cycle
  // participants).
  const size_t seeds = FuzzSeedCount(10);
  size_t overlapping_survivals = 0;  // victim removals that left a cycle
  size_t witness_probes = 0;
  size_t witness_hits = 0;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed * 7919 + 3);
    const size_t n = 4 + rng.NextBelow(12);
    ConflictGraph g(Nodes(n), CycleMode::kIncremental);
    std::vector<std::pair<TxnId, TxnId>> live;

    auto rebuilt_reference = [&]() {
      ConflictGraph rebuilt(Nodes(n));
      for (const auto& [from, to] : live) rebuilt.AddEdge(from, to);
      return rebuilt;
    };

    for (size_t step = 0; step < 12 * n; ++step) {
      if (g.has_cycle()) {
        double flavour = rng.NextDouble();
        if (flavour < 0.5) {
          // Pile on more edges while the cycle is recorded: overlapping
          // cycles that share participants with the recorded witness.
          TxnId from = static_cast<TxnId>(1 + rng.NextBelow(n));
          TxnId to = static_cast<TxnId>(1 + rng.NextBelow(n));
          if (from == to) continue;
          if (g.AddEdge(from, to)) live.push_back({from, to});
        } else {
          // Abort a recorded-cycle participant. With overlapping cycles
          // the graph often *stays* cyclic — the re-anchor must find a
          // fresh witness rather than declare victory.
          const std::vector<TxnId> cycle = *g.cycle();
          TxnId victim = cycle[rng.NextBelow(cycle.size() - 1)];
          g.RemoveEdgesOf(victim);
          live.erase(std::remove_if(live.begin(), live.end(),
                                    [victim](const auto& edge) {
                                      return edge.first == victim ||
                                             edge.second == victim;
                                    }),
                     live.end());
          if (g.has_cycle()) ++overlapping_survivals;
        }
      } else {
        // Acyclic phase: probe the witness on a random candidate edge,
        // then mostly insert.
        TxnId from = static_cast<TxnId>(1 + rng.NextBelow(n));
        TxnId to = static_cast<TxnId>(1 + rng.NextBelow(n));
        if (from != to) {
          ++witness_probes;
          auto witness = g.WouldCloseCycleWitness(from, to);
          ConflictGraph reference = rebuilt_reference();
          ASSERT_EQ(witness.has_value(), reference.WouldCloseCycle(from, to))
              << "witness/batch reachability disagree, seed " << seed
              << " step " << step;
          ASSERT_EQ(witness.has_value(), g.WouldCloseCycle(from, to));
          if (witness.has_value()) {
            ++witness_hits;
            // The path must run to -> ... -> from over existing edges.
            ASSERT_GE(witness->size(), 2u);
            EXPECT_EQ(witness->front(), to);
            EXPECT_EQ(witness->back(), from);
            for (size_t h = 0; h + 1 < witness->size(); ++h) {
              EXPECT_TRUE(g.HasEdge((*witness)[h], (*witness)[h + 1]))
                  << "missing witness hop T" << (*witness)[h] << " -> T"
                  << (*witness)[h + 1];
            }
            // Closing the edge really does create the witnessed cycle.
            ASSERT_TRUE(g.AddEdge(from, to));
            live.push_back({from, to});
            EXPECT_TRUE(g.has_cycle());
            continue;
          }
        }
        if (!live.empty() && rng.NextBool(0.15)) {
          size_t pick = rng.NextBelow(live.size());
          auto [efrom, eto] = live[pick];
          live.erase(live.begin() + pick);
          ASSERT_TRUE(g.RemoveEdge(efrom, eto));
        } else if (from != to) {
          if (g.AddEdge(from, to)) live.push_back({from, to});
        }
      }

      // Cross-check against the batch-DFS reference built from scratch.
      ConflictGraph rebuilt = rebuilt_reference();
      ASSERT_EQ(g.IsAcyclic(), rebuilt.IsAcyclic())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(g.num_edges(), live.size());
      if (g.IsAcyclic()) {
        ExpectValidTopoOrder(g, g.OnlineTopologicalOrder());
      } else {
        ExpectValidCycle(g, *g.cycle());
      }
    }
  }
  // The sweep must have exercised both target regimes.
  EXPECT_GT(overlapping_survivals, 0u);
  EXPECT_GT(witness_hits, 0u);
  EXPECT_GT(witness_probes, witness_hits);
}

TEST(ConflictGraphIncrementalTest, BuildMatchesBatchBuildOnSchedules) {
  // Random schedules: both modes must produce identical edge sets and
  // verdicts.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    OpSequence ops;
    const size_t txns = 2 + rng.NextBelow(6);
    const size_t items = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < 30; ++i) {
      TxnId txn = static_cast<TxnId>(1 + rng.NextBelow(txns));
      ItemId item = static_cast<ItemId>(rng.NextBelow(items));
      if (rng.NextBool()) {
        ops.push_back(Operation::Read(txn, item, Value(0)));
      } else {
        ops.push_back(Operation::Write(txn, item, Value(1)));
      }
    }
    Schedule schedule{std::move(ops)};
    ConflictGraph batch = ConflictGraph::Build(schedule);
    ConflictGraph incremental =
        oracles::BuildReference(schedule, CycleMode::kIncremental);
    EXPECT_EQ(batch.Edges(), incremental.Edges());
    EXPECT_EQ(batch.IsAcyclic(), incremental.IsAcyclic());
    EXPECT_EQ(batch.TopologicalOrder(), incremental.TopologicalOrder());
  }
}

}  // namespace
}  // namespace nse
