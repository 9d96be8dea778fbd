#include "analysis/conflict_graph.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fuzz_env.h"
#include "oracles/oracles.h"

namespace nse {
namespace {

class ConflictGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.AddIntItems({"a", "b", "c"}, -8, 8).ok());
  }
  Database db_;
};

TEST_F(ConflictGraphTest, EdgesFollowConflictOrder) {
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0)).W(2, "a", Value(1)).W(1, "b", Value(2));
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  EXPECT_TRUE(g.HasEdge(1, 2));   // r1(a) before w2(a)
  EXPECT_FALSE(g.HasEdge(2, 1));
  EXPECT_EQ(g.Edges().size(), 1u);
  EXPECT_TRUE(g.IsAcyclic());
  EXPECT_EQ(g.ToString(), "T1 -> T2");
}

TEST_F(ConflictGraphTest, ReadsDoNotConflict) {
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0)).R(2, "a", Value(0));
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  EXPECT_TRUE(g.Edges().empty());
}

TEST_F(ConflictGraphTest, ClassicNonSerializableCycle) {
  // r1(a) w2(a) r2(b) w1(b): T1 -> T2 (on a), T2 -> T1 (on b).
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0))
      .W(2, "a", Value(1))
      .R(2, "b", Value(0))
      .W(1, "b", Value(1));
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  EXPECT_FALSE(g.IsAcyclic());
  EXPECT_EQ(g.TopologicalOrder(), std::nullopt);
  auto cycle = g.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_GE(cycle->size(), 3u);
  EXPECT_EQ(cycle->front(), cycle->back());
  EXPECT_TRUE(g.AllTopologicalOrders(10).empty());
}

TEST_F(ConflictGraphTest, TopologicalOrderRespectsEdges) {
  ScheduleBuilder sb(db_);
  sb.W(1, "a", Value(1))
      .R(2, "a", Value(1))
      .W(2, "b", Value(2))
      .R(3, "b", Value(2));
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  auto order = g.TopologicalOrder();
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<TxnId>{1, 2, 3}));
}

TEST_F(ConflictGraphTest, AllTopologicalOrdersOfIndependentTxns) {
  // No conflicts: both orders of two transactions are serialization orders.
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0)).R(2, "b", Value(0));
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  auto orders = g.AllTopologicalOrders(10);
  EXPECT_EQ(orders.size(), 2u);
  auto limited = g.AllTopologicalOrders(1);
  EXPECT_EQ(limited.size(), 1u);
}

TEST_F(ConflictGraphTest, SingleAndEmptySchedules) {
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0));
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  EXPECT_TRUE(g.IsAcyclic());
  EXPECT_EQ(*g.TopologicalOrder(), (std::vector<TxnId>{1}));

  ConflictGraph empty = ConflictGraph::Build(Schedule());
  EXPECT_TRUE(empty.IsAcyclic());
  EXPECT_TRUE(empty.TopologicalOrder()->empty());
  EXPECT_FALSE(empty.FindCycle().has_value());
}

TEST_F(ConflictGraphTest, AllTopologicalOrdersExactlyAtTheLimitBoundary) {
  // Three independent transactions: exactly 3! = 6 serialization orders.
  // Pin the contract at the boundary: below the limit the enumeration is
  // complete, exactly at the limit it returns exactly `limit` (and may be
  // incomplete), above the limit it returns the true count.
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0)).R(2, "b", Value(0)).R(3, "c", Value(0));
  ConflictGraph g = ConflictGraph::Build(sb.Build());

  EXPECT_EQ(g.AllTopologicalOrders(5).size(), 5u);
  EXPECT_EQ(g.AllTopologicalOrders(6).size(), 6u);
  EXPECT_EQ(g.AllTopologicalOrders(7).size(), 6u);
  EXPECT_EQ(g.AllTopologicalOrders(1000).size(), 6u);
  EXPECT_EQ(g.AllTopologicalOrders(1).size(), 1u);
  EXPECT_TRUE(g.AllTopologicalOrders(0).empty());

  // All six orders are distinct permutations of {1, 2, 3}.
  auto orders = g.AllTopologicalOrders(6);
  std::sort(orders.begin(), orders.end());
  EXPECT_EQ(std::unique(orders.begin(), orders.end()), orders.end());
}

TEST_F(ConflictGraphTest, ThreeTxnCycleFound) {
  // T1 -> T2 -> T3 -> T1.
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0))
      .W(2, "a", Value(1))   // T1 -> T2
      .R(2, "b", Value(0))
      .W(3, "b", Value(1))   // T2 -> T3
      .R(3, "c", Value(0))
      .W(1, "c", Value(1));  // T3 -> T1
  ConflictGraph g = ConflictGraph::Build(sb.Build());
  EXPECT_FALSE(g.IsAcyclic());
  auto cycle = g.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 4u);  // 3 nodes + repeated head
}

// Double-release hardening: a crash-at-op fault can re-run the abort
// retraction for an accessor whose footprint is already gone, so repeated
// Erase of the same (or a never-recorded) accessor must be a no-op that
// leaves every other accessor's history — and conflict emission order —
// untouched.
TEST(ConflictAccessIndexTest, EraseIsIdempotent) {
  auto conflicts_for = [](const ConflictAccessIndex& index, uint32_t who) {
    std::vector<uint32_t> out;
    index.ForEachConflict(who, /*is_write=*/true, /*item=*/0,
                          [&](uint32_t prior) { out.push_back(prior); });
    return out;
  };
  ConflictAccessIndex index;
  index.Record(1, /*is_write=*/true, 0);
  index.Record(2, /*is_write=*/false, 0);
  index.Record(3, /*is_write=*/true, 0);
  EXPECT_EQ(conflicts_for(index, 9), (std::vector<uint32_t>{1, 3, 2}));

  index.Erase(1);
  index.Erase(1);   // second abort of the same quiescent accessor
  index.Erase(7);   // accessor that never recorded anything
  index.Erase(64);  // beyond every grown bitset word
  EXPECT_EQ(conflicts_for(index, 9), (std::vector<uint32_t>{3, 2}));

  // Re-recording after a double erase starts from a clean slate and lands
  // at the back of the history again.
  index.Record(1, /*is_write=*/true, 0);
  EXPECT_EQ(conflicts_for(index, 9), (std::vector<uint32_t>{3, 1, 2}));
}

/// Every prior accessor a write of `item` by a fresh accessor conflicts
/// with, in emission order.
std::vector<uint32_t> WriteConflicts(const ConflictAccessIndex& index,
                                     ItemId item) {
  std::vector<uint32_t> out;
  index.ForEachConflict(/*accessor=*/999, /*is_write=*/true, item,
                        [&](uint32_t prior) { out.push_back(prior); });
  return out;
}

TEST(ConflictAccessIndexTest, EraseRemovesReaderAndWriterOfOneItem) {
  ConflictAccessIndex index;
  index.Record(1, /*is_write=*/false, 0);
  index.Record(1, /*is_write=*/true, 0);  // same item, now also a writer
  index.Record(2, /*is_write=*/false, 0);
  // 1 is both a prior writer and a prior reader of the item.
  EXPECT_EQ(WriteConflicts(index, 0), (std::vector<uint32_t>{1, 1, 2}));

  index.Erase(1);
  EXPECT_EQ(WriteConflicts(index, 0), (std::vector<uint32_t>{2}));
  std::vector<uint32_t> read_conflicts;
  index.ForEachConflict(9, /*is_write=*/false, 0, [&](uint32_t prior) {
    read_conflicts.push_back(prior);
  });
  EXPECT_TRUE(read_conflicts.empty()) << "the erased writer survived";
}

TEST(ConflictAccessIndexTest, ReusedHandleStartsFromItsNewFootprint) {
  ConflictAccessIndex index;
  index.Record(1, /*is_write=*/true, 0);
  index.Record(1, /*is_write=*/false, 1);
  index.Record(2, /*is_write=*/true, 1);
  index.Record(3, /*is_write=*/false, 0);
  index.Erase(1);

  // Slot reuse: the handle records a new transaction's accesses.
  index.Record(1, /*is_write=*/false, 2);
  index.Record(1, /*is_write=*/true, 1);
  index.Record(4, /*is_write=*/true, 2);
  EXPECT_EQ(WriteConflicts(index, 0), (std::vector<uint32_t>{3}));
  EXPECT_EQ(WriteConflicts(index, 1), (std::vector<uint32_t>{2, 1}));
  EXPECT_EQ(WriteConflicts(index, 2), (std::vector<uint32_t>{4, 1}));

  // A second erase retracts the new footprint and only that.
  index.Erase(1);
  EXPECT_EQ(WriteConflicts(index, 0), (std::vector<uint32_t>{3}));
  EXPECT_EQ(WriteConflicts(index, 1), (std::vector<uint32_t>{2}));
  EXPECT_EQ(WriteConflicts(index, 2), (std::vector<uint32_t>{4}));
}

TEST(ConflictAccessIndexTest, EraseOfHandleAboveEveryRecordedOneIsANoOp) {
  ConflictAccessIndex index;
  index.Record(1, /*is_write=*/true, 0);
  index.Record(2, /*is_write=*/false, 3);
  index.Erase(100'000);
  EXPECT_EQ(WriteConflicts(index, 0), (std::vector<uint32_t>{1}));
  EXPECT_EQ(WriteConflicts(index, 3), (std::vector<uint32_t>{2}));

  index.Record(100'000, /*is_write=*/true, 3);
  EXPECT_EQ(WriteConflicts(index, 3), (std::vector<uint32_t>{100'000, 2}));
  index.Erase(100'000);
  EXPECT_EQ(WriteConflicts(index, 3), (std::vector<uint32_t>{2}));
}

// Dense-sweep differential: the bitset fast path behind Build must be
// bit-identical to the reference vector sweep — same edges inserted in the
// same order, hence the same first cycle edge, witnesses, topological
// orders, in-degrees, and render. In both modes the first cycle must be the one the
// incremental reference records. Swept over both shapes: a few txns on a few items
// (contended histories) and many txns hammering one or two items (the
// dense rows the bitsets target).
TEST(ConflictGraphDenseSweepFuzz, DenseBuildMatchesReferenceOnRandomSchedules) {
  const size_t seeds = FuzzSeedCount(12);
  size_t cyclic = 0;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed * 7919 + 3);
    const size_t num_txns = 2 + rng.NextBelow(18);
    const size_t num_items = 1 + rng.NextBelow(5);
    const size_t num_ops = 4 + rng.NextBelow(60);
    OpSequence ops;
    for (size_t i = 0; i < num_ops; ++i) {
      TxnId txn = static_cast<TxnId>(1 + rng.NextBelow(num_txns));
      ItemId item = static_cast<ItemId>(rng.NextBelow(num_items));
      if (rng.NextBool(0.5)) {
        ops.push_back(Operation::Write(txn, item, Value(0)));
      } else {
        ops.push_back(Operation::Read(txn, item, Value(0)));
      }
    }
    Schedule s(std::move(ops));
    // The first-cycle record is the incremental build's: a batch Build
    // replays its emission order up to the first cycle. The dense build is
    // compared with the reference in both modes.
    const ConflictGraph first_cycle =
        oracles::BuildReference(s, CycleMode::kIncremental);
    const ConflictGraph dense = ConflictGraph::Build(s);
    for (CycleMode mode : {CycleMode::kBatch, CycleMode::kIncremental}) {
      ConflictGraph reference = oracles::BuildReference(s, mode);
      ASSERT_EQ(dense.nodes(), reference.nodes()) << "seed " << seed;
      ASSERT_EQ(dense.Edges(), reference.Edges()) << "seed " << seed;
      ASSERT_EQ(dense.num_edges(), reference.num_edges());
      ASSERT_EQ(dense.IsAcyclic(), reference.IsAcyclic()) << "seed " << seed;
      ASSERT_EQ(dense.cycle_edge(), first_cycle.cycle_edge())
          << "seed " << seed;
      ASSERT_EQ(dense.cycle_op_pos(), first_cycle.cycle_op_pos());
      ASSERT_EQ(dense.cycle(), first_cycle.cycle());
      ASSERT_EQ(dense.FindCycle(), reference.FindCycle());
      ASSERT_EQ(dense.TopologicalOrder(), reference.TopologicalOrder());
      for (TxnId txn : dense.nodes()) {
        ASSERT_EQ(dense.InDegree(txn), reference.InDegree(txn))
            << "seed " << seed << " txn " << txn;
      }
      ASSERT_EQ(dense.ToString(), reference.ToString());
      if (!dense.IsAcyclic()) ++cyclic;
    }
  }
  // The sweep must actually have produced cyclic graphs, or the witness
  // comparisons above were vacuous.
  EXPECT_GT(cyclic, 0u);
}

/// Model of ConflictGraph::TopologicalOrder: repeatedly emit the smallest
/// node with no in-edge from an unemitted node; nullopt when a cycle
/// blocks.
std::optional<std::vector<TxnId>> SmallestReadyFirst(
    const std::vector<TxnId>& ids, std::set<std::pair<TxnId, TxnId>> edges) {
  std::vector<TxnId> order;
  std::set<TxnId> left(ids.begin(), ids.end());
  while (!left.empty()) {
    auto ready = std::find_if(left.begin(), left.end(), [&](TxnId v) {
      return std::none_of(edges.begin(), edges.end(),
                          [v](const auto& e) { return e.second == v; });
    });
    if (ready == left.end()) return std::nullopt;
    order.push_back(*ready);
    for (auto it = edges.begin(); it != edges.end();) {
      it = it->first == *ready ? edges.erase(it) : std::next(it);
    }
    left.erase(ready);
  }
  return order;
}

// Adjacency differential: randomized AddEdge / RemoveEdge / RemoveEdgesOf
// streams on an incremental graph against an edge-set model. After every
// step the graph's edges, their Edges() order and every neighbor list must
// match the model, and neighbor lists must be sorted — the graph's
// deterministic iteration order (Edges() order, cycle witnesses, veto
// enumeration) rides on exactly this. The canonical topological order and
// the incremental cycle state are checked against the model too.
TEST(ConflictGraphDenseSweepFuzz, AdjacencyMatchesEdgeSetModel) {
  const size_t seeds = FuzzSeedCount(12);
  size_t cyclic_steps = 0;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed * 104729 + 11);
    const size_t n = 2 + rng.NextBelow(11);
    // Sparse ids, so index/id mix-ups cannot cancel out.
    std::vector<TxnId> ids;
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(static_cast<TxnId>(3 * i + 2));
    }
    ConflictGraph graph(ids, CycleMode::kIncremental);
    std::set<std::pair<TxnId, TxnId>> model;
    for (size_t step = 0; step < 40 * n; ++step) {
      const TxnId from = ids[rng.NextBelow(n)];
      const TxnId to = ids[rng.NextBelow(n)];
      if (from == to) continue;
      const double flavour = rng.NextDouble();
      if (flavour < 0.6) {
        ASSERT_EQ(graph.AddEdge(from, to), model.emplace(from, to).second)
            << "seed " << seed << " step " << step;
      } else if (flavour < 0.9) {
        ASSERT_EQ(graph.RemoveEdge(from, to), model.erase({from, to}) > 0)
            << "seed " << seed << " step " << step;
      } else {
        graph.RemoveEdgesOf(from);
        for (auto it = model.begin(); it != model.end();) {
          it = it->first == from || it->second == from ? model.erase(it)
                                                       : std::next(it);
        }
      }
      ASSERT_EQ(graph.num_edges(), model.size()) << "seed " << seed;
      const std::vector<std::pair<TxnId, TxnId>> want(model.begin(),
                                                      model.end());
      ASSERT_EQ(graph.Edges(), want) << "seed " << seed << " step " << step;
      for (TxnId u : ids) {
        std::vector<TxnId> succ;
        std::vector<TxnId> pred;
        for (TxnId v : ids) {
          ASSERT_EQ(graph.HasEdge(u, v), model.count({u, v}) > 0)
              << "seed " << seed << " step " << step;
          if (model.count({u, v}) > 0) succ.push_back(v);
          if (model.count({v, u}) > 0) pred.push_back(v);
        }
        ASSERT_EQ(graph.Successors(u), succ) << "seed " << seed;
        ASSERT_EQ(graph.Predecessors(u), pred) << "seed " << seed;
      }
      const std::optional<std::vector<TxnId>> order =
          SmallestReadyFirst(ids, model);
      ASSERT_EQ(graph.TopologicalOrder(), order) << "seed " << seed;
      ASSERT_EQ(graph.has_cycle(), !order.has_value()) << "seed " << seed;
      if (graph.has_cycle()) ++cyclic_steps;
    }
  }
  // The streams must have closed (and re-broken) cycles, or the suspended-
  // order path the removals re-anchor went unexercised.
  EXPECT_GT(cyclic_steps, 0u);
}

}  // namespace
}  // namespace nse
