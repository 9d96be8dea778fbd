// WaitsForTracker: persistent incremental waits-for graph with blocker-set
// diffing — the scheduler layer's consumer of the Pearce–Kelly mode.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "scheduler/waits_for.h"

namespace nse {
namespace {

TEST(WaitsForTest, DetectsAndResolvesDeadlock) {
  WaitsForTracker tracker;
  tracker.SetWaits(1, {2});
  EXPECT_FALSE(tracker.has_cycle());
  tracker.SetWaits(2, {1});
  ASSERT_TRUE(tracker.has_cycle());
  const std::vector<TxnId>& cycle = *tracker.cycle();
  EXPECT_EQ(cycle.front(), cycle.back());
  EXPECT_NE(std::find(cycle.begin(), cycle.end(), TxnId{1}), cycle.end());
  EXPECT_NE(std::find(cycle.begin(), cycle.end(), TxnId{2}), cycle.end());
  ASSERT_TRUE(tracker.cycle_edge().has_value());
  EXPECT_EQ(*tracker.cycle_edge(), std::make_pair(TxnId{2}, TxnId{1}));

  tracker.OnResolved(2);
  EXPECT_FALSE(tracker.has_cycle());
  // 1's wait on 2 was resolved together with 2's edges.
  tracker.SetWaits(1, {2});  // re-blocks: must re-add cleanly
  EXPECT_FALSE(tracker.has_cycle());
}

TEST(WaitsForTest, UnchangedBlockerSetsDoNoGraphWork) {
  WaitsForTracker tracker;
  tracker.SetWaits(1, {2, 3});
  tracker.SetWaits(2, {3});
  uint64_t added = tracker.edges_added();
  uint64_t removed = tracker.edges_removed();
  // The steady-state stall tick: same blocker sets again and again.
  for (int tick = 0; tick < 100; ++tick) {
    tracker.SetWaits(1, {2, 3});
    tracker.SetWaits(2, {3});
  }
  EXPECT_EQ(tracker.edges_added(), added);
  EXPECT_EQ(tracker.edges_removed(), removed);
}

TEST(WaitsForTest, DiffsRetractOnlyStaleEdges) {
  WaitsForTracker tracker;
  tracker.SetWaits(1, {2, 3, 4});
  uint64_t added = tracker.edges_added();
  EXPECT_EQ(added, 3u);
  tracker.SetWaits(1, {3, 5});  // drop 2 and 4, keep 3, add 5
  EXPECT_EQ(tracker.edges_added(), added + 1);
  EXPECT_EQ(tracker.edges_removed(), 2u);
  EXPECT_TRUE(tracker.graph().HasEdge(1, 3));
  EXPECT_TRUE(tracker.graph().HasEdge(1, 5));
  EXPECT_FALSE(tracker.graph().HasEdge(1, 2));
}

TEST(WaitsForTest, SelfAndDuplicateBlockersAreDropped) {
  WaitsForTracker tracker;
  tracker.SetWaits(3, {3, 2, 2, 3});
  EXPECT_EQ(tracker.edges_added(), 1u);
  EXPECT_TRUE(tracker.graph().HasEdge(3, 2));
  EXPECT_FALSE(tracker.has_cycle());
}

TEST(WaitsForTest, GrowsNodeCapacityOnDemand) {
  WaitsForTracker tracker;
  tracker.SetWaits(1, {2});
  // Txn 100 appears later: the graph grows in place to the larger node
  // set, keeping the existing edges.
  tracker.SetWaits(100, {1});
  EXPECT_TRUE(tracker.graph().HasEdge(1, 2));
  EXPECT_TRUE(tracker.graph().HasEdge(100, 1));
  tracker.SetWaits(2, {100});
  ASSERT_TRUE(tracker.has_cycle());  // 1 -> 2 -> 100 -> 1
  const std::vector<TxnId> cycle = *tracker.cycle();
  const std::pair<TxnId, TxnId> edge = *tracker.cycle_edge();
  EXPECT_EQ(edge, std::make_pair(TxnId{2}, TxnId{100}));

  // Growing while the deadlock is recorded keeps its witness and closing
  // edge; the newcomer's wait lands on the grown graph.
  const uint64_t added = tracker.edges_added();
  tracker.SetWaits(1000, {3});
  EXPECT_GE(tracker.graph().nodes().size(), 1000u);
  ASSERT_TRUE(tracker.has_cycle());
  EXPECT_EQ(*tracker.cycle(), cycle);
  EXPECT_EQ(*tracker.cycle_edge(), edge);
  EXPECT_TRUE(tracker.graph().HasEdge(1000, 3));
  EXPECT_EQ(tracker.edges_added(), added + 1);

  // Resolving a cycle member still clears the recorded deadlock.
  tracker.OnResolved(100);
  EXPECT_FALSE(tracker.has_cycle());
  EXPECT_TRUE(tracker.graph().HasEdge(1, 2));
}

TEST(WaitsForTest, RandomStallStreamsMatchBatchRebuild) {
  // The tracker's verdict must equal a from-scratch graph + DFS on the
  // same waits-for relation, every tick, across random streams.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const size_t n = 3 + rng.NextBelow(12);
    WaitsForTracker tracker;
    tracker.EnsureTxns(n);
    std::vector<std::vector<TxnId>> waits(n + 1);
    for (int tick = 0; tick < 120; ++tick) {
      TxnId txn = static_cast<TxnId>(1 + rng.NextBelow(n));
      std::vector<TxnId> blockers;
      size_t count = rng.NextBelow(3);
      for (size_t i = 0; i < count; ++i) {
        TxnId blocker = static_cast<TxnId>(1 + rng.NextBelow(n));
        if (blocker != txn) blockers.push_back(blocker);
      }
      waits[txn] = blockers;
      tracker.SetWaits(txn, blockers);

      std::vector<TxnId> ids;
      for (TxnId id = 1; id <= n; ++id) ids.push_back(id);
      ConflictGraph reference(std::move(ids));
      for (TxnId u = 1; u <= n; ++u) {
        for (TxnId v : waits[u]) reference.AddEdge(u, v);
      }
      ASSERT_EQ(tracker.has_cycle(), reference.FindCycle().has_value())
          << "seed " << seed << " tick " << tick;
      if (tracker.has_cycle() && rng.NextBool(0.8)) {
        const std::vector<TxnId>& cycle = *tracker.cycle();
        TxnId victim = *std::max_element(cycle.begin(), cycle.end());
        tracker.OnResolved(victim);
        waits[victim].clear();
        for (auto& set : waits) {
          set.erase(std::remove(set.begin(), set.end(), victim), set.end());
        }
        std::vector<TxnId> check_ids;
        for (TxnId id = 1; id <= n; ++id) check_ids.push_back(id);
        ConflictGraph check(std::move(check_ids));
        for (TxnId u = 1; u <= n; ++u) {
          for (TxnId v : waits[u]) check.AddEdge(u, v);
        }
        ASSERT_EQ(tracker.has_cycle(), check.FindCycle().has_value())
            << "post-resolution verdict diverged";
      }
    }
  }
}

}  // namespace
}  // namespace nse
