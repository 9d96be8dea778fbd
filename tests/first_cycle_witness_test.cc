// First-cycle witness parity. A batch build (ConflictGraph::Build and
// AnalysisContext's graphs) decides acyclicity with one Kahn pass and, only
// on a cyclic graph, replays its emission order into a Pearce–Kelly graph up
// to the first cycle. The witness — cycle, closing edge and the position of
// the operation that created it — must be exactly the one an incremental
// build reports. The goldens below were recorded from the incremental
// build; the fuzz pins that the replay's seeded initial order changes only
// its cost.

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis_context.h"
#include "analysis/conflict_graph.h"
#include "analysis/serializability.h"
#include "common/rng.h"
#include "fuzz_env.h"
#include "oracles/oracles.h"
#include "scheduler/pw_two_phase_locking.h"
#include "scheduler/sim.h"
#include "scheduler/workload.h"

namespace nse {
namespace {

using Edge = std::pair<TxnId, TxnId>;

struct Witness {
  std::vector<TxnId> cycle;
  Edge edge;
  size_t op_pos;
};

void ExpectWitness(const CsrReport& report, const Witness& golden,
                   const std::string& where) {
  EXPECT_FALSE(report.serializable) << where;
  EXPECT_EQ(report.cycle, std::optional<std::vector<TxnId>>(golden.cycle))
      << where;
  EXPECT_EQ(report.cycle_edge, std::optional<Edge>(golden.edge)) << where;
  EXPECT_EQ(report.cycle_op_pos, std::optional<size_t>(golden.op_pos))
      << where;
}

void ExpectGraphWitness(const ConflictGraph& graph, const Witness& golden,
                        const std::string& where) {
  EXPECT_EQ(graph.cycle(), std::optional<std::vector<TxnId>>(golden.cycle))
      << where;
  EXPECT_EQ(graph.cycle_edge(), std::optional<Edge>(golden.edge)) << where;
  EXPECT_EQ(graph.cycle_op_pos(), std::optional<size_t>(golden.op_pos))
      << where;
}

/// perfbench's certify_pwsr shape at `txns` scripts.
Workload CertifyShapeWorkload(size_t txns, uint64_t seed) {
  PartitionedWorkloadConfig cfg;
  cfg.num_partitions = 48;
  cfg.items_per_partition = 2;
  cfg.num_txns = txns;
  cfg.partitions_per_txn = 3;
  cfg.cross_read_probability = 0.2;
  cfg.hotspot_probability = 0.2;
  cfg.arrival_spread = 16 * txns;
  cfg.seed = seed;
  Result<Workload> workload = MakePartitionedWorkload(cfg);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).value();
}

// Seed 1's full graph closes its first cycle at op 1,666 of 1,921, so the
// replay runs most of the emission log before it stops. PW-2PL keeps every
// conjunct graph acyclic.
TEST(FirstCycleWitnessGolden, CertifyShapeFullGraphClosesLate) {
  Workload workload = CertifyShapeWorkload(200, 1);
  PredicatewiseTwoPhaseLocking policy(&*workload.ic);
  Result<SimResult> sim = RunSimulation(policy, workload.scripts);
  ASSERT_TRUE(sim.ok()) << sim.status();
  const Schedule& s = sim->schedule;
  ASSERT_EQ(s.size(), 1921u);

  const Witness golden{{57, 50, 57}, {57, 50}, 1666};
  AnalysisContext ctx(*workload.ic, s);
  EXPECT_EQ(ctx.conflict_graph().num_edges(), 5324u);
  ExpectWitness(ctx.csr_report(), golden, "context");
  ExpectWitness(CheckConflictSerializability(s), golden, "free function");
  ExpectGraphWitness(ConflictGraph::Build(s), golden, "batch build");
  ExpectGraphWitness(oracles::BuildReference(s, CycleMode::kIncremental),
                     golden, "incremental build");

  size_t projection_edges = 0;
  for (size_t e = 0; e < workload.ic->num_conjuncts(); ++e) {
    projection_edges += ctx.projection_graph(e).num_edges();
    EXPECT_FALSE(ctx.projection_graph(e).cycle().has_value()) << e;
  }
  EXPECT_EQ(projection_edges, 5807u);
  EXPECT_TRUE(ctx.pwsr_report().is_pwsr);
}

// The first eight scripts of the same workload, interleaved step by step at
// random with no scheduler: three conjunct graphs go cyclic.
TEST(FirstCycleWitnessGolden, UnscheduledInterleavingConjuncts) {
  Workload workload = CertifyShapeWorkload(200, 1);
  Rng rng(2);
  const size_t k = 8;
  std::vector<size_t> pc(k, 0);
  std::vector<size_t> live(k);
  std::iota(live.begin(), live.end(), 0);
  OpSequence ops;
  while (!live.empty()) {
    const size_t j = rng.NextBelow(live.size());
    const size_t i = live[j];
    const AccessStep& step = workload.scripts[i].steps[pc[i]++];
    const TxnId txn = static_cast<TxnId>(i + 1);
    ops.push_back(step.action == OpAction::kWrite
                      ? Operation::Write(txn, step.item, Value(0))
                      : Operation::Read(txn, step.item, Value(0)));
    if (pc[i] == workload.scripts[i].steps.size()) {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(j));
    }
  }
  Schedule s(std::move(ops));
  ASSERT_EQ(s.size(), 75u);

  AnalysisContext ctx(*workload.ic, s);
  const Witness full{{6, 2, 6}, {6, 2}, 14};
  ExpectWitness(ctx.csr_report(), full, "context");
  ExpectGraphWitness(ConflictGraph::Build(s), full, "batch build");

  const std::vector<std::pair<size_t, Witness>> cyclic = {
      {0, {{6, 2, 6}, {6, 2}, 14}},
      {17, {{2, 1, 2}, {2, 1}, 28}},
      {45, {{7, 1, 7}, {7, 1}, 68}},
  };
  const PwsrReport& pwsr = ctx.pwsr_report();
  EXPECT_FALSE(pwsr.is_pwsr);
  size_t next = 0;
  for (const ConjunctSerializability& entry : pwsr.per_conjunct) {
    if (entry.csr.serializable) continue;
    ASSERT_LT(next, cyclic.size()) << "conjunct " << entry.conjunct;
    EXPECT_EQ(entry.conjunct, cyclic[next].first);
    ExpectWitness(entry.csr, cyclic[next].second,
                  "conjunct " + std::to_string(entry.conjunct));
    ++next;
  }
  EXPECT_EQ(next, cyclic.size());
}

// Replay-order fuzz: for random schedules, a batch graph's emission log
// replayed from random initial orders (and from the identity order and the
// log's SeedOrder) must report the first cycle the identity-order
// incremental reference build reports, and so must Build's own batch path.
TEST(FirstCycleReplayFuzz, SeededReplayMatchesIdentityOrderBuild) {
  const size_t seeds = FuzzSeedCount(12);
  size_t cyclic = 0;
  size_t long_witnesses = 0;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed * 2654435761u + 17);
    const size_t num_txns = 3 + rng.NextBelow(30);
    const size_t num_items = 2 + rng.NextBelow(12);
    const size_t num_ops = 8 + rng.NextBelow(120);
    OpSequence ops;
    for (size_t i = 0; i < num_ops; ++i) {
      TxnId txn = static_cast<TxnId>(1 + rng.NextBelow(num_txns));
      ItemId item = static_cast<ItemId>(rng.NextBelow(num_items));
      if (rng.NextBool(0.4)) {
        ops.push_back(Operation::Write(txn, item, Value(0)));
      } else {
        ops.push_back(Operation::Read(txn, item, Value(0)));
      }
    }
    Schedule s(std::move(ops));
    const std::string where = "seed " + std::to_string(seed);
    const ConflictGraph incremental =
        oracles::BuildReference(s, CycleMode::kIncremental);
    const ConflictGraph built = ConflictGraph::Build(s);
    ASSERT_EQ(built.IsAcyclic(), incremental.IsAcyclic()) << where;
    ASSERT_EQ(built.cycle(), incremental.cycle()) << where;
    ASSERT_EQ(built.cycle_edge(), incremental.cycle_edge()) << where;
    ASSERT_EQ(built.cycle_op_pos(), incremental.cycle_op_pos()) << where;
    if (incremental.IsAcyclic()) continue;
    ++cyclic;
    if (incremental.cycle()->size() > 3) ++long_witnesses;

    // The batch graph and its emission log: the sweep Build runs, with
    // each edge also inserted by hand, so the graph carries no cycle
    // record yet.
    const std::vector<TxnId>& ids = s.txn_ids();
    ConflictGraph batch(ids);
    internal::EmissionLog log;
    internal::ConflictBitSweep sweep(static_cast<uint32_t>(ids.size()));
    for (size_t pos = 0; pos < s.size(); ++pos) {
      const Operation& op = s.at(pos);
      const uint32_t to = static_cast<uint32_t>(
          std::lower_bound(ids.begin(), ids.end(), op.txn) - ids.begin());
      sweep.Access(to, op.is_write(), op.entity, [&](uint32_t from) {
        batch.AddEdgeByIndexAt(from, to, pos);
        log.Append(from, to, pos);
      });
    }
    ASSERT_EQ(batch.Edges(), incremental.Edges()) << where;
    ASSERT_FALSE(batch.IsAcyclic()) << where;

    std::vector<uint32_t> order(ids.size());
    std::iota(order.begin(), order.end(), 0);
    for (int trial = 0; trial < 8; ++trial) {
      if (trial == 1) {
        order = log.SeedOrder(ids.size());  // what Build passes
      } else if (trial > 1) {
        for (size_t i = order.size() - 1; i > 0; --i) {
          std::swap(order[i], order[rng.NextBelow(i + 1)]);
        }
      }
      ConflictGraph replayed = batch;
      replayed.ReplayFirstCycle(log, order);
      const std::string at = where + " trial " + std::to_string(trial);
      ASSERT_EQ(replayed.cycle(), incremental.cycle()) << at;
      ASSERT_EQ(replayed.cycle_edge(), incremental.cycle_edge()) << at;
      ASSERT_EQ(replayed.cycle_op_pos(), incremental.cycle_op_pos()) << at;
      ASSERT_EQ(replayed.Edges(), incremental.Edges()) << at;
    }
  }
  // Cyclic graphs, some with witnesses beyond a 2-cycle, or the
  // comparisons above were vacuous.
  EXPECT_GT(cyclic, 0u);
  EXPECT_GT(long_witnesses, 0u);
}

}  // namespace
}  // namespace nse
