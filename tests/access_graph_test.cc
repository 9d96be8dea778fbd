#include "analysis/access_graph.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "fuzz_env.h"
#include "oracles/oracles.h"
#include "paper/paper_examples.h"
#include "txn/interleaver.h"

namespace nse {
namespace {

TEST(AccessGraphTest, PaperExample2GraphIsCyclic) {
  // T1 reads c ∈ d2 and writes a,b ∈ d1; T2 reads a,b ∈ d1 and writes
  // c ∈ d2 — the cyclic access pattern the paper blames for Example 2.
  auto ex = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
  auto run = Interleave(ex.db, programs, ex.ds0, ex.choices);
  ASSERT_TRUE(run.ok());
  DataAccessGraph g = DataAccessGraph::Build(run->schedule, *ex.ic);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 0));  // C2 -> C1 via T1
  EXPECT_TRUE(g.HasEdge(0, 1));  // C1 -> C2 via T2
  EXPECT_FALSE(g.IsAcyclic());
  EXPECT_EQ(g.TopologicalOrder(), std::nullopt);
}

TEST(AccessGraphTest, PaperExample5GraphIsAcyclic) {
  // Example 5's point: every single-theorem hypothesis holds (including an
  // acyclic DAG) — only conjunct disjointness fails.
  auto ex = paper::Example5::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2, &ex.tp3};
  auto run = Interleave(ex.db, programs, ex.ds0, ex.choices);
  ASSERT_TRUE(run.ok()) << run.status();
  DataAccessGraph g = DataAccessGraph::Build(run->schedule, *ex.ic);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_TRUE(g.IsAcyclic());
  auto order = g.TopologicalOrder();
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->size(), 3u);
}

TEST(AccessGraphTest, NoSelfEdges) {
  Database db;
  ASSERT_TRUE(db.AddIntItems({"a", "b"}, -8, 8).ok());
  auto ic = IntegrityConstraint::Parse(db, "a = b");
  ASSERT_TRUE(ic.ok());
  // One txn reads and writes within the single conjunct.
  ScheduleBuilder sb(db);
  sb.R(1, "a", Value(0)).W(1, "b", Value(0));
  DataAccessGraph g = DataAccessGraph::Build(sb.Build(), *ic);
  EXPECT_TRUE(g.Edges().empty());
  EXPECT_TRUE(g.IsAcyclic());
}

TEST(AccessGraphTest, EdgeRequiresReadAndWriteByOneTxn) {
  Database db;
  ASSERT_TRUE(db.AddIntItems({"a", "b"}, -8, 8).ok());
  auto ic = IntegrityConstraint::Parse(db, "a > 0 & b > 0");
  ASSERT_TRUE(ic.ok());
  // T1 reads a; T2 writes b: no single transaction spans the conjuncts.
  ScheduleBuilder sb(db);
  sb.R(1, "a", Value(1)).W(2, "b", Value(1));
  EXPECT_TRUE(
      DataAccessGraph::Build(sb.Build(), *ic).Edges().empty());
  // T3 reads a and writes b: edge C1 -> C2.
  ScheduleBuilder sb2(db);
  sb2.R(3, "a", Value(1)).W(3, "b", Value(1));
  DataAccessGraph g = DataAccessGraph::Build(sb2.Build(), *ic);
  ASSERT_EQ(g.Edges().size(), 1u);
  EXPECT_EQ(g.Edges()[0], (std::pair<size_t, size_t>{0, 1}));
  EXPECT_EQ(g.ToString(), "C1 -> C2");
}

TEST(AccessGraphTest, TopologicalOrderGivesInductionOrder) {
  Database db;
  ASSERT_TRUE(db.AddIntItems({"a", "b", "c"}, -8, 8).ok());
  auto ic = IntegrityConstraint::Parse(db, "a > 0 & b > 0 & c > 0");
  ASSERT_TRUE(ic.ok());
  // Chain: read a write b; read b write c.
  ScheduleBuilder sb(db);
  sb.R(1, "a", Value(1))
      .W(1, "b", Value(1))
      .R(2, "b", Value(1))
      .W(2, "c", Value(1));
  DataAccessGraph g = DataAccessGraph::Build(sb.Build(), *ic);
  auto order = g.TopologicalOrder();
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<size_t>{0, 1, 2}));
}

// DAG(S, IC) differential: the one-walk Build against the per-transaction
// reference in tests/oracles. Random ICs allow overlapping conjuncts, and
// every fourth seed has more than 64 of them so the per-transaction
// conjunct bitsets span words; the last one or two items belong to no
// conjunct. Each transaction only reads, only writes, or does both.
TEST(DataAccessGraphFuzz, OneWalkMatchesPerTransactionReference) {
  const size_t seeds = FuzzSeedCount(24);
  size_t with_edges = 0;
  size_t overlapping = 0;
  size_t wide_edges = 0;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed * 2741 + 5);
    const bool wide = seed % 4 == 0;
    const size_t num_items = wide ? 80 : 3 + rng.NextBelow(8);
    const size_t constrained = num_items - 1 - rng.NextBelow(2);
    Database db;
    std::vector<std::string> names;
    for (size_t i = 0; i < num_items; ++i) names.push_back(StrCat("x", i));
    ASSERT_TRUE(db.AddIntItems(names, -4, 4).ok());
    const size_t num_conjuncts =
        wide ? 65 + rng.NextBelow(8) : 1 + rng.NextBelow(5);
    std::vector<Formula> conjuncts;
    for (size_t e = 0; e < num_conjuncts; ++e) {
      Term sum = Var(static_cast<ItemId>(rng.NextBelow(constrained)));
      for (uint64_t k = rng.NextBelow(3); k > 0; --k) {
        sum = Add(sum, Var(static_cast<ItemId>(rng.NextBelow(constrained))));
      }
      conjuncts.push_back(Eq(sum, Const(Value(0))));
    }
    auto ic = IntegrityConstraint::FromConjuncts(db, std::move(conjuncts),
                                                 ConjunctOverlap::kAllow);
    ASSERT_TRUE(ic.ok()) << ic.status();

    const size_t num_txns = 1 + rng.NextBelow(wide ? 40 : 8);
    enum Role { kReadOnly, kWriteOnly, kBoth };
    std::vector<Role> roles;
    for (size_t t = 0; t < num_txns; ++t) {
      roles.push_back(static_cast<Role>(rng.NextBelow(3)));
    }
    const size_t num_ops = 2 + rng.NextBelow(wide ? 200 : 40);
    OpSequence ops;
    for (size_t i = 0; i < num_ops; ++i) {
      const size_t t = rng.NextBelow(num_txns);
      const TxnId txn = static_cast<TxnId>(t + 1);
      const ItemId item = static_cast<ItemId>(rng.NextBelow(num_items));
      const bool write = roles[t] == kBoth ? rng.NextBool(0.5)
                                           : roles[t] == kWriteOnly;
      ops.push_back(write ? Operation::Write(txn, item, Value(0))
                          : Operation::Read(txn, item, Value(0)));
    }
    Schedule s(std::move(ops));

    const DataAccessGraph g = DataAccessGraph::Build(s, *ic);
    const std::vector<std::pair<size_t, size_t>> edges = g.Edges();
    ASSERT_EQ(g.num_nodes(), ic->num_conjuncts()) << "seed " << seed;
    ASSERT_EQ(edges, oracles::DataAccessGraphReference(s, *ic))
        << "seed " << seed;
    if (!edges.empty()) ++with_edges;
    if (!ic->disjoint()) ++overlapping;
    for (const auto& [from, to] : edges) {
      if (from >= 64 || to >= 64) ++wide_edges;
    }
  }
  // Edges past the first bitset word, from overlapping ICs too, or the
  // comparisons above were vacuous.
  EXPECT_GT(with_edges, 0u);
  EXPECT_GT(overlapping, 0u);
  EXPECT_GT(wide_edges, 0u);
}

}  // namespace
}  // namespace nse
