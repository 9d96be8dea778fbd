#include "analysis/analysis_context.h"

#include <gtest/gtest.h>

#include "analysis/checker.h"
#include "analysis/theorems.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "constraints/ast.h"
#include "fuzz_env.h"
#include "oracles/oracles.h"
#include "txn/program.h"

namespace nse {
namespace {

class AnalysisContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.AddIntItems({"a", "b", "c", "d"}, -8, 8).ok());
    // Two disjoint conjuncts: a == b over {a, b}, c == d over {c, d}.
    auto ic = IntegrityConstraint::FromConjuncts(
        db_, {Eq(Var(db_.MustFind("a")), Var(db_.MustFind("b"))),
              Eq(Var(db_.MustFind("c")), Var(db_.MustFind("d")))});
    ASSERT_TRUE(ic.ok()) << ic.status();
    ic_.emplace(std::move(ic).value());
  }

  /// T1 copies a into b and c into d serially — strongly correct.
  Schedule SerialCopySchedule() {
    ScheduleBuilder sb(db_);
    sb.R(1, "a", Value(0)).W(1, "b", Value(0));
    sb.R(2, "c", Value(0)).W(2, "d", Value(0));
    return sb.Build();
  }

  /// Classic conflict cycle inside conjunct {a, b}.
  Schedule CyclicSchedule() {
    ScheduleBuilder sb(db_);
    sb.R(1, "a", Value(0))
        .W(2, "a", Value(1))
        .R(2, "b", Value(0))
        .W(1, "b", Value(1));
    return sb.Build();
  }

  Database db_;
  std::optional<IntegrityConstraint> ic_;
};

TEST_F(AnalysisContextTest, ArtifactsAreBuiltOnceAndCached) {
  Schedule s = CyclicSchedule();
  AnalysisContext ctx(db_, *ic_, s);

  const ConflictGraph& g1 = ctx.conflict_graph();
  const ConflictGraph& g2 = ctx.conflict_graph();
  EXPECT_EQ(&g1, &g2);
  EXPECT_EQ(ctx.cache_stats().conflict_graph_builds, 1u);

  ctx.csr_report();
  ctx.csr_report();
  EXPECT_EQ(ctx.cache_stats().csr_builds, 1u);
  EXPECT_EQ(ctx.cache_stats().conflict_graph_builds, 1u);

  ctx.pwsr_report();
  ctx.pwsr_report();
  EXPECT_EQ(ctx.cache_stats().pwsr_builds, 1u);
  // All projected graphs come from one walk of the schedule, with no
  // projected schedules materialized at all.
  EXPECT_EQ(ctx.cache_stats().projection_builds, 0u);
  EXPECT_EQ(ctx.cache_stats().projection_graph_builds, 2u);

  ctx.dr_violation();
  ctx.delayed_read();
  EXPECT_EQ(ctx.cache_stats().reads_from_builds, 1u);
  EXPECT_EQ(ctx.cache_stats().dr_builds, 1u);

  ctx.access_graph();
  ctx.access_graph();
  EXPECT_EQ(ctx.cache_stats().access_graph_builds, 1u);

  // A full theorem certification on the already-warmed context must not
  // rebuild anything.
  AnalysisCacheStats before = ctx.cache_stats();
  Certify(ctx);
  EXPECT_EQ(ctx.cache_stats().pwsr_builds, before.pwsr_builds);
  EXPECT_EQ(ctx.cache_stats().dr_builds, before.dr_builds);
  EXPECT_EQ(ctx.cache_stats().access_graph_builds,
            before.access_graph_builds);
}

TEST_F(AnalysisContextTest, OverlappingConjunctGraphsMaterializeNoProjection) {
  // Conjuncts over {a, b} and {b, c} share b. Their graphs come from the
  // same single walk as disjoint ones: b's accesses feed both conjuncts,
  // and no projected schedule is built.
  auto overlapping = IntegrityConstraint::FromConjuncts(
      db_,
      {Eq(Var(db_.MustFind("a")), Var(db_.MustFind("b"))),
       Eq(Var(db_.MustFind("b")), Var(db_.MustFind("c")))},
      ConjunctOverlap::kAllow);
  ASSERT_TRUE(overlapping.ok()) << overlapping.status();
  ASSERT_FALSE(overlapping->disjoint());
  Schedule s = CyclicSchedule();
  AnalysisContext ctx(db_, *overlapping, s);

  const PwsrReport& pwsr = ctx.pwsr_report();
  ctx.pwsr_report();
  EXPECT_EQ(ctx.cache_stats().pwsr_builds, 1u);
  EXPECT_EQ(ctx.cache_stats().projection_builds, 0u);
  EXPECT_EQ(ctx.cache_stats().projection_graph_builds, 2u);
  EXPECT_FALSE(pwsr.conjuncts_disjoint);
  EXPECT_FALSE(pwsr.is_pwsr);
  ASSERT_EQ(pwsr.per_conjunct.size(), 2u);
  // The {a, b} cycle closes at w1(b), position 3 of S; {b, c} sees only
  // T2's r2(b) and T1's w1(b), one edge.
  ASSERT_TRUE(pwsr.per_conjunct[0].csr.cycle_op_pos.has_value());
  EXPECT_EQ(*pwsr.per_conjunct[0].csr.cycle_op_pos, 3u);
  EXPECT_TRUE(pwsr.per_conjunct[1].csr.serializable);
  EXPECT_EQ(ctx.projection_graph(1).num_edges(), 1u);
  EXPECT_EQ(ctx.cache_stats().projection_graph_builds, 2u);
}

TEST_F(AnalysisContextTest, ContextReportsMatchFreeFunctions) {
  for (const Schedule& s : {SerialCopySchedule(), CyclicSchedule()}) {
    AnalysisContext ctx(db_, *ic_, s);
    CsrReport direct = CheckConflictSerializability(s);
    EXPECT_EQ(ctx.csr_report().serializable, direct.serializable);
    EXPECT_EQ(ctx.csr_report().order, direct.order);
    EXPECT_EQ(ctx.csr_report().cycle, direct.cycle);
    EXPECT_EQ(ctx.csr_report().cycle_edge, direct.cycle_edge);
    EXPECT_EQ(ctx.csr_report().cycle_op_pos, direct.cycle_op_pos);

    PwsrReport pwsr = CheckPwsr(s, *ic_);
    EXPECT_EQ(ctx.pwsr_report().is_pwsr, pwsr.is_pwsr);
    ASSERT_EQ(ctx.pwsr_report().per_conjunct.size(),
              pwsr.per_conjunct.size());
    for (size_t e = 0; e < pwsr.per_conjunct.size(); ++e) {
      const CsrReport& cached = ctx.pwsr_report().per_conjunct[e].csr;
      EXPECT_EQ(cached.serializable, pwsr.per_conjunct[e].csr.serializable);
      EXPECT_EQ(cached.cycle, pwsr.per_conjunct[e].csr.cycle);
      EXPECT_EQ(cached.cycle_edge, pwsr.per_conjunct[e].csr.cycle_edge);
      EXPECT_EQ(cached.cycle_op_pos, pwsr.per_conjunct[e].csr.cycle_op_pos);
    }

    EXPECT_EQ(ctx.delayed_read(), IsDelayedRead(s));
    EXPECT_EQ(ctx.strict(), IsStrict(s));
  }
}

TEST_F(AnalysisContextTest, ProjectionHandleMapsBackToSourcePositions) {
  Schedule s = SerialCopySchedule();  // ops 0,1 on {a,b}; ops 2,3 on {c,d}
  AnalysisContext ctx(db_, *ic_, s);
  const ScheduleProjection& p0 = ctx.projection(0);
  EXPECT_EQ(p0.schedule.size(), 2u);
  EXPECT_EQ(p0.source_positions, (std::vector<size_t>{0, 1}));
  const ScheduleProjection& p1 = ctx.projection(1);
  EXPECT_EQ(p1.source_positions, (std::vector<size_t>{2, 3}));
}

TEST_F(AnalysisContextTest, OwningContextKeepsScheduleAlive) {
  ScheduleBuilder sb(db_);
  sb.R(1, "a", Value(0)).W(1, "b", Value(0));
  AnalysisContext ctx(db_, *ic_, sb.Build());
  EXPECT_EQ(ctx.schedule().size(), 2u);
  EXPECT_TRUE(ctx.csr_report().serializable);
}

TEST_F(AnalysisContextTest, BuiltInRegistryHasTheNineCriteria) {
  const CheckerRegistry& registry = CheckerRegistry::BuiltIn();
  std::vector<std::string_view> names = registry.Names();
  ASSERT_EQ(names.size(), 9u);
  EXPECT_EQ(names[0], "csr");
  EXPECT_EQ(names[1], "pwsr");
  EXPECT_EQ(names[2], "delayed-read");
  EXPECT_EQ(names[3], "view-set");
  EXPECT_EQ(names[4], "strong-correctness");
  EXPECT_EQ(names[5], "theorems");
  EXPECT_EQ(names[6], "view-serializability");
  EXPECT_EQ(names[7], "mvsr");
  EXPECT_EQ(names[8], "mv-robustness");
  EXPECT_NE(registry.Find("pwsr"), nullptr);
  EXPECT_EQ(registry.Find("no-such-checker"), nullptr);
}

TEST_F(AnalysisContextTest, RunAllOnStronglyCorrectSchedule) {
  Schedule s = SerialCopySchedule();
  AnalysisContext ctx(db_, *ic_, s);
  std::vector<CheckResult> results = CheckerRegistry::BuiltIn().RunAll(ctx);
  ASSERT_EQ(results.size(), 9u);
  for (const CheckResult& result : results) {
    EXPECT_EQ(result.verdict, Verdict::kSatisfied) << result.ToString();
  }
}

TEST_F(AnalysisContextTest, RunAllOnCyclicSchedule) {
  Schedule s = CyclicSchedule();
  AnalysisContext ctx(db_, *ic_, s);
  const CheckerRegistry& registry = CheckerRegistry::BuiltIn();

  auto csr = registry.Run("csr", ctx);
  ASSERT_TRUE(csr.ok());
  EXPECT_EQ(csr->verdict, Verdict::kViolated);
  EXPECT_NE(csr->witness.find("cycle"), std::string::npos);

  auto pwsr = registry.Run("pwsr", ctx);
  ASSERT_TRUE(pwsr.ok());
  EXPECT_EQ(pwsr->verdict, Verdict::kViolated);

  // The theorems cannot certify a non-PWSR schedule, but that leaves strong
  // correctness open rather than refuted.
  auto theorems = registry.Run("theorems", ctx);
  ASSERT_TRUE(theorems.ok());
  EXPECT_EQ(theorems->verdict, Verdict::kUnknown);

  EXPECT_FALSE(registry.Run("no-such-checker", ctx).ok());
}

TEST_F(AnalysisContextTest, ScheduleOnlyContextLeavesIcCheckersUnknown) {
  Schedule s = CyclicSchedule();
  AnalysisContext ctx(s);
  EXPECT_FALSE(ctx.has_db());
  EXPECT_FALSE(ctx.has_ic());
  std::vector<CheckResult> results = CheckerRegistry::BuiltIn().RunAll(ctx);
  ASSERT_EQ(results.size(), 9u);
  EXPECT_EQ(results[0].verdict, Verdict::kViolated);   // csr
  EXPECT_EQ(results[1].verdict, Verdict::kUnknown);    // pwsr: no IC
  EXPECT_EQ(results[2].verdict, Verdict::kSatisfied);  // delayed-read
  EXPECT_EQ(results[4].verdict, Verdict::kUnknown);    // strong-correctness
  // The multiversion criteria need no IC: the conflict cycle here is also
  // a view-serializability violation, and the r/w pattern is the textbook
  // dangerous structure.
  EXPECT_EQ(results[6].verdict, Verdict::kViolated);   // view-serializability
  EXPECT_EQ(results[7].verdict, Verdict::kViolated);   // mvsr
  EXPECT_EQ(results[8].verdict, Verdict::kViolated);   // mv-robustness
}

TEST_F(AnalysisContextTest, CertifyOnDbLessContextLeavesFixedStructureUnknown) {
  // A context without a database cannot run the fixed-structure analysis,
  // even when options carry programs: the Theorem 1 hypothesis must stay
  // unknown instead of aborting on the missing catalog.
  Schedule s = SerialCopySchedule();
  TransactionProgram noop("noop", {});
  std::vector<const TransactionProgram*> programs{&noop};
  AnalysisOptions options;
  options.programs = &programs;
  AnalysisContext ctx(*ic_, s, options);
  TheoremCertificate cert = Certify(ctx);
  EXPECT_FALSE(cert.all_programs_fixed_structure.has_value());
  EXPECT_FALSE(cert.theorem1_applies);
  // The registry path must not abort either.
  auto result = CheckerRegistry::BuiltIn().Run("theorems", ctx);
  ASSERT_TRUE(result.ok());
}

TEST_F(AnalysisContextTest, RegistryRejectsDuplicateNames) {
  class Dummy : public Checker {
   public:
    std::string_view name() const override { return "dummy"; }
    CheckResult Check(AnalysisContext&) const override {
      return CheckResult{"dummy", Verdict::kSatisfied, ""};
    }
  };
  CheckerRegistry registry;
  EXPECT_TRUE(registry.Register(std::make_unique<Dummy>()).ok());
  EXPECT_FALSE(registry.Register(std::make_unique<Dummy>()).ok());
  EXPECT_FALSE(registry.Register(nullptr).ok());
}

TEST_F(AnalysisContextTest, OrderForOutOfRangeIsEmptyNotUb) {
  Schedule s = SerialCopySchedule();
  PwsrReport report = CheckPwsr(s, *ic_);
  ASSERT_EQ(report.per_conjunct.size(), 2u);
  EXPECT_TRUE(report.OrderFor(0).has_value());
  EXPECT_FALSE(report.OrderFor(2).has_value());
  EXPECT_FALSE(report.OrderFor(999).has_value());
  EXPECT_FALSE(PwsrReport().OrderFor(0).has_value());
}

TEST_F(AnalysisContextTest, IncrementalConflictGraphEdgesAndTopoCache) {
  ConflictGraph graph(std::vector<TxnId>{1, 2, 3});
  EXPECT_TRUE(graph.IsAcyclic());
  EXPECT_EQ(graph.num_edges(), 0u);

  EXPECT_TRUE(graph.AddEdge(1, 2));
  EXPECT_FALSE(graph.AddEdge(1, 2));  // duplicate
  EXPECT_TRUE(graph.AddEdge(2, 3));
  EXPECT_EQ(graph.num_edges(), 2u);
  EXPECT_TRUE(graph.HasEdge(1, 2));
  EXPECT_FALSE(graph.HasEdge(2, 1));
  ASSERT_TRUE(graph.TopologicalOrder().has_value());
  EXPECT_EQ(*graph.TopologicalOrder(), (std::vector<TxnId>{1, 2, 3}));

  // Closing the cycle invalidates the cached topological state.
  EXPECT_TRUE(graph.AddEdge(3, 1));
  EXPECT_FALSE(graph.IsAcyclic());
  auto cycle = graph.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->front(), cycle->back());
  EXPECT_EQ(cycle->size(), 4u);
}

TEST_F(AnalysisContextTest, CsrFastPathRecordsCycleClosingOperation) {
  // r1(a) w2(a) r2(b) w1(b): the edge T2 -> T1 created by w1(b) at trace
  // position 3 closes the conflict cycle. A context with an IC and a
  // schedule-only context must both record it.
  Schedule s = CyclicSchedule();

  AnalysisContext with_ic(db_, *ic_, s);
  const CsrReport& ic_csr = with_ic.csr_report();
  EXPECT_FALSE(ic_csr.serializable);
  ASSERT_TRUE(ic_csr.cycle_edge.has_value());
  EXPECT_EQ(*ic_csr.cycle_edge, std::make_pair(TxnId{2}, TxnId{1}));
  ASSERT_TRUE(ic_csr.cycle_op_pos.has_value());
  EXPECT_EQ(*ic_csr.cycle_op_pos, 3u);
  ASSERT_TRUE(ic_csr.cycle.has_value());
  EXPECT_EQ(ic_csr.cycle->front(), ic_csr.cycle->back());

  AnalysisContext plain(s);  // schedule-only
  const CsrReport& plain_csr = plain.csr_report();
  EXPECT_FALSE(plain_csr.serializable);
  EXPECT_EQ(plain_csr.cycle_edge, ic_csr.cycle_edge);
  EXPECT_EQ(plain_csr.cycle_op_pos, ic_csr.cycle_op_pos);
}

TEST_F(AnalysisContextTest, PwsrConjunctCycleRendersAtFullSchedulePosition) {
  // The cycle lives in conjunct {a, b}; its closing operation w1(b) sits at
  // full-schedule position 3 even though the conjunct projection would
  // place it earlier — the witness must point into S.
  Schedule s = CyclicSchedule();
  AnalysisContext ctx(db_, *ic_, s);
  const PwsrReport& pwsr = ctx.pwsr_report();
  EXPECT_FALSE(pwsr.is_pwsr);
  ASSERT_EQ(pwsr.per_conjunct.size(), 2u);
  const CsrReport& conjunct_csr = pwsr.per_conjunct[0].csr;
  EXPECT_FALSE(conjunct_csr.serializable);
  ASSERT_TRUE(conjunct_csr.cycle_op_pos.has_value());
  EXPECT_EQ(*conjunct_csr.cycle_op_pos, 3u);
  // Conjunct {c, d} saw no operation conflicts at all.
  EXPECT_TRUE(pwsr.per_conjunct[1].csr.serializable);
}

TEST_F(AnalysisContextTest, ContextAgreesWithCheckersOnRandomSchedules) {
  Rng rng(2026);
  for (int trial = 0; trial < 50; ++trial) {
    OpSequence ops;
    size_t num_ops = 4 + rng.NextBelow(12);
    for (size_t i = 0; i < num_ops; ++i) {
      TxnId txn = static_cast<TxnId>(rng.NextBelow(3) + 1);
      ItemId item = static_cast<ItemId>(rng.NextBelow(db_.num_items()));
      if (rng.NextBool(0.5)) {
        ops.push_back(Operation::Write(txn, item, Value(0)));
      } else {
        ops.push_back(Operation::Read(txn, item, Value(0)));
      }
    }
    Schedule s(std::move(ops));
    AnalysisContext ctx(db_, *ic_, s);
    EXPECT_EQ(ctx.csr_report().serializable, IsConflictSerializable(s));
    EXPECT_EQ(ctx.pwsr_report().is_pwsr, CheckPwsr(s, *ic_).is_pwsr);
    EXPECT_EQ(ctx.delayed_read(), IsDelayedRead(s));
    // The one-sweep projected graphs must match graphs built directly from
    // materialized projections.
    for (size_t e = 0; e < ic_->num_conjuncts(); ++e) {
      ConflictGraph direct = ConflictGraph::Build(s.Project(ic_->data_set(e)));
      EXPECT_EQ(ctx.projection_graph(e).nodes(), direct.nodes());
      EXPECT_EQ(ctx.projection_graph(e).Edges(), direct.Edges());
    }
  }
}

// Conjunct-graph differential, fuzz-scaled: the full graph, every conjunct
// graph (one walk of the schedule, one bitset sweep per conjunct) and
// reads-from against artifacts built one at a time from materialized
// projections by the reference vector sweep — for a disjoint IC and for an
// overlapping one, whose shared items feed two conjunct sweeps each. The
// PWSR witness must sit where the reference graph of the materialized
// projection closes its cycle, mapped back to a position of S.
TEST(AnalysisContextFusedSweepFuzz, FusedPlanesMatchMaterializedReference) {
  Database db;
  ASSERT_TRUE(db.AddIntItems({"a", "b", "c", "d", "e", "f"}, -4, 4).ok());
  auto var = [&db](const char* name) { return Var(db.MustFind(name)); };
  auto disjoint = IntegrityConstraint::FromConjuncts(
      db, {Eq(var("a"), var("b")), Eq(var("c"), var("d")),
           Eq(var("e"), var("f"))});
  ASSERT_TRUE(disjoint.ok()) << disjoint.status();
  // {a, b, c}, {c, d} and {a, d, e}: every item but b, e and f is shared.
  auto overlapping = IntegrityConstraint::FromConjuncts(
      db,
      {Eq(Add(var("a"), var("b")), var("c")), Eq(var("c"), var("d")),
       Eq(Add(var("a"), var("d")), var("e"))},
      ConjunctOverlap::kAllow);
  ASSERT_TRUE(overlapping.ok()) << overlapping.status();
  ASSERT_FALSE(overlapping->disjoint());

  const size_t seeds = FuzzSeedCount(10);
  for (const IntegrityConstraint* ic : {&*disjoint, &*overlapping}) {
    for (uint64_t seed = 1; seed <= seeds; ++seed) {
      Rng rng(seed * 6151 + 7);
      const size_t num_txns = 2 + rng.NextBelow(10);
      const size_t num_ops = 6 + rng.NextBelow(50);
      OpSequence ops;
      for (size_t i = 0; i < num_ops; ++i) {
        TxnId txn = static_cast<TxnId>(1 + rng.NextBelow(num_txns));
        ItemId item = static_cast<ItemId>(rng.NextBelow(db.num_items()));
        if (rng.NextBool(0.5)) {
          ops.push_back(Operation::Write(txn, item, Value(0)));
        } else {
          ops.push_back(Operation::Read(txn, item, Value(0)));
        }
      }
      Schedule s(std::move(ops));
      AnalysisContext ctx(db, *ic, s);
      const std::string where =
          StrCat(ic->disjoint() ? "disjoint" : "overlapping", " seed ", seed);

      ConflictGraph full = oracles::BuildReference(s);
      EXPECT_EQ(ctx.conflict_graph().Edges(), full.Edges()) << where;
      EXPECT_EQ(ctx.conflict_graph().ToString(), full.ToString()) << where;

      const PwsrReport& pwsr = ctx.pwsr_report();
      ASSERT_EQ(pwsr.per_conjunct.size(), ic->num_conjuncts()) << where;
      for (size_t e = 0; e < ic->num_conjuncts(); ++e) {
        ScheduleProjection projected = s.ProjectWithPositions(ic->data_set(e));
        ConflictGraph direct = oracles::BuildReference(projected.schedule,
                                                       CycleMode::kIncremental);
        EXPECT_EQ(ctx.projection_graph(e).nodes(), direct.nodes())
            << where << " conjunct " << e;
        EXPECT_EQ(ctx.projection_graph(e).Edges(), direct.Edges())
            << where << " conjunct " << e;
        EXPECT_EQ(ctx.projection_graph(e).IsAcyclic(), direct.IsAcyclic());
        EXPECT_EQ(ctx.projection_graph(e).TopologicalOrder(),
                  direct.TopologicalOrder())
            << where << " conjunct " << e;
        for (TxnId txn : direct.nodes()) {
          EXPECT_EQ(ctx.projection_graph(e).InDegree(txn), direct.InDegree(txn))
              << where << " conjunct " << e << " txn " << txn;
        }
        std::optional<size_t> expected_pos;
        if (direct.cycle_op_pos().has_value()) {
          expected_pos = projected.source_positions[*direct.cycle_op_pos()];
        }
        EXPECT_EQ(pwsr.per_conjunct[e].csr.cycle_op_pos, expected_pos)
            << where << " conjunct " << e;
      }

      const auto& rf = ctx.reads_from();
      const auto direct_rf = ReadsFromPairs(s);
      ASSERT_EQ(rf.size(), direct_rf.size()) << where;
      for (size_t i = 0; i < rf.size(); ++i) {
        EXPECT_EQ(rf[i].reader_pos, direct_rf[i].reader_pos);
        EXPECT_EQ(rf[i].writer_pos, direct_rf[i].writer_pos);
      }
    }
  }
}

}  // namespace
}  // namespace nse
