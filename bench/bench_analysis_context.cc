// Cached vs. uncached full-checker sweeps over violation-search-sized
// workloads: the repeated-analysis cost the AnalysisContext refactor exists
// to kill.
//
// The "uncached" path runs the criteria the way pre-context code did — one
// free-function call per criterion, each rebuilding its artifacts from the
// raw schedule (Certify alone re-derives PWSR, DR, and the DAG). The
// "cached" path answers the same questions through one shared context. Both
// paths compute identical verdicts; only artifact reuse differs.
//
// Emits a fixed-width table on stdout and a JSON baseline (default
// BENCH_analysis_context.json, override with the last argument) for the
// perf trajectory across PRs. --smoke runs one small configuration with
// the verdict-agreement check and writes no JSON.

#include <iostream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/logging.h"
#include "nse/nse.h"
#include "scheduler/metrics.h"

namespace nse {
namespace {

struct Scenario {
  Database db;
  std::optional<IntegrityConstraint> ic;

  static Scenario Make(size_t conjuncts) {
    Scenario sc;
    std::vector<Formula> formulas;
    for (size_t e = 0; e < conjuncts; ++e) {
      auto x = sc.db.AddItem(StrCat("c", e, "_x"), Domain::IntRange(-8, 8));
      auto y = sc.db.AddItem(StrCat("c", e, "_y"), Domain::IntRange(-8, 8));
      NSE_CHECK(x.ok() && y.ok());
      formulas.push_back(Eq(Var(*x), Var(*y)));
    }
    auto ic = IntegrityConstraint::FromConjuncts(sc.db, std::move(formulas));
    NSE_CHECK(ic.ok());
    sc.ic = std::move(ic).value();
    return sc;
  }
};

Schedule RandomSchedule(Rng& rng, size_t num_ops, size_t txns, size_t items) {
  OpSequence ops;
  ops.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    TxnId txn = static_cast<TxnId>(rng.NextBelow(txns) + 1);
    ItemId item = static_cast<ItemId>(rng.NextBelow(items));
    if (rng.NextBool(0.5)) {
      ops.push_back(Operation::Write(txn, item, Value(static_cast<int64_t>(i))));
    } else {
      ops.push_back(Operation::Read(txn, item, Value(0)));
    }
  }
  return Schedule(std::move(ops));
}

/// Verdict fingerprint, used to confirm both paths agree (and to keep the
/// optimizer honest).
struct SweepDigest {
  uint64_t csr = 0, pwsr = 0, dr = 0, strict = 0, dag = 0, certified = 0;

  bool operator==(const SweepDigest& other) const {
    return csr == other.csr && pwsr == other.pwsr && dr == other.dr &&
           strict == other.strict && dag == other.dag &&
           certified == other.certified;
  }
};

/// Pre-context style: every criterion re-derives its own artifacts from the
/// raw schedule — materialized per-conjunct projections with per-projection
/// conflict-graph builds for PWSR, a fresh reads-from relation for DR, and
/// a second full PWSR + DR + DAG derivation inside certification. This is
/// exactly the computation pattern callers had before AnalysisContext (the
/// free functions now share artifacts internally, so the pattern is spelled
/// out here).
SweepDigest UncachedSweep(const Database&, const IntegrityConstraint& ic,
                          const std::vector<Schedule>& schedules) {
  SweepDigest digest;
  auto pwsr_rebuild = [&ic](const Schedule& s) {
    bool is_pwsr = true;
    for (size_t e = 0; e < ic.num_conjuncts(); ++e) {
      CsrReport csr =
          CsrReportFromGraph(ConflictGraph::Build(s.Project(ic.data_set(e))));
      if (!csr.serializable) is_pwsr = false;
    }
    return is_pwsr;
  };
  auto dr_rebuild = [](const Schedule& s) {
    for (const ReadsFromEdge& edge : ReadsFromPairs(s)) {
      TxnId writer = s.at(edge.writer_pos).txn;
      if (writer == s.at(edge.reader_pos).txn) continue;
      if (!s.CompletedBy(writer, edge.reader_pos)) return false;
    }
    return true;
  };
  for (const Schedule& s : schedules) {
    if (CsrReportFromGraph(ConflictGraph::Build(s)).serializable) {
      ++digest.csr;
    }
    if (pwsr_rebuild(s)) ++digest.pwsr;
    if (dr_rebuild(s)) ++digest.dr;
    if (IsStrict(s)) ++digest.strict;
    if (DataAccessGraph::Build(s, ic).IsAcyclic()) ++digest.dag;
    // Certification re-derives all three hypotheses, as Certify did before
    // the context existed.
    bool certified = pwsr_rebuild(s) && ic.disjoint() &&
                     (dr_rebuild(s) || DataAccessGraph::Build(s, ic).IsAcyclic());
    if (certified) ++digest.certified;
  }
  return digest;
}

/// One shared context per schedule; identical questions, artifacts built
/// once each.
SweepDigest CachedSweep(const Database& db, const IntegrityConstraint& ic,
                        const std::vector<Schedule>& schedules) {
  SweepDigest digest;
  for (const Schedule& s : schedules) {
    AnalysisContext ctx(db, ic, s);
    if (ctx.csr_report().serializable) ++digest.csr;
    if (ctx.pwsr_report().is_pwsr) ++digest.pwsr;
    if (ctx.delayed_read()) ++digest.dr;
    if (ctx.strict()) ++digest.strict;
    if (ctx.access_graph().IsAcyclic()) ++digest.dag;
    if (Certify(ctx).guaranteed_strongly_correct()) ++digest.certified;
  }
  return digest;
}

}  // namespace
}  // namespace nse

int main(int argc, char** argv) {
  using namespace nse;
  const bench::BenchArgs args =
      bench::ParseBenchArgs(argc, argv, "BENCH_analysis_context.json");

  struct Config {
    size_t ops, conjuncts, schedules;
  };
  // Violation-search-sized executions: hundreds of sampled schedules per
  // experiment, tens-to-thousands of operations each.
  const std::vector<Config> configs =
      args.smoke ? std::vector<Config>{{64, 4, 60}, {256, 8, 30}}
                 : std::vector<Config>{
                       {64, 4, 600}, {256, 8, 300}, {1024, 8, 80},
                       {4096, 16, 16}};
  const int reps = args.smoke ? 1 : 3;

  TablePrinter table({"ops/schedule", "conjuncts", "schedules",
                      "uncached ms", "cached ms", "speedup"});
  bench::BenchReport report("analysis_context");
  for (const Config& config : configs) {
    Scenario sc = Scenario::Make(config.conjuncts);
    Rng rng(4242);
    std::vector<Schedule> schedules;
    schedules.reserve(config.schedules);
    for (size_t i = 0; i < config.schedules; ++i) {
      schedules.push_back(
          RandomSchedule(rng, config.ops, 8, sc.db.num_items()));
    }

    SweepDigest uncached_digest, cached_digest;
    const double uncached_ms = bench::BestOfMs(reps, [&] {
      uncached_digest = UncachedSweep(sc.db, *sc.ic, schedules);
    });
    const double cached_ms = bench::BestOfMs(reps, [&] {
      cached_digest = CachedSweep(sc.db, *sc.ic, schedules);
    });
    NSE_CHECK(uncached_digest == cached_digest);

    const double speedup = cached_ms == 0 ? 0 : uncached_ms / cached_ms;
    table.AddRow({StrCat(config.ops), StrCat(config.conjuncts),
                  StrCat(config.schedules), FormatDouble(uncached_ms, 2),
                  FormatDouble(cached_ms, 2),
                  StrCat(FormatDouble(speedup, 2), "x")});
    report.AddRow()
        .Key("schedules", config.schedules)
        .Exact("ops", config.ops)
        .Exact("conjuncts", config.conjuncts)
        .Ratio("speedup", speedup)
        .Info("uncached_ms", uncached_ms)
        .Info("cached_ms", cached_ms);
  }

  std::cout << "\n=== AnalysisContext: cached vs uncached checker sweeps ===\n"
            << table.Render()
            << "(same verdicts on both paths; speedup is pure artifact "
               "reuse)\n";

  if (args.smoke) return 0;
  return report.Write(args.json_path) ? 0 : 1;
}
