// Cached vs. uncached full-checker sweeps over violation-search-sized
// workloads: the repeated-analysis cost the AnalysisContext refactor exists
// to kill.
//
// The "uncached" path runs the criteria the way pre-context code did — one
// free-function call per criterion, each rebuilding its artifacts from the
// raw schedule (Certify alone re-derives PWSR, DR, and the DAG). The
// "cached" path answers the same questions through one shared context. Both
// paths compute identical verdicts and graph sizes; only artifact reuse
// differs.
//
// Most rows sweep random 8-transaction schedules. The `schedules: 4` row
// sweeps many-transaction executions instead: perfbench's certify_pwsr
// shape (1,500 partitioned scripts over 48 two-item conjuncts, committed by
// predicatewise 2PL on the tick simulator), with its summed conflict and
// conjunct-graph edge counts as exact fields.
//
// Emits a fixed-width table on stdout and a JSON baseline (default
// BENCH_analysis_context.json, override with the last argument) for the
// perf trajectory across PRs. --smoke runs small configurations (a
// 200-transaction simulated one among them) with the agreement check and
// writes no JSON.

#include <iostream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/logging.h"
#include "nse/nse.h"
#include "scheduler/metrics.h"

namespace nse {
namespace {

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

/// The perfbench certify_pwsr shape: `txns` partitioned scripts over
/// `conjuncts` two-item conjuncts, three partitions per transaction.
PartitionedWorkloadConfig CertifyShape(size_t txns, size_t conjuncts,
                                       uint64_t seed) {
  PartitionedWorkloadConfig cfg;
  cfg.num_partitions = conjuncts;
  cfg.items_per_partition = 2;
  cfg.num_txns = txns;
  cfg.partitions_per_txn = 3;
  cfg.cross_read_probability = 0.2;
  cfg.hotspot_probability = 0.2;
  cfg.arrival_spread = 16 * txns;
  cfg.seed = seed;
  return cfg;
}

struct Scenario {
  Database db;
  std::optional<IntegrityConstraint> ic;
  std::vector<Schedule> schedules;

  /// `count` random schedules of `ops` operations by 8 transactions, over
  /// `conjuncts` two-item equality conjuncts.
  static Scenario Random(size_t ops, size_t conjuncts, size_t count) {
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
    Rng rng(4242);
    for (size_t i = 0; i < count; ++i) {
      sc.schedules.push_back(RandomSchedule(rng, ops, 8, sc.db.num_items()));
    }
    return sc;
  }

  /// One certify_pwsr-shape execution per seed 1..count, committed by
  /// predicatewise 2PL on the tick simulator. The catalog and IC do not
  /// depend on the seed, so the first seed's serve every schedule.
  static Scenario Simulated(size_t txns, size_t conjuncts, size_t count) {
    Scenario sc;
    for (uint64_t seed = 1; seed <= count; ++seed) {
      Result<Workload> workload =
          MakePartitionedWorkload(CertifyShape(txns, conjuncts, seed));
      NSE_CHECK(workload.ok());
      {
        PredicatewiseTwoPhaseLocking policy(&*workload->ic);
        Result<SimResult> sim = RunSimulation(policy, workload->scripts);
        NSE_CHECK(sim.ok());
        sc.schedules.push_back(std::move(sim->schedule));
      }
      if (seed == 1) {
        sc.db = std::move(workload->db);
        sc.ic = std::move(workload->ic);
      }
    }
    return sc;
  }

};

/// Verdict and graph-size fingerprint, used to confirm both paths agree
/// (and to keep the optimizer honest).
struct SweepDigest {
  uint64_t csr = 0, pwsr = 0, dr = 0, strict = 0, dag = 0, certified = 0;
  uint64_t conflict_edges = 0, projection_edges = 0;

  bool operator==(const SweepDigest& other) const {
    return csr == other.csr && pwsr == other.pwsr && dr == other.dr &&
           strict == other.strict && dag == other.dag &&
           certified == other.certified &&
           conflict_edges == other.conflict_edges &&
           projection_edges == other.projection_edges;
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
  auto pwsr_rebuild = [&ic](const Schedule& s, uint64_t& edges) {
    bool is_pwsr = true;
    for (size_t e = 0; e < ic.num_conjuncts(); ++e) {
      ConflictGraph graph = ConflictGraph::Build(s.Project(ic.data_set(e)));
      edges += graph.num_edges();
      if (!CsrReportFromGraph(graph).serializable) is_pwsr = false;
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
    ConflictGraph full = ConflictGraph::Build(s);
    digest.conflict_edges += full.num_edges();
    if (CsrReportFromGraph(full).serializable) ++digest.csr;
    if (pwsr_rebuild(s, digest.projection_edges)) ++digest.pwsr;
    if (dr_rebuild(s)) ++digest.dr;
    if (IsStrict(s)) ++digest.strict;
    if (DataAccessGraph::Build(s, ic).IsAcyclic()) ++digest.dag;
    // Certification re-derives all three hypotheses, as Certify did before
    // the context existed.
    uint64_t recount = 0;
    bool certified = pwsr_rebuild(s, recount) && ic.disjoint() &&
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
    digest.conflict_edges += ctx.conflict_graph().num_edges();
    if (ctx.pwsr_report().is_pwsr) ++digest.pwsr;
    for (size_t e = 0; e < ic.num_conjuncts(); ++e) {
      digest.projection_edges += ctx.projection_graph(e).num_edges();
    }
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
    size_t txns = 0;  // 0: random 8-txn schedules; else certify_pwsr shape
  };
  // Violation-search-sized executions: hundreds of sampled schedules per
  // experiment, tens-to-thousands of operations each, plus simulated
  // many-transaction executions in the certify_pwsr shape (ops follow from
  // the scripts).
  const std::vector<Config> configs =
      args.smoke ? std::vector<Config>{{64, 4, 60},
                                       {256, 8, 30},
                                       {0, 48, 1, 200}}
                 : std::vector<Config>{{64, 4, 600},
                                       {256, 8, 300},
                                       {1024, 8, 80},
                                       {4096, 16, 16},
                                       {0, 48, 4, 1500}};
  const int reps = args.smoke ? 1 : 3;

  TablePrinter table({"ops/schedule", "txns/schedule", "conjuncts",
                      "schedules", "uncached ms", "cached ms", "speedup"});
  bench::BenchReport report("analysis_context");
  for (const Config& config : configs) {
    const Scenario sc =
        config.txns == 0
            ? Scenario::Random(config.ops, config.conjuncts, config.schedules)
            : Scenario::Simulated(config.txns, config.conjuncts,
                                  config.schedules);
    const std::vector<Schedule>& schedules = sc.schedules;
    size_t ops = 0, txns = 0;
    for (const Schedule& s : schedules) {
      ops += s.size();
      txns += s.txn_ids().size();
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
    table.AddRow({StrCat(ops / schedules.size()),
                  StrCat(txns / schedules.size()), StrCat(config.conjuncts),
                  StrCat(config.schedules), FormatDouble(uncached_ms, 2),
                  FormatDouble(cached_ms, 2),
                  StrCat(FormatDouble(speedup, 2), "x")});
    auto& row = report.AddRow().Key("schedules", config.schedules);
    if (config.txns == 0) {
      row.Exact("ops", config.ops).Exact("conjuncts", config.conjuncts);
    } else {
      row.Exact("txns", txns)
          .Exact("conjuncts", config.conjuncts)
          .Exact("conflict_edges", cached_digest.conflict_edges)
          .Exact("projection_edges", cached_digest.projection_edges);
    }
    row.Ratio("speedup", speedup)
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
