// The paper's results as checked tables, in one self-timed binary:
//
// M1 — CAD long transactions (§1, [11]): strict 2PL holds every lock to
//      transaction end, so long design transactions serialize behind each
//      other; predicate-wise 2PL releases each design partition after its
//      last use, and its advantage grows with transaction length.
// M2 — MDBS (§4, [4]): sites as conjuncts. Global serializability (one
//      lock scope across sites) vs local serializability only (per-site
//      scopes → PWSR); PW-2PL wins on throughput.
// Policy class — each policy's committed trace has its promised class.
// DR overhead — Theorem 2's mechanism priced: PW-2PL vs PW-2PL + delayed
//      reads.
// T1–T3 — randomized violation search under each theorem's hypotheses
//      (0 violations) and with a hypothesis dropped on the Example 2 / 5
//      scenarios (violations found).
// C2 — schedule class census: the hierarchy CSR ⊆ PWSR, strict ⊆ DR.
// E1–E5 — every worked example of the paper through the full pipeline.
// F1/A1 — the Lemma 1 decomposition vs global search, in search nodes.
// F2/F6 — Lemma 2 and Lemma 6 view-set soundness over random scenarios.
//
// Every paper expectation a table prints is NSE_CHECKed, so the binary is
// also a test. Each table cell except the row's wall time is written as an
// exact field of BENCH_paper.json (override the path with the last
// argument); --smoke runs the same tables and writes no JSON.

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/logging.h"
#include "nse/nse.h"
#include "paper/paper_examples.h"
#include "scheduler/metrics.h"

namespace nse {
namespace {

using Clock = std::chrono::steady_clock;

/// A printed table mirrored into the JSON report: the first column is the
/// row key, every other cell is an exact field named after its column
/// header, and the row's wall time is info.
class PaperTable {
 public:
  PaperTable(std::string name, std::vector<std::string> headers,
             bench::BenchReport& report)
      : name_(std::move(name)), table_(headers), report_(report) {
    for (const std::string& header : headers) fields_.push_back(Slug(header));
  }

  void AddRow(std::vector<std::string> cells, Clock::time_point start) {
    bench::BenchRow& row =
        report_.AddRow().Key("table", name_).Key(fields_[0], Cell(cells[0]));
    for (size_t i = 1; i < cells.size(); ++i) {
      row.Exact(fields_[i], Cell(cells[i]));
    }
    row.Info("wall_ms", bench::MsSince(start));
    table_.AddRow(std::move(cells));
  }

  std::string Render() const { return table_.Render(); }

 private:
  /// "PW/2PL throughput" → "pw_2pl_throughput", "CSR %" → "csr".
  static std::string Slug(const std::string& header) {
    std::string slug;
    for (char c : header) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      } else if (!slug.empty() && slug.back() != '_') {
        slug += '_';
      }
    }
    if (!slug.empty() && slug.back() == '_') slug.pop_back();
    return slug;
  }

  /// A numeric cell becomes a JSON number printed with the same digits;
  /// anything else stays a string.
  static bench::JsonValue Cell(const std::string& cell) {
    char* end = nullptr;
    const double value = std::strtod(cell.c_str(), &end);
    const bool numeric = !cell.empty() && *end == '\0' &&
                         (std::isdigit(static_cast<unsigned char>(cell[0])) ||
                          cell[0] == '-');
    if (!numeric) return cell;
    const size_t dot = cell.find('.');
    if (dot == std::string::npos) {
      return std::strtoll(cell.c_str(), nullptr, 10);
    }
    return bench::JsonValue(value, static_cast<int>(cell.size() - dot - 1));
  }

  std::string name_;
  std::vector<std::string> fields_;
  TablePrinter table_;
  bench::BenchReport& report_;
};

// ---- M1, M2, policy class, DR overhead -------------------------------------

SimResult MustSimulate(SchedulerPolicy& policy,
                       const std::vector<TxnScript>& scripts) {
  auto result = RunSimulation(policy, scripts);
  NSE_CHECK(result.ok());
  return *std::move(result);
}

void ReportCadTable(bench::BenchReport& report) {
  // M1: sweep transaction length; fixed 6 txns over 16 partitions.
  PaperTable table("M1",
                   {"ops/txn", "2PL makespan", "PW makespan", "2PL waits",
                    "PW waits", "speedup"},
                   report);
  double previous_speedup = 0;
  for (size_t ops_per_txn : {8, 16, 24, 32, 48, 64}) {
    const auto start = Clock::now();
    SeriesSummary s2pl_mk, pw_mk, s2pl_w, pw_w;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      auto workload =
          MakeCadWorkload(/*num_txns=*/6, ops_per_txn, /*partitions=*/16,
                          seed);
      NSE_CHECK(workload.ok());
      StrictTwoPhaseLocking strict;
      SimResult strict_run = MustSimulate(strict, workload->scripts);
      PredicatewiseTwoPhaseLocking pw(&*workload->ic);
      SimResult pw_run = MustSimulate(pw, workload->scripts);
      s2pl_mk.Add(static_cast<double>(strict_run.makespan));
      pw_mk.Add(static_cast<double>(pw_run.makespan));
      s2pl_w.Add(static_cast<double>(strict_run.total_wait_ticks));
      pw_w.Add(static_cast<double>(pw_run.total_wait_ticks));
    }
    const double speedup =
        s2pl_mk.mean() / (pw_mk.mean() == 0 ? 1 : pw_mk.mean());
    NSE_CHECK_MSG(speedup > 1.0 && speedup >= previous_speedup,
                  "M1: PW-2PL speedup %.3f at %zu ops/txn does not win and "
                  "grow (previous %.3f)",
                  speedup, ops_per_txn, previous_speedup);
    previous_speedup = speedup;
    table.AddRow({StrCat(ops_per_txn), FormatDouble(s2pl_mk.mean(), 1),
                  FormatDouble(pw_mk.mean(), 1), FormatDouble(s2pl_w.mean(), 1),
                  FormatDouble(pw_w.mean(), 1), FormatDouble(speedup, 2)},
                 start);
  }
  std::cout << "\n=== M1: CAD long transactions — strict 2PL vs PW-2PL ===\n"
            << table.Render()
            << "(paper expectation: PW-2PL wins and its advantage grows "
               "with transaction length)\n\n";
}

void ReportMdbsTable(bench::BenchReport& report) {
  // M2: sweep sites per global transaction; 3 global + 6 local txns.
  PaperTable table("M2",
                   {"sites/global-txn", "2PL makespan", "PW makespan",
                    "2PL waits", "PW waits", "PW/2PL throughput"},
                   report);
  for (size_t sites_per_global : {2, 3, 4, 6, 8}) {
    const auto start = Clock::now();
    SeriesSummary s2pl_mk, pw_mk, s2pl_w, pw_w, ratio;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      auto workload = MakeMdbsWorkload(/*num_sites=*/8, /*global_txns=*/3,
                                       /*local_txns=*/6, sites_per_global,
                                       seed);
      NSE_CHECK(workload.ok());
      StrictTwoPhaseLocking strict;
      SimResult strict_run = MustSimulate(strict, workload->scripts);
      PredicatewiseTwoPhaseLocking pw(&*workload->ic);
      SimResult pw_run = MustSimulate(pw, workload->scripts);
      s2pl_mk.Add(static_cast<double>(strict_run.makespan));
      pw_mk.Add(static_cast<double>(pw_run.makespan));
      s2pl_w.Add(static_cast<double>(strict_run.total_wait_ticks));
      pw_w.Add(static_cast<double>(pw_run.total_wait_ticks));
      if (strict_run.throughput > 0) {
        ratio.Add(pw_run.throughput / strict_run.throughput);
      }
    }
    NSE_CHECK_MSG(ratio.mean() > 1.0,
                  "M2: PW/2PL throughput %.3f at %zu sites/global-txn",
                  ratio.mean(), sites_per_global);
    table.AddRow({StrCat(sites_per_global), FormatDouble(s2pl_mk.mean(), 1),
                  FormatDouble(pw_mk.mean(), 1),
                  FormatDouble(s2pl_w.mean(), 1), FormatDouble(pw_w.mean(), 1),
                  FormatDouble(ratio.mean(), 2)},
                 start);
  }
  std::cout << "\n=== M2: MDBS — global 2PL vs site-local PW-2PL ===\n"
            << table.Render()
            << "(paper expectation: local serializability preserves global "
               "consistency at higher concurrency)\n\n";
}

void ReportPolicyClassTable(bench::BenchReport& report) {
  // Each policy promises a schedule class (CSR for 2PL, PWSR for PW-2PL,
  // PWSR+DR for the DR scheduler). Verify the promise on a committed trace,
  // all classes probed through one shared AnalysisContext per run.
  PaperTable table("policy_class", {"policy", "promise", "trace classes"},
                   report);
  auto workload = MakeCadWorkload(/*num_txns=*/6, /*ops_per_txn=*/16,
                                  /*partitions=*/8, /*seed=*/7);
  NSE_CHECK(workload.ok());
  auto add = [&](SchedulerPolicy& policy, const char* name,
                 const char* promise,
                 bool (*kept)(const TraceClassification&)) {
    const auto start = Clock::now();
    SimResult result = MustSimulate(policy, workload->scripts);
    AnalysisContext ctx(*workload->ic, result.schedule);
    const TraceClassification cls = ClassifyTrace(ctx);
    NSE_CHECK_MSG(kept(cls), "%s broke its promise %s: %s", name, promise,
                  cls.ToString().c_str());
    table.AddRow({name, promise, cls.ToString()}, start);
  };
  StrictTwoPhaseLocking strict;
  add(strict, "strict 2PL", "CSR + strict",
      [](const TraceClassification& c) { return c.csr && c.strict; });
  PredicatewiseTwoPhaseLocking pw(&*workload->ic);
  add(pw, "PW-2PL", "PWSR",
      [](const TraceClassification& c) { return c.pwsr.value_or(false); });
  DelayedReadScheduler dr(&*workload->ic);
  add(dr, "PW-2PL + DR", "PWSR + DR", [](const TraceClassification& c) {
    return c.pwsr.value_or(false) && c.delayed_read;
  });
  std::cout << "\n=== Policy class verification (one context per trace) ===\n"
            << table.Render() << "\n";
}

void ReportDrOverheadTable(bench::BenchReport& report) {
  PaperTable table("dr_overhead",
                   {"ops/txn", "PW makespan", "PW+DR makespan",
                    "DR overhead %"},
                   report);
  for (size_t ops_per_txn : {8, 16, 32}) {
    const auto start = Clock::now();
    SeriesSummary pw_mk, dr_mk;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      auto workload = MakeCadWorkload(6, ops_per_txn, 8, seed + 100);
      NSE_CHECK(workload.ok());
      PredicatewiseTwoPhaseLocking pw(&*workload->ic);
      pw_mk.Add(
          static_cast<double>(MustSimulate(pw, workload->scripts).makespan));
      DelayedReadScheduler dr(&*workload->ic);
      dr_mk.Add(
          static_cast<double>(MustSimulate(dr, workload->scripts).makespan));
    }
    double overhead =
        100.0 * (dr_mk.mean() - pw_mk.mean()) /
        (pw_mk.mean() == 0 ? 1 : pw_mk.mean());
    table.AddRow({StrCat(ops_per_txn), FormatDouble(pw_mk.mean(), 1),
                  FormatDouble(dr_mk.mean(), 1), FormatDouble(overhead, 1)},
                 start);
  }
  std::cout << "\n=== Theorem 2 mechanism: delayed-read gating cost ===\n"
            << table.Render() << "\n";
}

// ---- T1-T3 -----------------------------------------------------------------

Workload TheoremWorkload(double branch_probability, bool acyclic,
                         uint64_t seed) {
  PartitionedWorkloadConfig config;
  config.num_partitions = 4;
  config.items_per_partition = 2;
  config.num_txns = 4;
  config.partitions_per_txn = 2;
  config.cross_read_probability = 0.6;
  config.acyclic_cross_reads = acyclic;
  config.branch_probability = branch_probability;
  config.seed = seed;
  auto workload = MakePartitionedWorkload(config);
  NSE_CHECK(workload.ok());
  return std::move(workload).value();
}

void ReportTheoremTable(bench::BenchReport& report) {
  PaperTable table("T",
                   {"experiment", "hypotheses", "checked execs", "violations",
                    "paper expectation"},
                   report);
  // Adds one row; `violating` says whether the paper predicts violations.
  auto add = [&](const char* experiment, const char* hypotheses,
                 const Result<SearchOutcome>& outcome, bool violating,
                 Clock::time_point start) {
    NSE_CHECK(outcome.ok());
    NSE_CHECK_MSG(violating == (outcome->violations > 0),
                  "%s: %llu violations, paper expects %s", experiment,
                  static_cast<unsigned long long>(outcome->violations),
                  violating ? "> 0" : "0");
    table.AddRow({experiment, hypotheses, StrCat(outcome->checked),
                  StrCat(outcome->violations),
                  violating ? "> 0 violations" : "0 violations"},
                 start);
  };

  {  // T1: fixed structure + PWSR.
    const auto start = Clock::now();
    Workload w = TheoremWorkload(0.0, false, 21);
    HypothesisFilter filter;
    filter.require_pwsr = true;
    filter.require_fixed_structure = true;
    Rng rng(21);
    add("T1 (Thm 1)", "PWSR + fixed-structure",
        SearchForViolations(w.db, *w.ic, w.ProgramPtrs(), filter, rng, 400),
        false, start);
  }
  {  // T2: PWSR + DR with branching programs.
    const auto start = Clock::now();
    Workload w = TheoremWorkload(0.4, false, 22);
    HypothesisFilter filter;
    filter.require_pwsr = true;
    filter.require_delayed_read = true;
    Rng rng(22);
    add("T2 (Thm 2)", "PWSR + DR (arbitrary programs)",
        SearchForViolations(w.db, *w.ic, w.ProgramPtrs(), filter, rng, 400),
        false, start);
  }
  {  // T3: PWSR + acyclic DAG.
    const auto start = Clock::now();
    Workload w = TheoremWorkload(0.4, true, 23);
    HypothesisFilter filter;
    filter.require_pwsr = true;
    filter.require_dag_acyclic = true;
    Rng rng(23);
    add("T3 (Thm 3)", "PWSR + acyclic DAG(S, IC)",
        SearchForViolations(w.db, *w.ic, w.ProgramPtrs(), filter, rng, 400),
        false, start);
  }
  {  // Hypotheses dropped: exhaustive Example 2 search, PWSR only.
    const auto start = Clock::now();
    auto ex = paper::Example2::Make();
    std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
    HypothesisFilter filter;
    filter.require_pwsr = true;
    add("T-neg (Ex. 2)", "PWSR only (no theorem hypothesis)",
        ExhaustiveViolationSearch(ex.db, *ex.ic, programs, {ex.ds0}, filter,
                                  100000),
        true, start);
  }
  {  // Example 5: everything but disjointness.
    const auto start = Clock::now();
    auto ex = paper::Example5::Make();
    std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2,
                                                    &ex.tp3};
    HypothesisFilter filter;
    filter.require_pwsr = true;
    filter.require_delayed_read = true;
    filter.require_dag_acyclic = true;
    filter.require_fixed_structure = true;
    add("T-neg (Ex. 5)", "all hypotheses, conjuncts overlap",
        ExhaustiveViolationSearch(ex.db, *ex.ic, programs, {ex.ds0}, filter,
                                  100000),
        true, start);
  }
  {  // Scaled anomaly workload (Example 2 × 2 pairs), original programs.
    const auto start = Clock::now();
    auto w = MakeAnomalyWorkload(/*pairs=*/2, /*fixed_structure=*/false);
    NSE_CHECK(w.ok());
    HypothesisFilter filter;
    filter.require_pwsr = true;
    Rng rng(24);
    add("T-neg (anomaly x2)", "PWSR only, Example-2 programs",
        SearchForViolations(w->db, *w->ic, w->ProgramPtrs(), filter, rng, 600),
        true, start);
  }
  {  // Same workload with the §3.1 repairs: Theorem 1 regime.
    const auto start = Clock::now();
    auto w = MakeAnomalyWorkload(/*pairs=*/2, /*fixed_structure=*/true);
    NSE_CHECK(w.ok());
    HypothesisFilter filter;
    filter.require_pwsr = true;
    filter.require_fixed_structure = true;
    Rng rng(25);
    add("T1 (anomaly repaired)", "PWSR + fixed-structure repairs",
        SearchForViolations(w->db, *w->ic, w->ProgramPtrs(), filter, rng, 600),
        false, start);
  }

  std::cout << "\n=== T1-T3: theorem validation by violation search ===\n"
            << table.Render() << "\n";
}

// ---- C2 --------------------------------------------------------------------

/// A random schedule over `txns` transactions and `items` items.
Schedule RandomSchedule(Rng& rng, size_t num_ops, size_t txns, size_t items) {
  OpSequence ops;
  ops.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    TxnId txn = static_cast<TxnId>(rng.NextBelow(txns) + 1);
    ItemId item = static_cast<ItemId>(rng.NextBelow(items));
    if (rng.NextBool(0.5)) {
      ops.push_back(
          Operation::Write(txn, item, Value(static_cast<int64_t>(i))));
    } else {
      ops.push_back(Operation::Read(txn, item, Value(0)));
    }
  }
  return Schedule(std::move(ops));
}

void ReportClassCensus(bench::BenchReport& report) {
  // C2 census: fraction of random schedules in each class, by op count,
  // over 4 equal-pair conjuncts. The hierarchy CSR ⊆ PWSR and strict ⊆ DR
  // is checked on every sample.
  PaperTable table(
      "C2", {"ops/schedule", "samples", "CSR %", "PWSR %", "DR %", "strict %"},
      report);
  Database db;
  std::vector<Formula> formulas;
  for (size_t e = 0; e < 4; ++e) {
    auto x = db.AddItem(StrCat("c", e, "_x"), Domain::IntRange(-8, 8));
    auto y = db.AddItem(StrCat("c", e, "_y"), Domain::IntRange(-8, 8));
    NSE_CHECK(x.ok() && y.ok());
    formulas.push_back(Eq(Var(*x), Var(*y)));
  }
  auto ic = IntegrityConstraint::FromConjuncts(db, std::move(formulas));
  NSE_CHECK(ic.ok());
  Rng rng(1234);
  for (size_t num_ops : {6, 10, 16, 24}) {
    const auto start = Clock::now();
    int csr = 0, pwsr = 0, dr = 0, strict = 0;
    constexpr int kSamples = 2000;
    for (int i = 0; i < kSamples; ++i) {
      Schedule s = RandomSchedule(rng, num_ops, 4, db.num_items());
      // One shared context per schedule: all four class probes reuse the
      // same memoized artifacts.
      AnalysisContext ctx(*ic, s);
      TraceClassification cls = ClassifyTrace(ctx);
      NSE_CHECK_MSG(!cls.csr || cls.pwsr.value_or(false),
                    "C2: a CSR schedule is not PWSR: %s",
                    cls.ToString().c_str());
      NSE_CHECK_MSG(!cls.strict || cls.delayed_read,
                    "C2: a strict schedule is not DR: %s",
                    cls.ToString().c_str());
      if (cls.csr) ++csr;
      if (cls.pwsr.value_or(false)) ++pwsr;
      if (cls.delayed_read) ++dr;
      if (cls.strict) ++strict;
    }
    auto pct = [&](int n) {
      return FormatDouble(100.0 * n / kSamples, 1);
    };
    table.AddRow({StrCat(num_ops), StrCat(kSamples), pct(csr), pct(pwsr),
                  pct(dr), pct(strict)},
                 start);
  }
  std::cout << "\n=== C2: schedule class census (random schedules) ===\n"
            << table.Render()
            << "(expected shape: PWSR >= CSR and DR >= strict on every row; "
               "all rates fall as schedules grow)\n\n";
}

// ---- E1-E5 -----------------------------------------------------------------

void ReportExampleTable(bench::BenchReport& report) {
  PaperTable table("E", {"exp", "paper expectation", "measured", "match"},
                   report);
  auto add = [&](const char* exp, const char* expectation,
                 const std::string& measured, bool ok,
                 Clock::time_point start) {
    NSE_CHECK_MSG(ok, "%s does not reproduce: %s", exp, measured.c_str());
    table.AddRow({exp, expectation, measured, "yes"}, start);
  };

  {  // E1: Example 1 notation & final state.
    const auto start = Clock::now();
    auto ex = paper::Example1::Make();
    std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
    auto run = Interleave(ex.db, programs, ex.ds1, ex.choices);
    bool ok = run.ok() && run->final_state == ex.ds2_expected &&
              run->schedule.ToString(ex.db) ==
                  "r1(a, 0), r2(a, 0), w2(d, 0), r1(c, 5), w1(b, 5)";
    add("E1", "S and DS2 of Example 1",
        run.ok() ? run->schedule.ToString(ex.db) : "error", ok, start);
  }
  {  // E2: PWSR but not strongly correct.
    const auto start = Clock::now();
    auto ex = paper::Example2::Make();
    std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
    auto run = Interleave(ex.db, programs, ex.ds0, ex.choices);
    ConsistencyChecker checker(ex.db, *ex.ic);
    bool pwsr = run.ok() && CheckPwsr(run->schedule, *ex.ic).is_pwsr;
    auto execution = CheckExecution(checker, run->schedule, ex.ds0);
    bool violated = execution.ok() && !execution->strongly_correct;
    add("E2", "PWSR holds; strong correctness fails",
        StrCat("pwsr=", pwsr ? "yes" : "no",
               " violated=", violated ? "yes" : "no"),
        pwsr && violated, start);
  }
  {  // E3: Lemma 3 conclusion fails for non-fixed TP1.
    const auto start = Clock::now();
    auto ex = paper::Example2::Make();
    std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
    auto run = Interleave(ex.db, programs, ex.ds0, ex.choices);
    NSE_CHECK(run.ok());
    ConsistencyChecker checker(ex.db, *ex.ic);
    DataSet d = ex.db.SetOf({"a", "b"});
    DbState conclusion = run->final_state.Restrict(d);
    auto consistent = checker.IsConsistent(conclusion);
    bool ok = consistent.ok() && !*consistent &&
              !AnalyzeStructure(ex.db, ex.tp1).fixed;
    add("E3", "DS2^{d-WS(after)} inconsistent; TP1 not fixed",
        conclusion.ToString(ex.db), ok, start);
  }
  {  // E4: joint consistency precondition of Lemma 7.
    const auto start = Clock::now();
    auto ex = paper::Example4::Make();
    auto run = RunInIsolation(ex.db, ex.tp1, 1, ex.ds1);
    NSE_CHECK(run.ok());
    ConsistencyChecker checker(ex.db, *ex.ic);
    auto joint = DbState::Union(ex.ds1.Restrict(ex.d), run->txn.ReadMap());
    bool ok = joint.ok() && !*checker.IsConsistent(*joint) &&
              *checker.IsConsistent(ex.ds1.Restrict(ex.d)) &&
              *checker.IsConsistent(run->txn.ReadMap());
    add("E4", "DS1^d, read(T1) consistent; union inconsistent",
        joint.ok() ? joint->ToString(ex.db) : "undefined", ok, start);
  }
  {  // E5: overlap defeats everything.
    const auto start = Clock::now();
    auto ex = paper::Example5::Make();
    std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2,
                                                    &ex.tp3};
    auto run = Interleave(ex.db, programs, ex.ds0, ex.choices);
    NSE_CHECK(run.ok());
    ConsistencyChecker checker(ex.db, *ex.ic);
    bool hypotheses = CheckPwsr(run->schedule, *ex.ic).is_pwsr &&
                      IsDelayedRead(run->schedule) &&
                      DataAccessGraph::Build(run->schedule, *ex.ic)
                          .IsAcyclic();
    auto consistent = checker.IsConsistent(run->final_state);
    bool ok = hypotheses && consistent.ok() && !*consistent &&
              !ex.ic->disjoint();
    add("E5", "all hypotheses hold, overlap breaks consistency",
        run->final_state.ToString(ex.db), ok, start);
  }

  std::cout << "\n=== E1-E5: paper example reproduction ===\n"
            << table.Render() << "\n";
}

// ---- F1/A1: Lemma 1 --------------------------------------------------------

/// `conjuncts` "all equal" conjuncts of `items_per_conjunct` items over the
/// integer domain [-half_width, half_width], with one pinned item per
/// conjunct in `partial`.
struct SolverScenario {
  Database db;
  std::optional<IntegrityConstraint> ic;
  DbState partial;

  static SolverScenario Make(size_t conjuncts, size_t items_per_conjunct,
                             int64_t half_width) {
    SolverScenario sc;
    std::vector<Formula> formulas;
    for (size_t e = 0; e < conjuncts; ++e) {
      std::vector<Formula> eqs;
      ItemId first = 0;
      for (size_t k = 0; k < items_per_conjunct; ++k) {
        auto id = sc.db.AddItem(StrCat("c", e, "_x", k),
                                Domain::IntRange(-half_width, half_width));
        NSE_CHECK(id.ok());
        if (k == 0) first = *id;
        if (k > 0) eqs.push_back(Eq(Var(*id - 1), Var(*id)));
      }
      if (eqs.empty()) eqs.push_back(Ge(Var(first), Const(Value(-half_width))));
      formulas.push_back(And(std::move(eqs)));
      sc.partial.Set(first, Value(0));
    }
    auto ic = IntegrityConstraint::FromConjuncts(sc.db, std::move(formulas));
    NSE_CHECK(ic.ok());
    sc.ic = std::move(ic).value();
    return sc;
  }
};

void ReportLemma1Table(bench::BenchReport& report) {
  // F1: search effort with vs without the Lemma 1 split.
  PaperTable table("F1",
                   {"conjuncts", "items/conj", "decomposed nodes",
                    "global nodes", "ratio"},
                   report);
  for (size_t conjuncts : {2, 4, 8}) {
    const auto start = Clock::now();
    SolverScenario sc = SolverScenario::Make(conjuncts, 3, 8);
    ConsistencyChecker checker(sc.db, *sc.ic);
    checker.ResetStats();
    NSE_CHECK(checker.IsConsistent(sc.partial).ok());
    uint64_t decomposed = checker.stats().nodes;
    checker.ResetStats();
    NSE_CHECK(checker.IsConsistentGlobal(sc.partial).ok());
    uint64_t global = checker.stats().nodes;
    table.AddRow({StrCat(conjuncts), "3", StrCat(decomposed), StrCat(global),
                  FormatDouble(static_cast<double>(global) /
                                   static_cast<double>(decomposed == 0
                                                           ? 1
                                                           : decomposed),
                               2)},
                 start);
  }
  std::cout << "\n=== F1/A1: Lemma 1 decomposition (search nodes, "
               "satisfiable) ===\n"
            << table.Render() << "\n";

  // The decomposition's real payoff shows on *unsatisfiable* instances: an
  // inconsistent conjunct is refuted locally in O(|domain|), while a global
  // search must first enumerate assignments of every conjunct ordered
  // before it.
  PaperTable hard("A1",
                  {"satisfiable conjuncts", "decomposed nodes",
                   "global nodes", "ratio"},
                  report);
  double previous_ratio = 0;
  for (size_t sat_conjuncts : {2, 4, 6}) {
    const auto start = Clock::now();
    Database db;
    std::vector<Formula> formulas;
    for (size_t e = 0; e < sat_conjuncts; ++e) {
      auto x = db.AddItem(StrCat("s", e, "_x"), Domain::IntRange(0, 2));
      auto y = db.AddItem(StrCat("s", e, "_y"), Domain::IntRange(0, 2));
      NSE_CHECK(x.ok() && y.ok());
      formulas.push_back(Eq(Var(*x), Var(*y)));
    }
    auto z = db.AddItem("unsat_z", Domain::IntRange(0, 2));
    NSE_CHECK(z.ok());
    formulas.push_back(Gt(Var(*z), Const(Value(2))));  // unsatisfiable
    auto ic = IntegrityConstraint::FromConjuncts(db, std::move(formulas));
    NSE_CHECK(ic.ok());
    ConsistencyChecker checker(db, *ic);
    checker.ResetStats();
    NSE_CHECK(checker.IsConsistent(DbState()).ok());
    uint64_t decomposed = checker.stats().nodes;
    checker.ResetStats();
    NSE_CHECK(checker.IsConsistentGlobal(DbState()).ok());
    uint64_t global = checker.stats().nodes;
    const double ratio = static_cast<double>(global) /
                         static_cast<double>(decomposed == 0 ? 1 : decomposed);
    NSE_CHECK_MSG(ratio > previous_ratio,
                  "A1: global/decomposed ratio %.1f at %zu satisfiable "
                  "conjuncts does not grow (previous %.1f)",
                  ratio, sat_conjuncts, previous_ratio);
    previous_ratio = ratio;
    hard.AddRow({StrCat(sat_conjuncts), StrCat(decomposed), StrCat(global),
                 FormatDouble(ratio, 1)},
                start);
  }
  std::cout << "=== A1: decomposition on unsatisfiable instances ===\n"
            << hard.Render()
            << "(expected shape: the global/decomposed ratio grows "
               "multiplicatively with the satisfiable prefix)\n\n";
}

// ---- F2/F6: Lemma 2 and Lemma 6 --------------------------------------------

struct ViewScenario {
  Database db;
  Schedule schedule;
  DataSet d;
  std::vector<TxnId> order;

  /// A near-serial (hence projection-serializable) random schedule.
  static ViewScenario Make(size_t txns, size_t ops_per_txn, uint64_t seed) {
    ViewScenario sc;
    constexpr size_t kItems = 12;
    for (size_t i = 0; i < kItems; ++i) {
      auto id = sc.db.AddItem(StrCat("x", i), Domain::IntRange(-64, 64));
      NSE_CHECK(id.ok());
    }
    Rng rng(seed);
    sc.d = DataSet({0, 1, 2, 3, 4, 5});
    // Retry with fewer swaps until the projection is serializable (a serial
    // schedule — zero swaps — always is, so this terminates).
    for (int swaps = 12; swaps >= 0; swaps -= 3) {
      OpSequence ops;
      for (size_t t = 1; t <= txns; ++t) {
        for (size_t k = 0; k < ops_per_txn; ++k) {
          ItemId item = static_cast<ItemId>(rng.NextBelow(kItems));
          if (rng.NextBool(0.5)) {
            ops.push_back(Operation::Write(static_cast<TxnId>(t), item,
                                           Value(static_cast<int64_t>(k))));
          } else {
            ops.push_back(
                Operation::Read(static_cast<TxnId>(t), item, Value(0)));
          }
        }
      }
      for (int s = 0; s < swaps; ++s) {
        size_t i = rng.NextBelow(ops.size() - 1);
        if (ops[i].txn != ops[i + 1].txn) std::swap(ops[i], ops[i + 1]);
      }
      Schedule candidate(std::move(ops));
      auto csr = CheckConflictSerializability(candidate.Project(sc.d));
      if (csr.serializable) {
        sc.schedule = std::move(candidate);
        sc.order = *csr.order;
        return sc;
      }
    }
    NSE_CHECK_MSG(false, "serial schedule projection must be serializable");
    return sc;
  }
};

void ReportLemmaSoundnessTable(bench::BenchReport& report) {
  // Soundness checks across random scenarios: the paper proves these hold
  // universally, so both rows must report 0 violations.
  const auto start = Clock::now();
  PaperTable table("lemma_soundness",
                   {"lemma", "scenarios", "checks", "violations"}, report);
  uint64_t l2_checks = 0, l2_bad = 0;
  uint64_t l6_checks = 0, l6_bad = 0;
  int scenarios = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ViewScenario sc = ViewScenario::Make(4, 6, seed * 7 + 1);
    ++scenarios;
    for (size_t p = 0; p < sc.schedule.size(); ++p) {
      ++l2_checks;
      if (FindViewSetUnsoundness(sc.schedule, sc.d, sc.order, p,
                                 ViewSetVariant::kGeneral)
              .has_value()) {
        ++l2_bad;
      }
      if (IsDelayedRead(sc.schedule)) {
        ++l6_checks;
        if (FindViewSetUnsoundness(sc.schedule, sc.d, sc.order, p,
                                   ViewSetVariant::kDelayedRead)
                .has_value()) {
          ++l6_bad;
        }
      }
    }
  }
  NSE_CHECK_MSG(l2_bad == 0 && l6_bad == 0,
                "view-set unsoundness: Lemma 2 %llu, Lemma 6 %llu",
                static_cast<unsigned long long>(l2_bad),
                static_cast<unsigned long long>(l6_bad));
  table.AddRow({"Lemma 2 (VS general)", StrCat(scenarios), StrCat(l2_checks),
                StrCat(l2_bad)},
               start);
  table.AddRow({"Lemma 6 (VS under DR)", StrCat(scenarios),
                StrCat(l6_checks), StrCat(l6_bad)},
               start);
  std::cout << "\n=== F2/F6: view-set soundness sweep ===\n"
            << table.Render()
            << "(paper expectation: 0 violations in both rows)\n\n";
}

}  // namespace
}  // namespace nse

int main(int argc, char** argv) {
  using namespace nse;
  const bench::BenchArgs args =
      bench::ParseBenchArgs(argc, argv, "BENCH_paper.json");
  bench::BenchReport report("paper");
  ReportCadTable(report);
  ReportMdbsTable(report);
  ReportPolicyClassTable(report);
  ReportDrOverheadTable(report);
  ReportTheoremTable(report);
  ReportClassCensus(report);
  ReportExampleTable(report);
  ReportLemma1Table(report);
  ReportLemmaSoundnessTable(report);
  if (args.smoke) return 0;
  return report.Write(args.json_path) ? 0 : 1;
}
