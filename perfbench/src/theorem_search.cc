// theorem_search: the paper's T1 experiment. Parallel randomized violation
// search over a partitioned workload whose programs have fixed structure:
// executions passing the PWSR filter must never violate strong correctness
// (Theorem 1), while the unfiltered control finds violations. Thousands of
// small analysis contexts and solver queries, shared SolverCache, pooled
// workers.

#include <algorithm>
#include <optional>

#include "analysis/violation_search.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "scheduler/workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kWorkers = 4;

struct SearchShape {
  uint64_t filtered_trials = 0;
  uint64_t control_trials = 0;
  /// Trials of the per-run 1-vs-N-thread determinism check.
  uint64_t parity_trials = 0;
};

SearchShape ShapeFor(const RunOptions& options) {
  if (options.tiny) return SearchShape{16, 16, 8};
  return SearchShape{300, 300, 16};
}

/// The programs are the same for every seed (the seed drives which
/// executions are sampled): how many sampled executions pass the PWSR
/// filter, and so how many get the costly strong-correctness check,
/// depends on the programs, and per-seed programs spread the trial rate
/// across seeds by ±15%.
constexpr uint64_t kProgramSeed = 42;

nse::PartitionedWorkloadConfig SearchConfigFor() {
  // ~256 ops per execution: 8 txns, each rewriting 3 items in every one of
  // 8 partitions, plus cross reads.
  nse::PartitionedWorkloadConfig cfg;
  cfg.num_partitions = 8;
  cfg.items_per_partition = 3;
  cfg.num_txns = 8;
  cfg.partitions_per_txn = 8;
  cfg.branch_probability = 0.0;
  cfg.cross_read_probability = 0.5;
  cfg.domain_lo = -256;
  cfg.domain_hi = 256;
  cfg.seed = kProgramSeed;
  return cfg;
}

nse::HypothesisFilter Theorem1Filter() {
  nse::HypothesisFilter filter;
  filter.require_pwsr = true;
  filter.require_fixed_structure = true;
  return filter;
}

/// One search with its own generator seeded from the run seed, so every
/// pass samples the same executions.
nse::Result<nse::SearchOutcome> Search(const nse::Workload& workload,
                                       const nse::HypothesisFilter& filter,
                                       uint64_t seed, uint64_t trials,
                                       size_t threads) {
  nse::Rng rng(seed);
  nse::SearchConfig config;
  config.trials = trials;
  config.threads = threads;
  config.share_solver_cache = true;
  return nse::SearchForViolations(workload.db, *workload.ic,
                                  workload.ProgramPtrs(), filter, rng, config);
}

struct Counts {
  uint64_t trials = 0;
  uint64_t checked = 0;
  uint64_t violations = 0;
  bool operator==(const Counts& o) const {
    return trials == o.trials && checked == o.checked &&
           violations == o.violations;
  }
};

Counts CountsOf(const nse::SearchOutcome& o) {
  return Counts{o.trials, o.checked, o.violations};
}

std::string Describe(const Counts& c) {
  return nse::StrCat(c.violations, " violations in ", c.checked, " checked of ",
                     c.trials);
}

}  // namespace

Report RunTheoremSearch(const RunOptions& options) {
  Report report;
  report.unit = "trials";
  report.rate_name = "trials_per_s";
  const SearchShape shape = ShapeFor(options);
  const nse::PartitionedWorkloadConfig cfg = SearchConfigFor();
  nse::Workload workload = TimedSetup<nse::Workload>(report, [&] {
    nse::Result<nse::Workload> made = nse::MakePartitionedWorkload(cfg);
    NSE_CHECK_MSG(made.ok(), "%s", made.status().ToString().c_str());
    return std::move(made).value();
  });
  const size_t threads = ClampThreads(kWorkers);
  const uint64_t filtered_seed = options.seed * 2 + 1;
  const uint64_t control_seed = options.seed * 2 + 2;
  report.facts["threads"] = nse::StrCat(threads);

  // Runs the filtered and the control search at `t` threads; false if
  // either failed (counted in `into`).
  auto run_pair = [&](Report& into, size_t t, uint64_t filtered_trials,
                      uint64_t control_trials,
                      std::optional<nse::SearchOutcome>& filtered,
                      std::optional<nse::SearchOutcome>& control) {
    into.attempted += filtered_trials + control_trials;
    auto f = Search(workload, Theorem1Filter(), filtered_seed,
                    filtered_trials, t);
    auto c = Search(workload, nse::HypothesisFilter(), control_seed,
                    control_trials, t);
    if (!f.ok() || !c.ok()) {
      into.failed += filtered_trials + control_trials;
      into.errors.push_back(!f.ok() ? f.status().ToString()
                                    : c.status().ToString());
      return false;
    }
    filtered.emplace(std::move(f).value());
    control.emplace(std::move(c).value());
    return true;
  };

  RunPasses(options, report, [&](Report& out, bool traced, uint64_t index) {
    std::optional<nse::SearchOutcome> filtered;
    std::optional<nse::SearchOutcome> control;
    const uint64_t start = NowNs();
    if (!run_pair(out, threads, shape.filtered_trials, shape.control_trials,
                  filtered, control)) {
      return;
    }
    const uint64_t end = NowNs();
    const double wall_s = static_cast<double>(end - start) * 1e-9;
    const Counts f = CountsOf(*filtered);
    const Counts c = CountsOf(*control);
    // Same seeds every pass, so the same counts (checked across passes).
    out.facts["filtered"] = Describe(f);
    out.facts["control"] = Describe(c);
    out.Gate(f.violations == 0,
             nse::StrCat("pass ", index, ": Theorem 1 filter: ",
                         Describe(f)));
    out.Gate(c.violations > 0,
             nse::StrCat("pass ", index, ": control found no violation"));
    const double trials = static_cast<double>(f.trials + c.trials);
    if (!traced) {
      out.untraced_wall_s.push_back(wall_s);
      out.rates.push_back(trials / wall_s);
      return;
    }
    out.traced_wall_s.push_back(wall_s);

    // The same searches on one thread: same counts, and the scaling base.
    std::optional<nse::SearchOutcome> filtered1;
    std::optional<nse::SearchOutcome> control1;
    const uint64_t start1 = NowNs();
    if (!run_pair(out, 1, shape.filtered_trials, shape.control_trials,
                  filtered1, control1)) {
      return;
    }
    const uint64_t end1 = NowNs();
    out.Gate(CountsOf(*filtered1) == f && CountsOf(*control1) == c,
             nse::StrCat("pass ", index, ": 1-thread counts differ from ",
                         threads, "-thread counts"));
    const nse::SolverCache::Stats& fs = filtered->solver_cache;
    const nse::SolverCache::Stats& cs = control->solver_cache;
    const uint64_t hits = fs.hits + cs.hits;
    const uint64_t lookups = hits + fs.misses + cs.misses;
    LayerSample sample;
    sample["search.checked_ratio"] =
        static_cast<double>(f.checked + c.checked) / trials;
    sample["search.parallel_efficiency"] =
        static_cast<double>(end1 - start1) /
        (static_cast<double>(threads) * static_cast<double>(end - start));
    sample["solver.hit_rate"] =
        lookups == 0 ? 0
                     : static_cast<double>(hits) / static_cast<double>(lookups);
    sample["solver.computes"] = static_cast<double>(fs.computes + cs.computes);
    out.layer_samples.push_back(std::move(sample));

    const uint64_t pass_span = out.spans.Add("pass", 0, index, start, end1);
    out.spans.Add("search.parallel", pass_span, index, start, end);
    out.spans.Add("search.serial", pass_span, index, start1, end1);
  });

  // Thread-count independence on a prefix, once per run (untimed).
  std::optional<nse::SearchOutcome> f1, c1, fn, cn;
  const uint64_t parity = shape.parity_trials;
  if (run_pair(report, 1, parity, parity, f1, c1) &&
      run_pair(report, threads, parity, parity, fn, cn)) {
    report.Gate(
        CountsOf(*f1) == CountsOf(*fn) && CountsOf(*c1) == CountsOf(*cn),
        nse::StrCat("1-thread and ", threads, "-thread searches disagree on ",
                    parity, " trials"));
  }
  return report;
}

}  // namespace perfbench
