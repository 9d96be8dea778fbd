// Violation-search engine throughput: the sequential/uncached legacy
// configuration vs. the worker-pool engine with the shared solver cache.
//
// Workloads follow the search's production shape (ROADMAP experiments):
// partitioned all-equal invariants, straight-line correct programs, mixed
// random/near-serial exploration, full per-execution analysis (PWSR / DR /
// DAG artifacts + strong-correctness solver checks). The 256-op/8-conjunct
// row is the reference configuration.
//
// Every cache-on row must produce the identical SearchOutcome regardless of
// thread count (the engine's determinism contract — NSE_CHECKed here); the
// cache-off row samples initial states through the randomized backtracking
// search instead of the cached sampling domains, so its outcome is a
// different (equally valid) draw and only its wall time is comparable.
//
// Each workload also runs in exhaustive mode: the parallel subtree engine
// enumerating a budgeted canonical prefix of all interleavings from two
// enumerated consistent initial states. Exhaustive verdicts are independent
// of the thread count, the cache, and the enumerator (nothing is sampled),
// so every exhaustive row — including the sequential baseline — must agree
// on every count. The baseline row is oracles::ReferenceExhaustiveSearch
// (tests/oracles): one thread, no cache, one root enumeration per state by
// the replay-per-node reference enumerator; the speedups of the other rows
// are dominated by the incremental step/undo enumerator, with the shared
// SolverCache and worker threads composing on top on multi-core hosts.
//
// Emits a fixed-width table on stdout and a JSON baseline (default
// BENCH_violation_search.json, override with the last argument). The JSON
// records host_cores: on a single-core container the thread rows measure
// engine overhead only — the committed speedups come from the solver cache;
// multi-core hosts stack thread scaling on top (see docs/bench.md).
//
// Each workload's rows are timed in rounds: a round runs the sequential
// baseline and then every other configuration once, and a row's wall time
// is its best round. Host drift over the run (other load, frequency
// changes) then hits the baseline and the configuration alike, instead of
// landing on whichever side ran during it.
//
// --smoke: tiny trial counts, parity assertions only, no JSON — wired into
// ctest so every CI push exercises the parallel path.

#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common/logging.h"
#include "nse/nse.h"
#include "oracles/oracles.h"
#include "scheduler/metrics.h"

namespace nse {
namespace {

struct BenchCase {
  const char* name;
  PartitionedWorkloadConfig config;
  uint64_t trials;
};

/// The reference workloads. Domain [-256, 256] keeps the per-conjunct
/// solver searches (the violation search's hot inner loop) dominant, which
/// is exactly the regime the SolverCache targets.
std::vector<BenchCase> MakeCases(bool smoke) {
  // 64 ops per sampled execution: 4 txns, each visiting 4 partitions and
  // rewriting 3 items per visit (plus the pivot read).
  PartitionedWorkloadConfig small;
  small.num_partitions = 4;
  small.items_per_partition = 3;
  small.num_txns = 4;
  small.partitions_per_txn = 4;
  small.branch_probability = 0.0;
  small.cross_read_probability = 0.5;
  small.domain_lo = -256;
  small.domain_hi = 256;
  small.seed = 42;

  // ~256 ops per sampled execution, 8 conjuncts: 8 txns, each visiting 8
  // partitions and rewriting 3 items per visit (+ cross reads).
  PartitionedWorkloadConfig big;
  big.num_partitions = 8;
  big.items_per_partition = 3;
  big.num_txns = 8;
  big.partitions_per_txn = 8;
  big.branch_probability = 0.0;
  big.cross_read_probability = 0.5;
  big.domain_lo = -256;
  big.domain_hi = 256;
  big.seed = 42;

  if (smoke) {
    return {{"64op_4conj", small, 12}, {"256op_8conj", big, 6}};
  }
  return {{"64op_4conj", small, 600}, {"256op_8conj", big, 200}};
}

SearchOutcome MustSearch(const Workload& workload, const SearchConfig& config,
                         uint64_t seed) {
  Rng rng(seed);
  HypothesisFilter filter;  // no filter: every execution fully checked
  auto outcome = SearchForViolations(workload.db, *workload.ic,
                                     workload.ProgramPtrs(), filter, rng,
                                     config);
  NSE_CHECK_MSG(outcome.ok(), "%s", outcome.status().ToString().c_str());
  return std::move(outcome).value();
}

size_t SerialOpCount(const Workload& workload) {
  Rng rng(1);
  ConsistencyChecker checker(workload.db, *workload.ic);
  auto initial = checker.SampleConsistentState(rng);
  NSE_CHECK(initial.ok());
  std::vector<size_t> order(workload.programs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto run = ExecuteSerially(workload.db, workload.ProgramPtrs(), *initial,
                             order);
  NSE_CHECK(run.ok());
  return run->schedule.size();
}

bool SameCounts(const SearchOutcome& a, const SearchOutcome& b) {
  return a.trials == b.trials && a.filtered_out == b.filtered_out &&
         a.checked == b.checked && a.violations == b.violations &&
         a.truncated == b.truncated &&
         a.first_violation_trial == b.first_violation_trial;
}

/// The exhaustive engine under `config`, or the sequential reference
/// search over the same budget when `reference` is set.
SearchOutcome MustExhaustive(const Workload& workload,
                             const std::vector<DbState>& states,
                             const ExhaustiveSearchConfig& config,
                             bool reference) {
  HypothesisFilter filter;  // no filter: every enumerated execution checked
  auto outcome =
      reference
          ? oracles::ReferenceExhaustiveSearch(
                workload.db, *workload.ic, workload.ProgramPtrs(), states,
                filter, config.interleaving_limit, config.stop_at_first)
          : ExhaustiveViolationSearch(workload.db, *workload.ic,
                                      workload.ProgramPtrs(), states, filter,
                                      config);
  NSE_CHECK_MSG(outcome.ok(), "%s", outcome.status().ToString().c_str());
  return std::move(outcome).value();
}

}  // namespace
}  // namespace nse

int main(int argc, char** argv) {
  using namespace nse;
  const bench::BenchArgs args =
      bench::ParseBenchArgs(argc, argv, "BENCH_violation_search.json");
  const bool smoke = args.smoke;

  const size_t host_cores = std::thread::hardware_concurrency();
  // Exhaustive rows run for tens of milliseconds, so one slow round moves
  // their best more than it moves a randomized row's: they get more rounds.
  const int reps = smoke ? 1 : 3;
  const int exhaustive_reps = smoke ? 1 : 7;
  const uint64_t seed = 20260730;

  struct Config {
    size_t threads;
    bool cache;
  };
  const std::vector<Config> grid = smoke
                                       ? std::vector<Config>{{1, false},
                                                             {1, true},
                                                             {4, true}}
                                       : std::vector<Config>{{1, false},
                                                             {1, true},
                                                             {2, true},
                                                             {8, true}};

  TablePrinter table({"workload", "mode", "trials", "threads", "cache",
                      "wall ms", "trials/s", "speedup", "hit rate"});
  bench::BenchReport report("violation_search");
  // One row in the table and the report; `enumerator` is set on
  // exhaustive rows only.
  auto add_row = [&](const std::string& workload, const char* mode,
                     const char* enumerator, size_t ops, size_t conjuncts,
                     size_t threads, bool cache, double ms, double speedup,
                     const SearchOutcome& outcome) {
    const double trials_per_s =
        ms == 0 ? 0 : static_cast<double>(outcome.trials) / (ms / 1000.0);
    const double hit_rate = outcome.solver_cache.hit_rate();
    const bool reference =
        enumerator != nullptr && std::strcmp(enumerator, "reference") == 0;
    table.AddRow({workload, reference ? "exh-ref" : mode,
                  StrCat(outcome.trials), StrCat(threads),
                  cache ? "on" : "off", FormatDouble(ms, 2),
                  FormatDouble(trials_per_s, 1),
                  StrCat(FormatDouble(speedup, 2), "x"),
                  FormatDouble(hit_rate, 3)});
    bench::BenchRow& row =
        report.AddRow().Key("workload", workload).Key("mode", mode);
    if (enumerator != nullptr) row.Key("enumerator", enumerator);
    row.Key("trials", outcome.trials)
        .Key("threads", threads)
        .Key("solver_cache", cache)
        .Exact("ops", ops)
        .Exact("conjuncts", conjuncts)
        .Exact("checked", outcome.checked)
        .Exact("violations", outcome.violations)
        .Exact("truncated", outcome.truncated)
        .Ratio("speedup_vs_sequential", speedup)
        .Info("wall_ms", ms)
        .Info("trials_per_s", bench::JsonValue(trials_per_s, 1))
        .Info("cache_hit_rate", bench::JsonValue(hit_rate, 4))
        .Info("cache_computes", outcome.solver_cache.computes);
  };
  for (const BenchCase& bench_case : MakeCases(smoke)) {
    auto workload = MakePartitionedWorkload(bench_case.config);
    NSE_CHECK_MSG(workload.ok(), "%s",
                  workload.status().ToString().c_str());
    const size_t ops = SerialOpCount(*workload);

    // grid[0] is the sequential/uncached baseline.
    std::vector<SearchOutcome> outcomes(grid.size());
    std::vector<std::function<void()>> runs;
    for (size_t c = 0; c < grid.size(); ++c) {
      SearchConfig search;
      search.trials = bench_case.trials;
      search.threads = grid[c].threads;
      search.share_solver_cache = grid[c].cache;
      runs.push_back([&, search, c] {
        outcomes[c] = MustSearch(*workload, search, seed);
      });
    }
    const std::vector<double> walls = bench::BestOfInterleavedMs(reps, runs);
    const double baseline_ms = walls[0];
    SearchOutcome reference;  // the cache-on outcome all thread counts must match
    bool have_reference = false;
    for (size_t c = 0; c < grid.size(); ++c) {
      const Config& config = grid[c];
      const SearchOutcome& outcome = outcomes[c];
      const double ms = walls[c];
      if (config.cache) {
        // Determinism contract: identical outcomes for every thread count.
        if (!have_reference) {
          reference = outcome;
          have_reference = true;
        } else {
          NSE_CHECK_MSG(SameCounts(reference, outcome),
                        "outcome differs across thread counts");
        }
      }

      add_row(bench_case.name, "randomized", nullptr, ops,
              bench_case.config.num_partitions, config.threads, config.cache,
              ms, (baseline_ms == 0 || ms == 0) ? 1.0 : baseline_ms / ms,
              outcome);
    }

    // ---- exhaustive mode ------------------------------------------------
    // The exhaustive engine enumerates the same canonical interleaving
    // stream whatever the thread count, cache setting, or enumerator
    // (nothing is sampled), so EVERY exhaustive row must agree on every
    // count — including the sequential baseline the speedups are measured
    // against. That baseline is the sequential reference search: one
    // thread, no cache, and the replay-per-node reference enumerator. The
    // win of the other rows is dominated by the incremental step/undo
    // enumerator (one program step per tree edge instead of an O(depth)
    // prefix replay per node); the shared SolverCache and extra workers
    // compose with it on multi-core hosts.
    const uint64_t limit = smoke
                               ? 4
                               : (std::strcmp(bench_case.name, "64op_4conj")
                                      ? 40    // 256op_8conj
                                      : 150); // 64op_4conj
    ConsistencyChecker checker(workload->db, *workload->ic);
    auto states = checker.EnumerateConsistentStates(2);
    NSE_CHECK_MSG(states.ok(), "%s", states.status().ToString().c_str());

    struct ExhaustiveConfig {
      size_t threads;
      bool cache;
      bool reference;
    };
    const std::vector<ExhaustiveConfig> exhaustive_grid =
        smoke ? std::vector<ExhaustiveConfig>{{1, false, true},
                                              {1, true, false},
                                              {4, true, false}}
              : std::vector<ExhaustiveConfig>{{1, false, true},
                                              {1, false, false},
                                              {1, true, false},
                                              {2, true, false},
                                              {8, true, false}};

    // exhaustive_grid[0] is the reference baseline.
    std::vector<SearchOutcome> exh_outcomes(exhaustive_grid.size());
    std::vector<std::function<void()>> exh_runs;
    for (size_t c = 0; c < exhaustive_grid.size(); ++c) {
      ExhaustiveSearchConfig search;
      search.interleaving_limit = limit;
      search.threads = exhaustive_grid[c].threads;
      search.share_solver_cache = exhaustive_grid[c].cache;
      exh_runs.push_back([&, search, c] {
        exh_outcomes[c] = MustExhaustive(*workload, *states, search,
                                         exhaustive_grid[c].reference);
      });
    }
    const std::vector<double> exh_walls =
        bench::BestOfInterleavedMs(exhaustive_reps, exh_runs);
    const double exh_baseline_ms = exh_walls[0];
    SearchOutcome exh_reference;
    bool have_exh_reference = false;
    for (size_t c = 0; c < exhaustive_grid.size(); ++c) {
      const ExhaustiveConfig& config = exhaustive_grid[c];
      const SearchOutcome& outcome = exh_outcomes[c];
      const double ms = exh_walls[c];
      if (!have_exh_reference) {
        exh_reference = outcome;
        have_exh_reference = true;
      } else {
        NSE_CHECK_MSG(SameCounts(exh_reference, outcome),
                      "exhaustive outcome differs across configurations");
      }

      add_row(bench_case.name, "exhaustive",
              config.reference ? "reference" : "incremental", ops,
              bench_case.config.num_partitions, config.threads, config.cache,
              ms,
              (exh_baseline_ms == 0 || ms == 0) ? 1.0 : exh_baseline_ms / ms,
              outcome);
    }
  }

  std::cout << "\n=== Violation search: worker pool + shared solver cache ===\n"
            << table.Render() << "(host cores: " << host_cores
            << "; speedup vs the sequential/uncached row of each workload; "
               "cache-on outcomes are identical across thread counts)\n";

  if (smoke) {
    std::cout << "smoke mode: parity checks passed, no baseline written\n";
    return 0;
  }

  return report.Write(args.json_path) ? 0 : 1;
}
