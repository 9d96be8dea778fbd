#include "analysis/violation_search.h"

#include <gtest/gtest.h>

#include "constraints/solver.h"
#include "oracles/oracles.h"
#include "paper/paper_examples.h"
#include "scheduler/workload.h"

namespace nse {
namespace {

TEST(ViolationSearchTest, FindsExample2StyleViolationUnderPwsrOnly) {
  // With the non-fixed-structure TP1 and only PWSR required, random search
  // must rediscover Example 2's anomaly.
  auto ex = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
  HypothesisFilter filter;
  filter.require_pwsr = true;
  Rng rng(2024);
  auto outcome = SearchForViolations(ex.db, *ex.ic, programs, filter, rng,
                                     /*trials=*/400);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_GT(outcome->violations, 0u);
  ASSERT_TRUE(outcome->first_counterexample.has_value());
  const auto& cex = *outcome->first_counterexample;
  EXPECT_FALSE(cex.report.strongly_correct);
  // The counterexample is reproducible from its recorded pieces.
  auto replay = Interleave(ex.db, programs, cex.initial, cex.choices);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->schedule.ToString(ex.db), cex.schedule.ToString(ex.db));
}

TEST(ViolationSearchTest, FixedStructureFilterShortCircuits) {
  // Requiring fixed structure with Example 2's TP1 filters everything out
  // (Theorem 1's hypothesis cannot be met by these programs).
  auto ex = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
  HypothesisFilter filter;
  filter.require_pwsr = true;
  filter.require_fixed_structure = true;
  Rng rng(1);
  auto outcome =
      SearchForViolations(ex.db, *ex.ic, programs, filter, rng, 50);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->checked, 0u);
  EXPECT_EQ(outcome->violations, 0u);
}

TEST(ViolationSearchTest, StopAtFirstStopsEarly) {
  auto ex = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
  HypothesisFilter filter;  // no filter: every execution checked
  Rng rng(7);
  auto outcome = SearchForViolations(ex.db, *ex.ic, programs, filter, rng,
                                     10'000, /*stop_at_first=*/true);
  ASSERT_TRUE(outcome.ok());
  ASSERT_GT(outcome->violations, 0u);
  EXPECT_LT(outcome->trials, 10'000u);
}

TEST(ViolationSearchTest, ExhaustiveSearchCoversAllInterleavings) {
  auto ex = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
  HypothesisFilter filter;
  filter.require_pwsr = true;
  auto outcome = ExhaustiveViolationSearch(ex.db, *ex.ic, programs,
                                           {ex.ds0}, filter, 10'000);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_GT(outcome->trials, 0u);
  EXPECT_GT(outcome->violations, 0u);
  // The limit was generous: every interleaving really was visited.
  EXPECT_EQ(outcome->truncated, 0u);
  ASSERT_TRUE(outcome->first_counterexample.has_value());
  EXPECT_EQ(outcome->first_counterexample->initial, ex.ds0);
}

TEST(ViolationSearchTest, ExhaustiveSearchReportsTruncation) {
  // With a tiny interleaving limit the enumeration is cut off, and the
  // outcome must say so — a truncated search finding no violation is not
  // evidence of correctness, unlike a filtered-but-exhaustive one.
  auto ex = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
  HypothesisFilter filter;
  auto outcome =
      ExhaustiveViolationSearch(ex.db, *ex.ic, programs, {ex.ds0}, filter, 2);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->trials, 2u);
  EXPECT_EQ(outcome->truncated, 1u);
}

/// Canonical parity scenario: enough trials to see violations, filtering,
/// and both exploration styles.
SearchConfig ParityConfig(size_t threads) {
  SearchConfig config;
  // Deliberately not a multiple of the engine's 16-trial claim batch, so
  // the last batch is partial.
  config.trials = 300;
  config.threads = threads;
  return config;
}

void ExpectSameOutcome(const SearchOutcome& a, const SearchOutcome& b,
                       const Database& db) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.filtered_out, b.filtered_out);
  EXPECT_EQ(a.checked, b.checked);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.first_violation_trial, b.first_violation_trial);
  ASSERT_EQ(a.first_counterexample.has_value(),
            b.first_counterexample.has_value());
  if (a.first_counterexample.has_value()) {
    EXPECT_EQ(a.first_counterexample->initial, b.first_counterexample->initial);
    EXPECT_EQ(a.first_counterexample->choices, b.first_counterexample->choices);
    EXPECT_EQ(a.first_counterexample->schedule.ToString(db),
              b.first_counterexample->schedule.ToString(db));
  }
}

TEST(ViolationSearchTest, OutcomeIsIdenticalAcrossThreadCounts) {
  // The determinism contract: for a fixed seed, counts and the first
  // counterexample (by global trial index) do not depend on the number of
  // worker threads.
  auto ex = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
  HypothesisFilter filter;
  filter.require_pwsr = true;

  Rng rng1(2024);
  auto sequential = SearchForViolations(ex.db, *ex.ic, programs, filter, rng1,
                                        ParityConfig(1));
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  EXPECT_GT(sequential->violations, 0u);
  ASSERT_TRUE(sequential->first_counterexample.has_value());

  for (size_t threads : {2, 8}) {
    Rng rng(2024);
    auto parallel = SearchForViolations(ex.db, *ex.ic, programs, filter, rng,
                                        ParityConfig(threads));
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectSameOutcome(*sequential, *parallel, ex.db);
  }
}

TEST(ViolationSearchTest, StopAtFirstIsIdenticalAcrossThreadCounts) {
  // Early cancellation: the outcome is the deterministic prefix ending at
  // the smallest violating trial index, so stop-at-first results are also
  // thread-count independent — and genuinely early.
  auto ex = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
  HypothesisFilter filter;

  SearchConfig config = ParityConfig(1);
  config.trials = 10'000;
  config.stop_at_first = true;

  Rng rng1(7);
  auto sequential =
      SearchForViolations(ex.db, *ex.ic, programs, filter, rng1, config);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  ASSERT_GT(sequential->violations, 0u);
  EXPECT_LT(sequential->trials, 10'000u);
  ASSERT_TRUE(sequential->first_violation_trial.has_value());
  EXPECT_EQ(sequential->trials, *sequential->first_violation_trial + 1);

  config.threads = 8;
  Rng rng8(7);
  auto parallel =
      SearchForViolations(ex.db, *ex.ic, programs, filter, rng8, config);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ExpectSameOutcome(*sequential, *parallel, ex.db);
}

TEST(ViolationSearchTest, SolverCacheIsSharedAndHot) {
  // The shared cache sees every worker's solver queries; on this workload
  // (few conjuncts, small domains) the post-warmup hit rate is high.
  auto ex = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
  HypothesisFilter filter;
  SearchConfig config = ParityConfig(4);
  Rng rng(11);
  auto outcome =
      SearchForViolations(ex.db, *ex.ic, programs, filter, rng, config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_GT(outcome->solver_cache.hits, 0u);
  EXPECT_GT(outcome->solver_cache.hit_rate(), 0.5);

  // Cache off: the engine still works and reports zero cache traffic.
  config.share_solver_cache = false;
  Rng rng_off(11);
  auto uncached =
      SearchForViolations(ex.db, *ex.ic, programs, filter, rng_off, config);
  ASSERT_TRUE(uncached.ok()) << uncached.status();
  EXPECT_EQ(uncached->solver_cache.hits + uncached->solver_cache.misses, 0u);
  EXPECT_EQ(uncached->trials, config.trials);
}

TEST(ViolationSearchTest, ZeroThreadsMeansHardwareDefault) {
  auto ex = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
  HypothesisFilter filter;
  SearchConfig config;
  config.trials = 40;
  config.threads = 0;  // DefaultNumThreads
  Rng rng(3);
  auto outcome =
      SearchForViolations(ex.db, *ex.ic, programs, filter, rng, config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->trials, 40u);
}

/// Exhaustive-mode parity scenario: a generous budget over several initial
/// states, so the engine has both state- and first-choice-subtree units to
/// distribute across workers.
ExhaustiveSearchConfig ExhaustiveParityConfig(size_t threads) {
  ExhaustiveSearchConfig config;
  config.interleaving_limit = 10'000;
  config.threads = threads;
  return config;
}

TEST(ViolationSearchTest, ExhaustiveOutcomeIsIdenticalAcrossThreadCounts) {
  // The exhaustive determinism contract: counts, truncation, and the first
  // counterexample (by canonical enumeration index) do not depend on the
  // number of workers the subtree units land on.
  auto ex = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
  auto states =
      ConsistencyChecker(ex.db, *ex.ic).EnumerateConsistentStates(3);
  ASSERT_TRUE(states.ok()) << states.status();
  ASSERT_GT(states->size(), 1u);
  HypothesisFilter filter;
  filter.require_pwsr = true;

  auto sequential = ExhaustiveViolationSearch(ex.db, *ex.ic, programs, *states,
                                              filter, ExhaustiveParityConfig(1));
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  EXPECT_GT(sequential->violations, 0u);
  EXPECT_EQ(sequential->truncated, 0u);
  ASSERT_TRUE(sequential->first_counterexample.has_value());

  for (size_t threads : {2, 4, 8}) {
    auto parallel = ExhaustiveViolationSearch(
        ex.db, *ex.ic, programs, *states, filter,
        ExhaustiveParityConfig(threads));
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectSameOutcome(*sequential, *parallel, ex.db);
  }

  // The pre-engine overload is exactly the threads=1 configuration.
  auto legacy = ExhaustiveViolationSearch(ex.db, *ex.ic, programs, *states,
                                          filter, /*interleaving_limit=*/10'000);
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  ExpectSameOutcome(*sequential, *legacy, ex.db);
}

TEST(ViolationSearchTest, ExhaustiveStopAtFirstIsIdenticalAcrossThreadCounts) {
  // Stop-at-first returns the deterministic prefix ending at the first
  // violating enumeration index; a worker deep in a later subtree must not
  // leak trials past that cut.
  auto ex = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
  HypothesisFilter filter;  // unfiltered: the first violation comes early

  ExhaustiveSearchConfig config = ExhaustiveParityConfig(1);
  config.stop_at_first = true;
  auto sequential = ExhaustiveViolationSearch(ex.db, *ex.ic, programs,
                                              {ex.ds0}, filter, config);
  ASSERT_TRUE(sequential.ok()) << sequential.status();
  ASSERT_GT(sequential->violations, 0u);
  ASSERT_TRUE(sequential->first_violation_trial.has_value());
  EXPECT_EQ(sequential->trials, *sequential->first_violation_trial + 1);

  for (size_t threads : {2, 8}) {
    config.threads = threads;
    auto parallel = ExhaustiveViolationSearch(ex.db, *ex.ic, programs,
                                              {ex.ds0}, filter, config);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ExpectSameOutcome(*sequential, *parallel, ex.db);
  }
}

TEST(ViolationSearchTest, ExhaustiveTruncationIsIdenticalAcrossThreadCounts) {
  // Tiny budgets cut enumerations mid-subtree. The parallel unit
  // decomposition and per-state budget merge must reproduce an
  // independently written sequential search (tests/oracles: one root
  // enumeration per state by the replay-per-node enumerator; no units, no
  // merge, no cache) on every count, the truncation tally, the first
  // violation's index and its counterexample, at every thread count,
  // budget and stop mode.
  auto ex = paper::Example2::Make();
  auto states =
      ConsistencyChecker(ex.db, *ex.ic).EnumerateConsistentStates(3);
  ASSERT_TRUE(states.ok()) << states.status();
  HypothesisFilter pwsr;
  pwsr.require_pwsr = true;
  // From these states TP1-first subtrees hold 20 interleavings and
  // TP2-first ones a single one: listing TP1 first, the slot-0 unit alone
  // exhausts every budget below; listing TP2 first, every budget crosses
  // into the second unit, exercising the merge's cross-unit bookkeeping.
  const std::vector<std::vector<const TransactionProgram*>> orders{
      {&ex.tp1, &ex.tp2}, {&ex.tp2, &ex.tp1}};

  uint64_t violations = 0;
  for (const auto& programs : orders) {
    for (const HypothesisFilter& filter : {HypothesisFilter{}, pwsr}) {
      for (uint64_t limit : {1, 2, 3, 7, 19}) {
        for (bool stop_at_first : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "tp1 first " << (programs[0] == &ex.tp1) << " pwsr "
                       << filter.require_pwsr << " limit " << limit
                       << " stop_at_first " << stop_at_first);
          auto want = oracles::ReferenceExhaustiveSearch(
              ex.db, *ex.ic, programs, *states, filter, limit, stop_at_first);
          ASSERT_TRUE(want.ok()) << want.status();
          if (!stop_at_first) EXPECT_GT(want->truncated, 0u);
          violations += want->violations;
          for (size_t threads : {1, 2, 8}) {
            ExhaustiveSearchConfig config;
            config.interleaving_limit = limit;
            config.stop_at_first = stop_at_first;
            config.threads = threads;
            auto got = ExhaustiveViolationSearch(ex.db, *ex.ic, programs,
                                                 *states, filter, config);
            ASSERT_TRUE(got.ok()) << got.status();
            ExpectSameOutcome(*want, *got, ex.db);
          }
        }
      }
    }
  }
  // Violations must occur, or the counterexample comparisons were vacuous.
  EXPECT_GT(violations, 0u);
}

TEST(ViolationSearchTest, ExhaustiveCacheToggleNeverChangesTheVerdicts) {
  // Unlike the randomized path (where the cache changes which executions a
  // seed samples), exhaustive enumeration draws nothing at random: cache on
  // and off must agree on every count and the counterexample, differing
  // only in the reported cache traffic.
  auto ex = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex.tp1, &ex.tp2};
  HypothesisFilter filter;
  filter.require_pwsr = true;

  ExhaustiveSearchConfig config = ExhaustiveParityConfig(2);
  auto cached = ExhaustiveViolationSearch(ex.db, *ex.ic, programs, {ex.ds0},
                                          filter, config);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_GT(cached->solver_cache.hits, 0u);
  EXPECT_GT(cached->solver_cache.hit_rate(), 0.5);

  config.share_solver_cache = false;
  auto uncached = ExhaustiveViolationSearch(ex.db, *ex.ic, programs, {ex.ds0},
                                            filter, config);
  ASSERT_TRUE(uncached.ok()) << uncached.status();
  EXPECT_EQ(uncached->solver_cache.hits + uncached->solver_cache.misses, 0u);
  ExpectSameOutcome(*cached, *uncached, ex.db);
}

TEST(ViolationSearchTest, GeneratedFixedStructureWorkloadHasNoViolations) {
  // Theorem 1 regime via the workload generator: straight-line correct
  // programs, PWSR-filtered executions — zero violations expected.
  PartitionedWorkloadConfig config;
  config.num_partitions = 3;
  config.items_per_partition = 2;
  config.num_txns = 3;
  config.partitions_per_txn = 2;
  config.branch_probability = 0.0;
  config.seed = 5;
  auto workload = MakePartitionedWorkload(config);
  ASSERT_TRUE(workload.ok()) << workload.status();
  HypothesisFilter filter;
  filter.require_pwsr = true;
  filter.require_fixed_structure = true;
  Rng rng(5);
  auto outcome = SearchForViolations(workload->db, *workload->ic,
                                     workload->ProgramPtrs(), filter, rng,
                                     /*trials=*/150);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_GT(outcome->checked, 0u);
  EXPECT_EQ(outcome->violations, 0u);
}

}  // namespace
}  // namespace nse
