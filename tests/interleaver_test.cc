#include "txn/interleaver.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "constraints/solver.h"
#include "fuzz_env.h"
#include "oracles/oracles.h"
#include "paper/paper_examples.h"
#include "scheduler/workload.h"

namespace nse {
namespace {

class InterleaverTest : public ::testing::Test {
 protected:
  void SetUp() override { ex_ = paper::Example1::Make(); }
  paper::Example1 ex_;
};

TEST_F(InterleaverTest, ReproducesPaperExample1Schedule) {
  std::vector<const TransactionProgram*> programs{&ex_.tp1, &ex_.tp2};
  auto run = Interleave(ex_.db, programs, ex_.ds1, ex_.choices);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(run->complete);
  EXPECT_EQ(run->schedule.ToString(ex_.db),
            "r1(a, 0), r2(a, 0), w2(d, 0), r1(c, 5), w1(b, 5)");
  EXPECT_EQ(run->final_state, ex_.ds2_expected);
}

TEST_F(InterleaverTest, SerialExecutionBothOrders) {
  std::vector<const TransactionProgram*> programs{&ex_.tp1, &ex_.tp2};
  auto t1_first = ExecuteSerially(ex_.db, programs, ex_.ds1, {0, 1});
  ASSERT_TRUE(t1_first.ok());
  EXPECT_EQ(t1_first->schedule.ToString(ex_.db),
            "r1(a, 0), r1(c, 5), w1(b, 5), r2(a, 0), w2(d, 0)");
  auto t2_first = ExecuteSerially(ex_.db, programs, ex_.ds1, {1, 0});
  ASSERT_TRUE(t2_first.ok());
  // Example 1's programs commute on this state: same final state.
  EXPECT_EQ(t1_first->final_state, t2_first->final_state);
}

TEST_F(InterleaverTest, RejectsBadChoices) {
  std::vector<const TransactionProgram*> programs{&ex_.tp1, &ex_.tp2};
  // Program index out of range.
  EXPECT_FALSE(Interleave(ex_.db, programs, ex_.ds1, {0, 7}).ok());
  // Stepping a finished program: TP2 has 2 ops.
  EXPECT_FALSE(Interleave(ex_.db, programs, ex_.ds1, {1, 1, 1}).ok());
  // Incomplete choice sequence with require_complete.
  EXPECT_FALSE(Interleave(ex_.db, programs, ex_.ds1, {0}).ok());
  // ... but allowed as a prefix when requested.
  auto prefix = Interleave(ex_.db, programs, ex_.ds1, {0},
                           /*require_complete=*/false);
  ASSERT_TRUE(prefix.ok());
  EXPECT_FALSE(prefix->complete);
  EXPECT_EQ(prefix->schedule.size(), 1u);
}

TEST_F(InterleaverTest, RandomChoicesAlwaysCompete) {
  std::vector<const TransactionProgram*> programs{&ex_.tp1, &ex_.tp2};
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    auto choices = RandomChoices(ex_.db, programs, ex_.ds1, rng);
    ASSERT_TRUE(choices.ok());
    // T1 emits 3 ops, T2 emits 2 ops from this initial state.
    EXPECT_EQ(choices->size(), 5u);
    auto run = Interleave(ex_.db, programs, ex_.ds1, *choices);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_TRUE(run->complete);
  }
}

TEST_F(InterleaverTest, EnumerateInterleavingsCountsMultinomial) {
  // T1 has 3 operations, T2 has 2: C(5,2) = 10 interleavings.
  std::vector<const TransactionProgram*> programs{&ex_.tp1, &ex_.tp2};
  uint64_t count = 0;
  auto visited = EnumerateInterleavings(
      ex_.db, programs, ex_.ds1, 1'000,
      [&count](const InterleaveResult& run, const std::vector<size_t>&) {
        EXPECT_TRUE(run.complete);
        ++count;
        return true;
      });
  ASSERT_TRUE(visited.ok()) << visited.status();
  EXPECT_EQ(visited->visited, 10u);
  EXPECT_TRUE(visited->exhausted);
  EXPECT_EQ(count, 10u);
}

TEST_F(InterleaverTest, EnumerateStopsOnVisitorFalseAndLimit) {
  std::vector<const TransactionProgram*> programs{&ex_.tp1, &ex_.tp2};
  uint64_t count = 0;
  auto stopped = EnumerateInterleavings(
      ex_.db, programs, ex_.ds1, 1'000,
      [&count](const InterleaveResult&, const std::vector<size_t>&) {
        return ++count < 3;
      });
  ASSERT_TRUE(stopped.ok());
  EXPECT_EQ(stopped->visited, 3u);
  // The visitor stopped the search; the limit did not cut it off.
  EXPECT_TRUE(stopped->exhausted);

  auto limited = EnumerateInterleavings(
      ex_.db, programs, ex_.ds1, 4,
      [](const InterleaveResult&, const std::vector<size_t>&) {
        return true;
      });
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->visited, 4u);
  // 10 interleavings exist, only 4 visited: truncated by the limit.
  EXPECT_FALSE(limited->exhausted);
}

TEST_F(InterleaverTest, EnumerationExactlyAtLimitIsExhaustive) {
  // Limit == number of interleavings: everything visited, no truncation.
  std::vector<const TransactionProgram*> programs{&ex_.tp1, &ex_.tp2};
  auto exact = EnumerateInterleavings(
      ex_.db, programs, ex_.ds1, 10,
      [](const InterleaveResult&, const std::vector<size_t>&) {
        return true;
      });
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->visited, 10u);
  EXPECT_TRUE(exact->exhausted);
}

TEST_F(InterleaverTest, InterleavingSchedulesAreValidExecutions) {
  // Every enumerated interleaving, re-executed from the initial state, must
  // be read-consistent and reach its own recorded final state.
  std::vector<const TransactionProgram*> programs{&ex_.tp1, &ex_.tp2};
  auto visited = EnumerateInterleavings(
      ex_.db, programs, ex_.ds1, 1'000,
      [this](const InterleaveResult& run, const std::vector<size_t>&) {
        auto exec = run.schedule.Execute(ex_.ds1);
        EXPECT_TRUE(exec.ok());
        EXPECT_TRUE(exec->reads_consistent());
        EXPECT_EQ(exec->final_state, run.final_state);
        return true;
      });
  ASSERT_TRUE(visited.ok());
}

// One visited interleaving, flattened for sequence comparison.
struct VisitRecord {
  std::vector<size_t> choices;
  std::string schedule;
  DbState final_state;
  bool complete = false;

  bool operator==(const VisitRecord& other) const {
    return choices == other.choices && schedule == other.schedule &&
           final_state == other.final_state && complete == other.complete;
  }
};

// The incremental step/undo enumerator must reproduce the replay-per-node
// reference exactly: same visit sequence (choices, schedules with value
// attributes, final states), same visited count, same truncation flag —
// across random workloads (including branching programs whose lengths are
// state-dependent), random subtree prefixes, tight limits, and early-stop
// visitors. This is the contract that makes the reference a valid
// sequential baseline in bench_violation_search.
TEST(InterleaverEnumeratorFuzz, IncrementalMatchesReferenceEnumerator) {
  const size_t seeds = FuzzSeedCount(10);
  size_t truncated_runs = 0;
  size_t branchy_runs = 0;
  for (size_t seed = 0; seed < seeds; ++seed) {
    Rng rng(seed * 2713 + 17);
    PartitionedWorkloadConfig config;
    config.num_partitions = 2 + rng.NextBelow(2);
    config.items_per_partition = 1 + rng.NextBelow(2);
    config.num_txns = 2 + rng.NextBelow(2);
    config.partitions_per_txn = 1 + rng.NextBelow(2);
    config.cross_read_probability = 0.5;
    config.branch_probability = (seed % 2 == 0) ? 0.6 : 0.0;
    config.domain_lo = -4;
    config.domain_hi = 4;
    config.seed = seed + 1;
    if (config.branch_probability > 0) ++branchy_runs;
    auto workload = MakePartitionedWorkload(config);
    ASSERT_TRUE(workload.ok()) << workload.status();
    auto programs = workload->ProgramPtrs();

    ConsistencyChecker checker(workload->db, *workload->ic);
    auto initial = checker.SampleConsistentState(rng);
    ASSERT_TRUE(initial.ok()) << initial.status();

    // A random valid subtree prefix: empty, or one live first choice.
    std::vector<size_t> prefix;
    if (rng.NextBool(0.5)) {
      auto live = LiveFirstChoices(workload->db, programs, *initial);
      ASSERT_TRUE(live.ok()) << live.status();
      if (!live->empty()) prefix.push_back((*live)[rng.NextBelow(live->size())]);
    }

    const uint64_t limits[] = {1, 3, 1 + rng.NextBelow(40), 10'000};
    for (uint64_t limit : limits) {
      // stop_after == 0 means "never stop early".
      for (uint64_t stop_after : {uint64_t{0}, uint64_t{2}}) {
        auto run_one = [&](bool reference, std::vector<VisitRecord>& out)
            -> Result<EnumerationOutcome> {
          auto visit = [&](const InterleaveResult& run,
                           const std::vector<size_t>& choices) {
            out.push_back(VisitRecord{choices,
                                      run.schedule.ToString(workload->db),
                                      run.final_state, run.complete});
            return stop_after == 0 || out.size() < stop_after;
          };
          return reference
                     ? oracles::EnumerateInterleavingsFromReference(
                           workload->db, programs, *initial, prefix, limit,
                           visit)
                     : EnumerateInterleavingsFrom(workload->db, programs,
                                                  *initial, prefix, limit,
                                                  visit);
        };
        std::vector<VisitRecord> got, want;
        auto got_outcome = run_one(false, got);
        auto want_outcome = run_one(true, want);
        ASSERT_TRUE(got_outcome.ok()) << got_outcome.status();
        ASSERT_TRUE(want_outcome.ok()) << want_outcome.status();
        EXPECT_EQ(got_outcome->visited, want_outcome->visited)
            << "seed " << seed << " limit " << limit;
        EXPECT_EQ(got_outcome->exhausted, want_outcome->exhausted)
            << "seed " << seed << " limit " << limit;
        ASSERT_EQ(got.size(), want.size())
            << "seed " << seed << " limit " << limit;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(got[i] == want[i])
              << "seed " << seed << " limit " << limit << " visit " << i
              << ": " << got[i].schedule << " vs " << want[i].schedule;
        }
        if (!got_outcome->exhausted) ++truncated_runs;
      }
    }
  }
  // The sweep must exercise both regimes.
  EXPECT_GT(truncated_runs, 0u);
  EXPECT_GT(branchy_runs, 0u);
}

TEST_F(InterleaverTest, StateDependentProgramLengths) {
  // Example 2's TP2 emits 1 op (r a) when a <= 0 and 3 ops when a > 0;
  // the interleaver must follow actual execution.
  auto ex2 = paper::Example2::Make();
  std::vector<const TransactionProgram*> programs{&ex2.tp2};
  DbState neg = ex2.ds0;  // a = -1: branch not taken
  auto run = ExecuteSerially(ex2.db, programs, neg, {0});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->schedule.ToString(ex2.db), "r1(a, -1)");
}

}  // namespace
}  // namespace nse
