// Engine differential harness: the multithreaded counterpart of the chaos
// and policy differential sweeps. For K seeds, a randomized workload is
// run under every scheduler policy × worker-thread counts {1, 2, 4, 8},
// and three contracts are pinned on every run:
//
//   1. class safety — the trace the engine linearized by policy trace_seq
//      still verifies against the policy's promised class via the
//      independent CheckerRegistry checkers (CSR / strict / PWSR / DR),
//      races, wounds and deadlock victims notwithstanding;
//   2. forward progress — every transaction commits (no faults are
//      injected here; chaos_differential_test.cc runs them on threads):
//      completed == n, and the trace holds committed transactions'
//      operations only;
//   3. no residual state — at quiescence the policy leaked nothing: zero
//      held locks, zero active stamp entries, zero dirty-writer marks,
//      and the SGT live graph equals the committed trace's conflict graph
//      (or drained to empty with the incremental GC on).
//
// Event counters (wounds, deadlock aborts, wait events) are inherently
// nondeterministic under real threads, so unlike the tick-simulator
// sweeps nothing here pins their exact values — the simulator remains the
// bit-for-bit oracle; this harness is the one that exercises the same
// policy code under genuine concurrency (the TSan CI job runs it
// unfiltered).

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis_context.h"
#include "analysis/checker.h"
#include "analysis/conflict_graph.h"
#include "analysis/serializability.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "engine/sharded_store.h"
#include "fuzz_env.h"
#include "scheduler/dr_scheduler.h"
#include "scheduler/priority_locking.h"
#include "scheduler/pw_two_phase_locking.h"
#include "scheduler/sgt_policy.h"
#include "scheduler/sgt_victim_policy.h"
#include "scheduler/sim.h"
#include "scheduler/timestamp_ordering.h"
#include "scheduler/two_phase_locking.h"
#include "scheduler/workload.h"
#include "trace_order.h"

namespace nse {
namespace {

const size_t kThreadCounts[] = {1, 2, 4, 8};

std::vector<uint64_t> FuzzSeeds() {
  std::vector<uint64_t> seeds;
  for (uint64_t s = 1; s <= FuzzSeedCount(3); ++s) seeds.push_back(s);
  return seeds;
}

/// Same workload family as the other differential harnesses. Arrival
/// ticks are a simulator notion the engine ignores; the draw keeps them
/// zero-spread so the two drivers see the same scripts.
Workload DrawWorkload(uint64_t seed) {
  Rng knobs = Rng(seed).Split(0);
  PartitionedWorkloadConfig config;
  config.num_partitions = 2 + knobs.NextBelow(4);       // 2..5
  config.items_per_partition = 1 + knobs.NextBelow(3);  // 1..3
  config.num_txns = 4 + knobs.NextBelow(7);             // 4..10
  config.partitions_per_txn = 1 + knobs.NextBelow(config.num_partitions);
  config.cross_read_probability = knobs.NextDouble();
  config.hotspot_probability = 0.3 * knobs.NextBelow(4);  // 0, .3, .6, .9
  config.arrival_spread = 0;
  config.seed = seed;
  auto workload = MakePartitionedWorkload(config);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).value();
}

EngineConfig FastEngineConfig(size_t threads) {
  EngineConfig config;
  config.threads = threads;
  config.wait_timeout_micros = 100;  // brisk deadlock-detector cadence
  config.backoff_unit_micros = 5;    // tiny workloads: short real sleeps
  return config;
}

/// Runs `checker_name` against the committed schedule and asserts it is
/// satisfied.
void ExpectClass(const Workload& workload, const Schedule& schedule,
                 std::string_view checker_name, std::string_view policy,
                 size_t threads) {
  AnalysisContext ctx(*workload.ic, schedule);
  auto result = CheckerRegistry::BuiltIn().Run(checker_name, ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->verdict, Verdict::kSatisfied)
      << policy << " at " << threads << " threads broke its "
      << checker_name << " promise: " << result->ToString()
      << "\nschedule:\n"
      << schedule.ToString(workload.db);
}

/// Forward-progress ledger plus trace hygiene: everything committed, the
/// trace mentions committed transactions only, and it is placed by seq.
void ExpectForwardProgress(const EngineResult& result, size_t num_txns,
                           size_t threads) {
  EXPECT_EQ(result.completed, num_txns)
      << "a transaction never committed at " << threads << " threads";
  std::set<TxnId> in_trace;
  for (const Operation& op : result.schedule.ops()) in_trace.insert(op.txn);
  EXPECT_LE(in_trace.size(), result.completed)
      << "trace holds operations of uncommitted transactions";
  ExpectWritesInSeqOrder(result.schedule,
                         std::to_string(threads) + " threads");
  EXPECT_EQ(result.threads, threads);
}

/// Runs the workload under a fresh policy per thread count and applies the
/// shared contracts; per-policy residual checks happen at the call sites.
template <typename MakePolicy,
          typename Policy =
              std::decay_t<decltype(*std::declval<MakePolicy>()())>>
void SweepThreads(
    const Workload& workload, MakePolicy make,
    const std::vector<std::string>& checkers,
    const std::function<void(const Policy&, const EngineResult&)>& residual) {
  for (size_t threads : kThreadCounts) {
    auto policy = make();
    auto result =
        RunEngine(*policy, workload.scripts, FastEngineConfig(threads));
    ASSERT_TRUE(result.ok())
        << policy->name() << " at " << threads
        << " threads: " << result.status();
    ExpectForwardProgress(*result, workload.scripts.size(), threads);
    for (const std::string& checker : checkers) {
      ExpectClass(workload, result->schedule, checker, policy->name(),
                  threads);
    }
    residual(*policy, *result);
  }
}

class EngineDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineDifferentialFuzz, Strict2plKeepsPromisesAcrossThreads) {
  Workload workload = DrawWorkload(GetParam());
  SweepThreads<std::function<std::unique_ptr<StrictTwoPhaseLocking>()>,
               StrictTwoPhaseLocking>(
      workload, [] { return std::make_unique<StrictTwoPhaseLocking>(); },
      {"csr", "delayed-read"},
      [&](const StrictTwoPhaseLocking& policy, const EngineResult& result) {
        AnalysisContext ctx(*workload.ic, result.schedule);
        EXPECT_TRUE(ctx.strict());
        EXPECT_EQ(policy.held_locks(), 0u);
      });
}

TEST_P(EngineDifferentialFuzz, WoundWaitKeepsPromisesAcrossThreads) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  SweepThreads<std::function<std::unique_ptr<WoundWaitPolicy>()>,
               WoundWaitPolicy>(
      workload, [n] { return std::make_unique<WoundWaitPolicy>(n); },
      {"csr"},
      [&](const WoundWaitPolicy& policy, const EngineResult& result) {
        AnalysisContext ctx(*workload.ic, result.schedule);
        EXPECT_TRUE(ctx.strict());
        EXPECT_EQ(policy.held_locks(), 0u);
      });
}

TEST_P(EngineDifferentialFuzz, WaitDieKeepsPromisesAcrossThreads) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  SweepThreads<std::function<std::unique_ptr<WaitDiePolicy>()>,
               WaitDiePolicy>(
      workload, [n] { return std::make_unique<WaitDiePolicy>(n); }, {"csr"},
      [&](const WaitDiePolicy& policy, const EngineResult& result) {
        AnalysisContext ctx(*workload.ic, result.schedule);
        EXPECT_TRUE(ctx.strict());
        EXPECT_EQ(policy.held_locks(), 0u);
        // Wait-die never wounds: its only condemnations are self-aborts.
        EXPECT_EQ(result.wounds, 0u);
      });
}

TEST_P(EngineDifferentialFuzz, SgtKeepsPromisesAcrossThreads) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  SweepThreads<std::function<std::unique_ptr<SgtPolicy>()>, SgtPolicy>(
      workload, [n] { return std::make_unique<SgtPolicy>(n); }, {"csr"},
      [&](const SgtPolicy& policy, const EngineResult& result) {
        // Residual hygiene: the live graph at quiescence is exactly the
        // committed trace's conflict graph (GC off), cycle-free.
        EXPECT_FALSE(policy.graph().has_cycle());
        EXPECT_EQ(policy.graph().Edges(),
                  ConflictGraph::Build(result.schedule).Edges());
      });
}

TEST_P(EngineDifferentialFuzz, SgtWithGcDrainsGraphAcrossThreads) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  SweepThreads<std::function<std::unique_ptr<SgtPolicy>()>, SgtPolicy>(
      workload,
      [n] {
        SgtPolicy::Options options;
        options.gc_committed = true;
        return std::make_unique<SgtPolicy>(n, options);
      },
      {"csr"},
      [&](const SgtPolicy& policy, const EngineResult& result) {
        // With the incremental online trim, every committed node cascades
        // out at quiescence: the live graph drains to empty.
        EXPECT_TRUE(policy.graph().Edges().empty());
        EXPECT_EQ(policy.gc_trimmed(), result.completed);
      });
}

TEST_P(EngineDifferentialFuzz, SgtVictimKeepsPromisesAcrossThreads) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  SweepThreads<std::function<std::unique_ptr<SgtVictimPolicy>()>,
               SgtVictimPolicy>(
      workload, [n] { return std::make_unique<SgtVictimPolicy>(n); },
      {"csr"},
      [&](const SgtVictimPolicy& policy, const EngineResult&) {
        EXPECT_FALSE(policy.graph().has_cycle());
      });
}

TEST_P(EngineDifferentialFuzz, ToKeepsPromisesAcrossThreads) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  for (bool thomas : {false, true}) {
    SweepThreads<std::function<std::unique_ptr<TimestampOrderingPolicy>()>,
                 TimestampOrderingPolicy>(
        workload,
        [n, thomas] {
          TimestampOrderingPolicy::Options options;
          options.thomas_write_rule = thomas;
          return std::make_unique<TimestampOrderingPolicy>(n, options);
        },
        {"csr"},
        [&](const TimestampOrderingPolicy& policy, const EngineResult&) {
          // TO never blocks; stamp hygiene at quiescence.
          EXPECT_EQ(policy.active_stamp_entries(), 0u);
        });
  }
}

TEST_P(EngineDifferentialFuzz, ThomasSkipLedgerAcrossThreads) {
  // The Thomas write rule under real threads: skipped writes are elided
  // from the committed trace, never silently committed — pinned by the
  // ledger identity total_ops + committed_skipped_ops == sum of script
  // lengths (every script op either reached the trace or was a skip of a
  // committed incarnation; aborted incarnations' ops are neither).
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  uint64_t script_ops = 0;
  for (const TxnScript& s : workload.scripts) script_ops += s.steps.size();
  SweepThreads<std::function<std::unique_ptr<TimestampOrderingPolicy>()>,
               TimestampOrderingPolicy>(
      workload,
      [n] {
        TimestampOrderingPolicy::Options options;
        options.thomas_write_rule = true;
        return std::make_unique<TimestampOrderingPolicy>(n, options);
      },
      {"csr"},
      [&](const TimestampOrderingPolicy& policy, const EngineResult& result) {
        EXPECT_EQ(result.total_ops + result.committed_skipped_ops,
                  script_ops)
            << "skip ledger does not balance at " << result.threads
            << " threads";
        EXPECT_EQ(result.schedule.size(), result.total_ops);
        // Skips of aborted incarnations count in skipped_ops but not in
        // the committed ledger.
        EXPECT_GE(result.skipped_ops, result.committed_skipped_ops);
        // A skipped write never reaches the trace: no transaction can
        // contribute more trace ops than its script has.
        std::vector<uint64_t> per_txn(n + 1, 0);
        for (const Operation& op : result.schedule.ops()) ++per_txn[op.txn];
        for (size_t i = 1; i <= n; ++i) {
          EXPECT_LE(per_txn[i], workload.scripts[i - 1].steps.size())
              << "T" << i << " has more trace ops than script steps";
        }
        EXPECT_EQ(policy.active_stamp_entries(), 0u);
      });
}

TEST_P(EngineDifferentialFuzz, Pw2plKeepsPromisesAcrossThreads) {
  Workload workload = DrawWorkload(GetParam());
  SweepThreads<std::function<std::unique_ptr<PredicatewiseTwoPhaseLocking>()>,
               PredicatewiseTwoPhaseLocking>(
      workload,
      [&workload] {
        return std::make_unique<PredicatewiseTwoPhaseLocking>(&*workload.ic);
      },
      {"pwsr"},
      [&](const PredicatewiseTwoPhaseLocking& policy, const EngineResult&) {
        EXPECT_EQ(policy.held_locks(), 0u);
      });
}

TEST_P(EngineDifferentialFuzz, DrSchedulerKeepsPromisesAcrossThreads) {
  Workload workload = DrawWorkload(GetParam());
  SweepThreads<std::function<std::unique_ptr<DelayedReadScheduler>()>,
               DelayedReadScheduler>(
      workload,
      [&workload] {
        return std::make_unique<DelayedReadScheduler>(&*workload.ic);
      },
      {"pwsr", "delayed-read"},
      [&](const DelayedReadScheduler& policy, const EngineResult&) {
        EXPECT_EQ(policy.held_locks(), 0u);
        EXPECT_EQ(policy.dirty_writers(), 0u);
      });
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialFuzz,
                         ::testing::ValuesIn(FuzzSeeds()));

// ---- engine unit coverage ---------------------------------------------------

TxnScript Script(std::initializer_list<AccessStep> steps) {
  TxnScript s;
  s.steps = steps;
  return s;
}

AccessStep R(ItemId item) { return AccessStep{OpAction::kRead, item}; }
AccessStep W(ItemId item) { return AccessStep{OpAction::kWrite, item}; }

TEST(EngineTest, SingleThreadCommitsEverythingInOrder) {
  StrictTwoPhaseLocking policy;
  auto result = RunEngine(
      policy, {Script({W(0), W(1)}), Script({W(0), W(2)}), Script({R(3)})},
      FastEngineConfig(1));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed, 3u);
  EXPECT_EQ(result->total_ops, 5u);
  EXPECT_EQ(result->schedule.size(), 5u);
  // One worker runs the scripts one after another: no waits, no aborts.
  EXPECT_EQ(result->wait_events, 0u);
  EXPECT_EQ(result->aborts, 0u);
  EXPECT_EQ(result->wounds, 0u);
  EXPECT_TRUE(result->throughput_tps > 0.0);
  EXPECT_EQ(policy.held_locks(), 0u);
}

TEST(EngineTest, ResolvesARealDeadlockUnderTwoThreads) {
  // The classic crossed pair under strict 2PL: with two workers the writes
  // interleave into a waits-for cycle eventually; the timed-out waiter
  // detects it and condemns the largest id, and both still commit.
  for (int round = 0; round < 8; ++round) {
    StrictTwoPhaseLocking policy;
    auto result = RunEngine(
        policy, {Script({W(0), W(1)}), Script({W(1), W(0)})},
        FastEngineConfig(2));
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->completed, 2u);
    EXPECT_TRUE(IsConflictSerializable(result->schedule));
    EXPECT_EQ(policy.held_locks(), 0u);
  }
}

TEST(EngineTest, BreaksEveryCycleOfAnUpgradeDeadlock) {
  // Nine copies of r0 w1 w0 on eight workers: the holder of item 1 waits
  // to upgrade item 0 while up to seven readers of item 0 wait on item 1,
  // one cycle per reader. Condemning one reader per detection pass lets
  // the first back from its backoff re-take its shared lock before the
  // last is condemned, a livelock that runs into the wall deadline; the
  // detector must condemn them all in one pass.
  const std::vector<TxnScript> scripts(9, Script({R(0), W(1), W(0)}));
  for (int round = 0; round < 40; ++round) {
    StrictTwoPhaseLocking policy;
    EngineConfig config = FastEngineConfig(8);
    config.max_wall_micros = 5'000'000;
    auto result = RunEngine(policy, scripts, config);
    ASSERT_TRUE(result.ok()) << "round " << round << ": " << result.status();
    EXPECT_EQ(result->completed, scripts.size());
    EXPECT_TRUE(IsConflictSerializable(result->schedule));
    EXPECT_EQ(policy.held_locks(), 0u);
  }
}

TEST(EngineTest, ExceedingWallDeadlineFails) {
  StrictTwoPhaseLocking policy;
  EngineConfig config = FastEngineConfig(1);
  config.op_latency_micros = 5000;
  config.max_wall_micros = 1000;  // one op overshoots the whole budget
  auto result = RunEngine(policy, {Script({W(0), W(1)})}, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(EngineTest, SlowLockHolderIsNotAStall) {
  // T1 holds the lock on item 0 through a 20 ms operation while T2 waits
  // on it, timing out every 100 us. T1 is running, so none of those
  // timeouts is a stall strike, however short the patience.
  for (int round = 0; round < 5; ++round) {
    StrictTwoPhaseLocking policy;
    EngineConfig config = FastEngineConfig(2);
    config.op_latency_micros = 20000;
    config.stall_patience = 2;
    auto result =
        RunEngine(policy, {Script({W(0), W(1)}), Script({W(0)})}, config);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->completed, 2u);
    EXPECT_EQ(policy.held_locks(), 0u);
  }
}

// The engine runs every RestartPolicy knob through the same governance as
// the simulator. All scripts arrive at once on the engine, so a shedding
// gate of g admits scripts 1..g, exactly as the simulator does with every
// arrival at tick 0; a queueing gate of 1 runs one transaction at a time;
// and the watchdog boosts chronic restarters of a hot spot until every
// transaction commits.
TEST(EngineTest, RunsWatchdogAndAdmissionGate) {
  std::vector<TxnScript> scripts;
  for (ItemId i = 0; i < 8; ++i) scripts.push_back(Script({W(i), R(i + 1)}));
  const auto committed = [](const Schedule& schedule) {
    std::set<TxnId> txns;
    for (const Operation& op : schedule.ops()) txns.insert(op.txn);
    return txns;
  };

  EngineConfig shed = FastEngineConfig(4);
  shed.restart.max_live_txns = 3;
  shed.restart.overflow = RestartPolicy::Overflow::kShed;
  StrictTwoPhaseLocking shed_policy;
  auto shed_run = RunEngine(shed_policy, scripts, shed);
  ASSERT_TRUE(shed_run.ok()) << shed_run.status();
  EXPECT_EQ(shed_run->shed, 5u);
  EXPECT_EQ(shed_run->completed, 3u);
  EXPECT_EQ(committed(shed_run->schedule), (std::set<TxnId>{1, 2, 3}));
  StrictTwoPhaseLocking sim_policy;
  auto sim_run = RunSimulation(sim_policy, scripts, shed);
  ASSERT_TRUE(sim_run.ok()) << sim_run.status();
  EXPECT_EQ(sim_run->shed, 5u);
  EXPECT_EQ(committed(sim_run->schedule), committed(shed_run->schedule));

  EngineConfig queue = FastEngineConfig(4);
  queue.op_latency_micros = 100;  // overlapping transactions would interleave
  queue.restart.max_live_txns = 1;
  StrictTwoPhaseLocking queue_policy;
  auto queue_run = RunEngine(queue_policy, scripts, queue);
  ASSERT_TRUE(queue_run.ok()) << queue_run.status();
  EXPECT_EQ(queue_run->completed, scripts.size());
  EXPECT_EQ(queue_run->shed, 0u);
  std::set<TxnId> finished;
  const OpSequence& ops = queue_run->schedule.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0 && ops[i].txn != ops[i - 1].txn) {
      EXPECT_TRUE(finished.insert(ops[i - 1].txn).second)
          << "T" << ops[i - 1].txn << " resumes after another transaction";
    }
  }
  EXPECT_EQ(finished.count(ops.back().txn), 0u);

  std::vector<TxnScript> hot;
  for (int i = 0; i < 24; ++i) hot.push_back(Script({R(0), W(0)}));
  EngineConfig watchdog = FastEngineConfig(4);
  watchdog.op_latency_micros = 100;
  watchdog.restart.max_restarts_before_boost = 1;
  TimestampOrderingPolicy to_policy(hot.size());
  auto to_run = RunEngine(to_policy, hot, watchdog);
  ASSERT_TRUE(to_run.ok()) << to_run.status();
  EXPECT_GT(to_run->boosts, 0u);
  EXPECT_EQ(to_run->completed, hot.size());
  EXPECT_EQ(to_policy.active_stamp_entries(), 0u);
  EXPECT_TRUE(IsConflictSerializable(to_run->schedule));
}

TEST(EngineConfigTest, ValidateAcceptsConsistentKnobs) {
  EngineConfig config;
  config.threads = 4;
  config.op_latency_micros = 50;
  config.wait_timeout_micros = 100;
  EXPECT_TRUE(config.Validate().ok()) << config.Validate();
}

/// The status code Validate() gives `config` after `edit`.
template <typename Edit>
StatusCode ValidateCode(Edit edit) {
  EngineConfig config;
  edit(config);
  return config.Validate().code();
}

TEST(EngineConfigTest, ValidateRejectsInconsistentKnobs) {
  EXPECT_EQ(ValidateCode([](EngineConfig& c) { c.threads = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateCode([](EngineConfig& c) { c.max_ticks = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateCode([](EngineConfig& c) { c.wait_timeout_micros = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateCode([](EngineConfig& c) { c.max_wall_micros = 0; }),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(ValidateCode([](EngineConfig& c) {
              c.restart.base = 16;  // capped below base
              c.restart.cap = 2;
            }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateCode([](EngineConfig& c) {
              c.restart.backoff = RestartPolicy::Backoff::kExponential;
              c.restart.base = 0;  // 0 << n never backs off
              c.restart.cap = 0;
            }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateCode([](EngineConfig& c) {
              c.restart.jitter = 4;  // jitter with the unseeded value
              c.restart.jitter_seed = 0;
            }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateCode([](EngineConfig& c) {
              c.restart.overflow = RestartPolicy::Overflow::kShed;
              c.restart.max_live_txns = 0;  // shed without a gate
            }),
            StatusCode::kInvalidArgument);
}

// The engine sleeps delay * backoff_unit_micros: a cap whose product with
// the unit does not fit the clock's microseconds is a typed error, not a
// wrapped (short or negative, hence skipped) sleep. Validate only; nothing
// sleeps here.
TEST(EngineConfigTest, ValidateRejectsBackoffCapOverflowingTheSleep) {
  const uint64_t max_sleep = static_cast<uint64_t>(INT64_MAX);
  EXPECT_EQ(ValidateCode([](EngineConfig& c) {
              c.restart.backoff = RestartPolicy::Backoff::kFixed;
              c.restart.base = UINT64_MAX;
              c.restart.cap = UINT64_MAX;
            }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateCode([max_sleep](EngineConfig& c) {
              c.backoff_unit_micros = 20;
              c.restart.cap = max_sleep / 20 + 1;
            }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateCode([max_sleep](EngineConfig& c) {
              c.backoff_unit_micros = 20;
              c.restart.cap = max_sleep / 20;  // the largest cap that fits
            }),
            StatusCode::kOk);
  EXPECT_EQ(ValidateCode([](EngineConfig& c) {
              c.backoff_unit_micros = 0;  // no sleep at all
              c.restart.cap = UINT64_MAX;
            }),
            StatusCode::kOk);
  EXPECT_EQ(ValidateCode([](EngineConfig& c) {
              c.restart.backoff = RestartPolicy::Backoff::kImmediate;
              c.restart.cap = UINT64_MAX;  // unused without a shape
            }),
            StatusCode::kOk);
}

TEST(EngineConfigTest, DefaultConfigValidatesAndMatchesLegacyKnobs) {
  EngineConfig config;
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.max_ticks, 1'000'000u);
  EXPECT_EQ(config.stall_patience, 64u);
  EXPECT_EQ(config.restart.base, 2u);
  EXPECT_EQ(config.restart.step, 4u);
  EXPECT_EQ(config.restart.cap, 128u);
  EXPECT_EQ(config.threads, 1u);
}

TEST(EngineConfigTest, ExponentialBackoffSaturatesAtTheCap) {
  RestartPolicy rp;
  rp.backoff = RestartPolicy::Backoff::kExponential;
  rp.base = 1;
  rp.cap = UINT64_MAX;
  EXPECT_EQ(RestartBackoffDelay(rp, 1, 64), uint64_t{1} << 63);
  // One more doubling would wrap (to 0 by n = 65); it saturates instead,
  // so a chronic restarter never drops to zero backoff.
  EXPECT_EQ(RestartBackoffDelay(rp, 1, 65), UINT64_MAX);
  EXPECT_EQ(RestartBackoffDelay(rp, 1, 70), UINT64_MAX);
  EXPECT_EQ(RestartBackoffDelay(rp, 1, UINT64_MAX), UINT64_MAX);
  rp.cap = 100;  // an ordinary cap is still hit exactly
  EXPECT_EQ(RestartBackoffDelay(rp, 1, 7), 64u);
  EXPECT_EQ(RestartBackoffDelay(rp, 1, 8), 100u);
}

TEST(EngineConfigTest, LinearBackoffSaturatesAtTheCap) {
  RestartPolicy rp;
  rp.backoff = RestartPolicy::Backoff::kLinear;
  rp.base = 2;
  rp.step = uint64_t{1} << 62;
  rp.cap = UINT64_MAX;
  EXPECT_EQ(RestartBackoffDelay(rp, 1, 3), 2 + 3 * (uint64_t{1} << 62));
  // step * n wraps from n = 4 on; the delay stays at the cap.
  EXPECT_EQ(RestartBackoffDelay(rp, 1, 4), UINT64_MAX);
  EXPECT_EQ(RestartBackoffDelay(rp, 1, 1'000'000), UINT64_MAX);
  rp.step = UINT64_MAX;
  EXPECT_EQ(RestartBackoffDelay(rp, 1, 2), UINT64_MAX);
  // The legacy default is unchanged: min(2 + 4n, 128).
  EXPECT_EQ(RestartBackoffDelay(RestartPolicy{}, 1, 3), 14u);
  EXPECT_EQ(RestartBackoffDelay(RestartPolicy{}, 1, 40), 128u);
}

TEST(EngineConfigTest, FullRangeJitterIsTotal) {
  EngineConfig config;
  config.restart.jitter = UINT64_MAX;  // the bound jitter + 1 wraps to 0
  ASSERT_TRUE(config.Validate().ok());
  const RestartPolicy& rp = config.restart;
  for (uint64_t n = 1; n <= 16; ++n) {
    const uint64_t delay = RestartBackoffDelay(rp, 3, n);
    // The draw rides on the linear shape and saturates instead of wrapping.
    EXPECT_GE(delay, std::min<uint64_t>(2 + 4 * n, 128)) << "n " << n;
    EXPECT_EQ(delay, RestartBackoffDelay(rp, 3, n)) << "pure function";
  }
  RestartPolicy big = rp;
  big.backoff = RestartPolicy::Backoff::kFixed;
  big.base = UINT64_MAX;
  big.cap = UINT64_MAX;
  EXPECT_EQ(RestartBackoffDelay(big, 3, 1), UINT64_MAX);
}

TEST(EngineShardedStoreTest, ReadsBackWritesAndRejectsOutOfRange) {
  ShardedValueStore store(4);
  for (ItemId item = 0; item < 4; ++item) {
    auto zero = store.Read(item);
    ASSERT_TRUE(zero.ok());
    EXPECT_EQ(*zero, 0);
  }
  ASSERT_TRUE(store.Write(2, 41).ok());
  auto value = store.Read(2);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 41);

  // A write returns what it replaced; Undo restores it only while the
  // undone write is still the newest.
  auto prior = store.Write(2, 42);
  ASSERT_TRUE(prior.ok());
  EXPECT_EQ(*prior, 41);
  store.Undo(2, 42, 41);
  EXPECT_EQ(*store.Read(2), 41);
  ASSERT_TRUE(store.Write(2, 43).ok());
  store.Undo(2, 42, 41);
  EXPECT_EQ(*store.Read(2), 43);

  EXPECT_EQ(store.Read(4).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(store.Write(4, 1).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace nse
