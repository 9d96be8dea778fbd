// Chaos differential harness: the safety-under-faults counterpart of
// policy_differential_test.cc. For K seeds, a randomized workload is run
// under every scheduler policy × a set of fault plans (injected client
// aborts, terminal crash-at-op, latency spikes, arrival perturbation)
// combined with adversarial restart governance (exponential backoff with
// jitter, starvation watchdog, admission gate), and four contracts are
// pinned:
//
//   1. class safety  — the committed trace still verifies against the
//      policy's promised class via the independent CheckerRegistry
//      checkers (CSR / strict / PWSR / DR), faults notwithstanding;
//   2. forward progress — every transaction the faults did not crash (and
//      the gate did not shed) commits: completed + crashes + shed == n;
//   3. no residual state — at quiescence the policy leaked nothing: zero
//      held locks, zero active stamp entries, live SGT graph == the
//      committed trace's conflict graph;
//   4. determinism — the same seed and plan replayed against a fresh
//      policy instance produces a bit-identical committed schedule and
//      identical counters.
//
// Both drivers step transactions through the same TxnRunner, which is
// where faults are injected, and run the same restart governance in its
// RunContext, so every profile also runs on the threaded engine at 1 and
// 4 workers. There contracts 1–3 are pinned; the engine's event counters
// are nondeterministic, so counter checks stay on the simulator.
//
// Faults reach the policies only through the drivers' shared Abort /
// restart machinery, so this sweep is precisely what exercises every
// policy's retraction path (lock release, ConflictAccessIndex::Erase,
// RemoveEdgesOf, stamp erasure) under fire.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis_context.h"
#include "analysis/checker.h"
#include "analysis/conflict_graph.h"
#include "analysis/multiversion.h"
#include "analysis/robustness.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "fuzz_env.h"
#include "scheduler/dr_scheduler.h"
#include "scheduler/fault_injection.h"
#include "scheduler/mvto_policy.h"
#include "scheduler/priority_locking.h"
#include "scheduler/pw_two_phase_locking.h"
#include "scheduler/sgt_policy.h"
#include "scheduler/sgt_victim_policy.h"
#include "scheduler/sim.h"
#include "scheduler/snapshot_isolation.h"
#include "scheduler/timestamp_ordering.h"
#include "scheduler/two_phase_locking.h"
#include "scheduler/workload.h"

namespace nse {
namespace {

std::vector<uint64_t> FuzzSeeds() {
  std::vector<uint64_t> seeds;
  for (uint64_t s = 1; s <= FuzzSeedCount(4); ++s) seeds.push_back(s);
  return seeds;
}

/// Same workload sweep as the fault-free differential harness.
Workload DrawWorkload(uint64_t seed) {
  Rng knobs = Rng(seed).Split(0);
  PartitionedWorkloadConfig config;
  config.num_partitions = 2 + knobs.NextBelow(4);           // 2..5
  config.items_per_partition = 1 + knobs.NextBelow(3);      // 1..3
  config.num_txns = 4 + knobs.NextBelow(7);                 // 4..10
  config.partitions_per_txn =
      1 + knobs.NextBelow(config.num_partitions);           // script length
  config.cross_read_probability = knobs.NextDouble();
  config.hotspot_probability = 0.3 * knobs.NextBelow(4);    // 0, .3, .6, .9
  config.arrival_spread = knobs.NextBelow(3) * 4;           // 0, 4, 8
  config.seed = seed;
  auto workload = MakePartitionedWorkload(config);
  EXPECT_TRUE(workload.ok()) << workload.status();
  return std::move(workload).value();
}

/// One fault plan × restart-governance combination of the sweep.
struct ChaosSetup {
  const char* label;
  FaultPlanConfig faults;
  RestartPolicy restart;
};

/// Four adversity profiles per seed, each plan keyed off the sweep seed
/// so every seed sees different fault placements.
std::vector<ChaosSetup> ChaosSetups(uint64_t seed) {
  ChaosSetup aborts;
  aborts.label = "client-aborts+exp-backoff";
  aborts.faults.seed = seed * 3 + 1;
  aborts.faults.client_abort_probability = 0.6;
  aborts.faults.max_client_aborts_per_txn = 2;
  aborts.restart.backoff = RestartPolicy::Backoff::kExponential;
  aborts.restart.base = 2;
  aborts.restart.cap = 32;
  aborts.restart.jitter = 3;
  aborts.restart.jitter_seed = seed + 7;

  ChaosSetup crashes;
  crashes.label = "crashes+latency+arrival";
  crashes.faults.seed = seed * 3 + 2;
  crashes.faults.crash_probability = 0.3;
  crashes.faults.latency_spike_probability = 0.35;
  crashes.faults.max_latency_spike_ticks = 5;
  crashes.faults.max_arrival_delay = 5;

  ChaosSetup full;
  full.label = "full-chaos+watchdog+gate";
  full.faults.seed = seed * 3 + 3;
  full.faults.client_abort_probability = 0.4;
  full.faults.max_client_aborts_per_txn = 2;
  full.faults.crash_probability = 0.2;
  full.faults.latency_spike_probability = 0.25;
  full.faults.max_latency_spike_ticks = 4;
  full.faults.max_arrival_delay = 4;
  full.restart.backoff = RestartPolicy::Backoff::kFixed;
  full.restart.base = 3;
  full.restart.max_restarts_before_boost = 6;
  full.restart.max_live_txns = 3;  // kQueue: nothing is shed

  // The watchdog at its most eager, with no gate to thin the contention:
  // a gate of 3 live transactions is what hid the livelocks of boosted
  // wound and deadlock victims that re-entered at once.
  ChaosSetup watchdog;
  watchdog.label = "client-aborts+watchdog";
  watchdog.faults.seed = seed * 7 + 5;
  watchdog.faults.client_abort_probability = 0.4;
  watchdog.faults.max_client_aborts_per_txn = 2;
  watchdog.restart.max_restarts_before_boost = 1;

  return {aborts, crashes, full, watchdog};
}

const size_t kEngineThreads[] = {1, 4};

/// Runs `checker_name` against the committed schedule and asserts it is
/// satisfied.
void ExpectClass(const Workload& workload, const Schedule& schedule,
                 std::string_view checker_name, std::string_view policy,
                 const std::string& where) {
  AnalysisContext ctx(*workload.ic, schedule);
  auto result = CheckerRegistry::BuiltIn().Run(checker_name, ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->verdict, Verdict::kSatisfied)
      << policy << " under " << where << " broke its " << checker_name
      << " promise: " << result->ToString() << "\nschedule:\n"
      << schedule.ToString(workload.db);
}

/// Forward progress: every non-crashed, non-shed transaction committed,
/// and the trace holds operations of committed transactions only.
void ExpectForwardProgress(const RunResult& result, size_t num_txns,
                           const std::string& where) {
  EXPECT_EQ(result.completed + result.crashes + result.shed, num_txns)
      << "a transaction neither committed nor crashed nor was shed under "
      << where;
  std::set<TxnId> in_trace;
  for (const Operation& op : result.schedule.ops()) in_trace.insert(op.txn);
  EXPECT_LE(in_trace.size(), result.completed)
      << "trace holds operations of uncommitted transactions under "
      << where;
}

/// Bit-identical replay: every counter equal and the committed schedules
/// operation-for-operation identical.
void ExpectBitIdentical(const SimResult& a, const SimResult& b,
                        const char* setup) {
  EXPECT_EQ(a.makespan, b.makespan) << setup;
  EXPECT_EQ(a.completed, b.completed) << setup;
  EXPECT_EQ(a.aborts, b.aborts) << setup;
  EXPECT_EQ(a.restarts, b.restarts) << setup;
  EXPECT_EQ(a.wounds, b.wounds) << setup;
  EXPECT_EQ(a.vetoes, b.vetoes) << setup;
  EXPECT_EQ(a.skipped_ops, b.skipped_ops) << setup;
  EXPECT_EQ(a.committed_skipped_ops, b.committed_skipped_ops) << setup;
  EXPECT_EQ(a.fault_aborts, b.fault_aborts) << setup;
  EXPECT_EQ(a.crashes, b.crashes) << setup;
  EXPECT_EQ(a.shed, b.shed) << setup;
  EXPECT_EQ(a.boosts, b.boosts) << setup;
  EXPECT_EQ(a.backoff_ticks, b.backoff_ticks) << setup;
  EXPECT_EQ(a.latency_spike_ticks, b.latency_spike_ticks) << setup;
  EXPECT_EQ(a.max_txn_restarts, b.max_txn_restarts) << setup;
  EXPECT_EQ(a.total_wait_ticks, b.total_wait_ticks) << setup;
  EXPECT_EQ(a.total_ops, b.total_ops) << setup;
  EXPECT_TRUE(a.schedule.ops() == b.schedule.ops())
      << "same seed, different committed schedule under " << setup;
  EXPECT_EQ(a.read_sources, b.read_sources)
      << "same seed, different version annotations under " << setup;
  EXPECT_EQ(a.txn_restarts, b.txn_restarts) << setup;
}

/// Runs the workload under `setup` on the simulator twice (fresh policy
/// per run via `make`), asserting determinism and forward progress, then
/// on the engine at every kEngineThreads count, asserting forward
/// progress. `check(policy,
/// result, where)` gets every run's result with its policy at quiescence,
/// for the class and residual-state checks. Returns the first simulator
/// result for simulator-only counter checks.
template <typename MakePolicy, typename Check>
SimResult RunChaos(const Workload& workload, const ChaosSetup& setup,
                   MakePolicy make, Check check) {
  const size_t n = workload.scripts.size();
  FaultPlan plan(setup.faults);
  EngineConfig config;
  config.restart = setup.restart;
  config.faults = &plan;

  auto policy = make();
  auto result = RunSimulation(*policy, workload.scripts, config);
  EXPECT_TRUE(result.ok()) << setup.label << ": " << result.status();
  if (!result.ok()) return SimResult{};
  auto replay_policy = make();
  auto replay = RunSimulation(*replay_policy, workload.scripts, config);
  EXPECT_TRUE(replay.ok()) << setup.label << ": " << replay.status();
  if (replay.ok()) ExpectBitIdentical(*result, *replay, setup.label);
  const std::string sim_where = std::string("sim, ") + setup.label;
  ExpectForwardProgress(*result, n, sim_where);
  check(*policy, *result, sim_where);

  config.wait_timeout_micros = 100;  // brisk deadlock-detector cadence
  config.backoff_unit_micros = 5;    // tiny workloads: short real sleeps
  for (size_t threads : kEngineThreads) {
    config.threads = threads;
    const std::string where = std::string("engine x") +
                              std::to_string(threads) + ", " + setup.label;
    auto engine_policy = make();
    auto run = RunEngine(*engine_policy, workload.scripts, config);
    EXPECT_TRUE(run.ok()) << where << ": " << run.status();
    if (!run.ok()) continue;
    ExpectForwardProgress(*run, n, where);
    check(*engine_policy, *run, where);
  }
  return *std::move(result);
}

class ChaosDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosDifferentialFuzz, Strict2plSafeUnderFaults) {
  Workload workload = DrawWorkload(GetParam());
  for (const ChaosSetup& setup : ChaosSetups(GetParam())) {
    RunChaos(workload, setup,
             [] { return std::make_unique<StrictTwoPhaseLocking>(); },
             [&](const StrictTwoPhaseLocking& policy, const RunResult& result,
                 const std::string& where) {
               ExpectClass(workload, result.schedule, "csr", "strict-2pl",
                           where);
               ExpectClass(workload, result.schedule, "delayed-read",
                           "strict-2pl", where);
               AnalysisContext strict_ctx(*workload.ic, result.schedule);
               EXPECT_TRUE(strict_ctx.strict()) << where;
               EXPECT_EQ(policy.held_locks(), 0u) << where;
             });
  }
}

/// Crash/abort hygiene of the SGT family: whatever the faults retracted
/// left no residual edges — the live graph equals the committed trace's
/// conflict graph.
template <typename Policy>
void ExpectSgtGraphHygiene(const Policy& policy, const RunResult& result,
                           const std::string& where) {
  EXPECT_FALSE(policy.graph().has_cycle()) << where;
  EXPECT_EQ(policy.graph().Edges(),
            ConflictGraph::Build(result.schedule).Edges())
      << where;
}

TEST_P(ChaosDifferentialFuzz, SgtSafeUnderFaults) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  for (const ChaosSetup& setup : ChaosSetups(GetParam())) {
    RunChaos(workload, setup, [n] { return std::make_unique<SgtPolicy>(n); },
             [&](const SgtPolicy& policy, const RunResult& result,
                 const std::string& where) {
               ExpectClass(workload, result.schedule, "csr", "sgt", where);
               ExpectSgtGraphHygiene(policy, result, where);
             });
  }
}

TEST_P(ChaosDifferentialFuzz, SgtVictimSafeUnderFaults) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  for (const ChaosSetup& setup : ChaosSetups(GetParam())) {
    RunChaos(workload, setup,
             [n] { return std::make_unique<SgtVictimPolicy>(n); },
             [&](const SgtVictimPolicy& policy, const RunResult& result,
                 const std::string& where) {
               ExpectClass(workload, result.schedule, "csr", "sgt-victim",
                           where);
               ExpectSgtGraphHygiene(policy, result, where);
             });
  }
}

/// Class and residual checks of the two strict deadlock-free 2PL variants.
template <typename Policy>
void ExpectStrictLocking(const Workload& workload, const Policy& policy,
                         const RunResult& result, const std::string& where) {
  ExpectClass(workload, result.schedule, "csr", policy.name(), where);
  AnalysisContext strict_ctx(*workload.ic, result.schedule);
  EXPECT_TRUE(strict_ctx.strict()) << where;
  EXPECT_EQ(policy.held_locks(), 0u) << where;
}

TEST_P(ChaosDifferentialFuzz, WoundWaitSafeUnderFaults) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  for (const ChaosSetup& setup : ChaosSetups(GetParam())) {
    SimResult sim = RunChaos(
        workload, setup, [n] { return std::make_unique<WoundWaitPolicy>(n); },
        [&](const WoundWaitPolicy& policy, const RunResult& result,
            const std::string& where) {
          ExpectStrictLocking(workload, policy, result, where);
        });
    // Deadlock freedom survives faults: waits still only point young->old.
    EXPECT_EQ(sim.aborts, 0u) << setup.label;
    EXPECT_EQ(sim.restarts, 0u) << setup.label;
  }
}

TEST_P(ChaosDifferentialFuzz, WaitDieSafeUnderFaults) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  for (const ChaosSetup& setup : ChaosSetups(GetParam())) {
    SimResult sim = RunChaos(
        workload, setup, [n] { return std::make_unique<WaitDiePolicy>(n); },
        [&](const WaitDiePolicy& policy, const RunResult& result,
            const std::string& where) {
          ExpectStrictLocking(workload, policy, result, where);
        });
    EXPECT_EQ(sim.aborts, 0u) << setup.label;
    EXPECT_EQ(sim.wounds, 0u) << setup.label;
  }
}

TEST_P(ChaosDifferentialFuzz, ToSafeUnderFaults) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  for (bool thomas : {false, true}) {
    for (const ChaosSetup& setup : ChaosSetups(GetParam())) {
      SimResult sim = RunChaos(
          workload, setup,
          [n, thomas] {
            TimestampOrderingPolicy::Options options;
            options.thomas_write_rule = thomas;
            return std::make_unique<TimestampOrderingPolicy>(n, options);
          },
          [&](const TimestampOrderingPolicy& policy, const RunResult& result,
              const std::string& where) {
            ExpectClass(workload, result.schedule, "csr", policy.name(),
                        where);
            // Stamp hygiene: every active-incarnation entry was folded at
            // commit or erased by an abort/crash.
            EXPECT_EQ(policy.active_stamp_entries(), 0u) << where;
            // The committed conflict graph still embeds in timestamp order.
            ConflictGraph graph = ConflictGraph::Build(result.schedule);
            for (const auto& [from, to] : graph.Edges()) {
              ASSERT_TRUE(policy.timestamp(from).has_value());
              ASSERT_TRUE(policy.timestamp(to).has_value());
              EXPECT_LT(*policy.timestamp(from), *policy.timestamp(to))
                  << policy.name() << " conflict edge T" << from << " -> T"
                  << to << " against timestamp order under " << where;
            }
          });
      // TO never blocks, faults or not.
      EXPECT_EQ(sim.aborts, 0u) << setup.label;
      EXPECT_EQ(sim.total_wait_ticks, 0u) << setup.label;
    }
  }
}

TEST_P(ChaosDifferentialFuzz, Pw2plSafeUnderFaults) {
  Workload workload = DrawWorkload(GetParam());
  for (const ChaosSetup& setup : ChaosSetups(GetParam())) {
    RunChaos(workload, setup,
             [&workload] {
               return std::make_unique<PredicatewiseTwoPhaseLocking>(
                   &*workload.ic);
             },
             [&](const PredicatewiseTwoPhaseLocking& policy,
                 const RunResult& result, const std::string& where) {
               ExpectClass(workload, result.schedule, "pwsr", "pw-2pl",
                           where);
               EXPECT_EQ(policy.held_locks(), 0u) << where;
             });
  }
}

TEST_P(ChaosDifferentialFuzz, DrSchedulerSafeUnderFaults) {
  Workload workload = DrawWorkload(GetParam());
  for (const ChaosSetup& setup : ChaosSetups(GetParam())) {
    RunChaos(workload, setup,
             [&workload] {
               return std::make_unique<DelayedReadScheduler>(&*workload.ic);
             },
             [&](const DelayedReadScheduler& policy, const RunResult& result,
                 const std::string& where) {
               ExpectClass(workload, result.schedule, "pwsr", "pw-2pl+dr",
                           where);
               ExpectClass(workload, result.schedule, "delayed-read",
                           "pw-2pl+dr", where);
               EXPECT_EQ(policy.held_locks(), 0u) << where;
               EXPECT_EQ(policy.dirty_writers(), 0u) << where;
             });
  }
}

/// MVSR under faults: the committed trace with its version annotations
/// verifies against the mvsr checker (the multiversion promised class).
void ExpectMvsrClass(const Workload& workload, const RunResult& result,
                     std::string_view policy, const std::string& where) {
  VersionAnnotations versions;
  versions.read_from = result.read_sources;
  AnalysisOptions options;
  options.versions = &versions;
  AnalysisContext ctx(result.schedule, options);
  auto check = CheckerRegistry::BuiltIn().Run("mvsr", ctx);
  ASSERT_TRUE(check.ok()) << check.status();
  EXPECT_EQ(check->verdict, Verdict::kSatisfied)
      << policy << " under " << where
      << " broke its mvsr promise: " << check->ToString() << "\nschedule:\n"
      << result.schedule.ToString(workload.db);
}

TEST_P(ChaosDifferentialFuzz, MvtoSafeUnderFaults) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  for (const ChaosSetup& setup : ChaosSetups(GetParam())) {
    SimResult sim = RunChaos(
        workload, setup, [n] { return std::make_unique<MvtoPolicy>(n); },
        [&](const MvtoPolicy& policy, const RunResult& result,
            const std::string& where) {
          ExpectMvsrClass(workload, result, "mvto", where);
          // Retraction hygiene: crashed and aborted incarnations removed
          // their versions and stamps; nothing uncommitted survives
          // quiescence.
          EXPECT_EQ(policy.active_stamp_entries(), 0u) << where;
          EXPECT_EQ(policy.store().uncommitted_versions(), 0u) << where;
        });
    // MVTO is deadlock-free (waits only point reader -> writer), faults
    // or not: no deadlock victims, ever.
    EXPECT_EQ(sim.aborts, 0u) << setup.label;
  }
}

TEST_P(ChaosDifferentialFuzz, SnapshotIsolationSafeUnderFaults) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  for (const ChaosSetup& setup : ChaosSetups(GetParam())) {
    RunChaos(workload, setup,
             [n] { return std::make_unique<SnapshotIsolationPolicy>(n); },
             [&](const SnapshotIsolationPolicy& policy,
                 const RunResult& result, const std::string& where) {
               // SI promises MVSR only on robustness-certified committed
               // sets; the structural contracts below are unconditional.
               if (CheckSiRobustness(result.schedule).robust) {
                 ExpectMvsrClass(workload, result, "snapshot-isolation",
                                 where);
               }
               EXPECT_EQ(policy.active_snapshots(), 0u) << where;
               EXPECT_EQ(policy.pending_writes(), 0u) << where;
               EXPECT_EQ(policy.held_write_claims(), 0u) << where;
               EXPECT_EQ(policy.store().uncommitted_versions(), 0u) << where;
             });
  }
}

// Shedding profile: drive every policy through an admission gate that
// drops overflow, and pin the forward-progress ledger (completed + crashes
// + shed == n) plus shed determinism. Class checks still apply — a shed
// transaction never ran, so it cannot endanger the committed trace.
TEST_P(ChaosDifferentialFuzz, SheddingGateKeepsLedgerAndSafety) {
  Workload workload = DrawWorkload(GetParam());
  ChaosSetup setup;
  setup.label = "shedding-gate";
  setup.faults.seed = GetParam() * 5 + 4;
  setup.faults.client_abort_probability = 0.3;
  setup.faults.crash_probability = 0.15;
  setup.restart.max_live_txns = 2;
  setup.restart.overflow = RestartPolicy::Overflow::kShed;
  SimResult result = RunChaos(
      workload, setup,
      [] { return std::make_unique<StrictTwoPhaseLocking>(); },
      [&](const StrictTwoPhaseLocking& policy, const RunResult& run,
          const std::string& where) {
        ExpectClass(workload, run.schedule, "csr", "strict-2pl", where);
        EXPECT_EQ(policy.held_locks(), 0u) << where;
      });
  // The gate actually bites when more transactions arrive on one tick than
  // it has slots (scripts are non-empty, so slots cannot free same-tick).
  std::map<uint64_t, size_t> arrivals_at;
  size_t peak = 0;
  for (const TxnScript& s : workload.scripts) {
    peak = std::max(peak, ++arrivals_at[s.arrival_tick]);
  }
  if (peak > 2) EXPECT_GT(result.shed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosDifferentialFuzz,
                         ::testing::ValuesIn(FuzzSeeds()));

}  // namespace
}  // namespace nse
