// MVCC differential harness: the multiversion counterpart of the engine
// and chaos differential sweeps. For K seeds, a randomized workload is run
// under the two version-store policies (MVTO, snapshot isolation) on both
// drivers — the deterministic tick simulator and the real multithreaded
// engine across worker counts {1, 2, 4, 8} — and the multiversion
// contracts are pinned:
//
//   1. class safety — the committed trace, with its reads-from pinned by
//      the drivers' version annotations (read_sources), verifies MVSR via
//      the independent mvsr checker. For MVTO that is unconditional; for
//      SI it is gated on the VKN robustness certificate (write skew is
//      admitted by design on uncertified workloads);
//   2. readers never pay — read-only transactions never restart
//      (txn_restarts pinned to 0), under either policy and driver;
//   3. no residual state — at quiescence the policies leaked nothing:
//      zero active stamps/snapshots, zero buffered writes, zero held
//      claims, zero uncommitted versions, and every chain truncated down
//      to its single survivor;
//   4. determinism — the simulator replays bit-identically, version
//      annotations and per-transaction restart ledgers included.

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis_context.h"
#include "analysis/checker.h"
#include "analysis/multiversion.h"
#include "analysis/robustness.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "fuzz_env.h"
#include "scheduler/mvto_policy.h"
#include "scheduler/sim.h"
#include "scheduler/snapshot_isolation.h"
#include "scheduler/timestamp_ordering.h"
#include "scheduler/workload.h"
#include "state/version_store.h"
#include "trace_order.h"

namespace nse {
namespace {

const size_t kThreadCounts[] = {1, 2, 4, 8};

std::vector<uint64_t> FuzzSeeds() {
  std::vector<uint64_t> seeds;
  for (uint64_t s = 1; s <= FuzzSeedCount(3); ++s) seeds.push_back(s);
  return seeds;
}

/// Same workload family as the other differential harnesses (zero arrival
/// spread so both drivers see identical scripts).
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

bool ReadOnly(const TxnScript& script) {
  for (const AccessStep& step : script.steps) {
    if (step.action == OpAction::kWrite) return false;
  }
  return true;
}

uint64_t ScriptOps(const Workload& workload) {
  uint64_t total = 0;
  for (const TxnScript& script : workload.scripts) {
    total += script.steps.size();
  }
  return total;
}

/// Runs the mvsr checker with the driver's version annotations threaded
/// through AnalysisOptions and asserts the verdict.
void ExpectAnnotatedMvsr(const Workload& workload, const Schedule& schedule,
                         const std::vector<std::optional<TxnId>>& read_sources,
                         Verdict expected, std::string_view policy,
                         const std::string& where) {
  VersionAnnotations versions;
  versions.read_from = read_sources;
  AnalysisOptions options;
  options.versions = &versions;
  AnalysisContext ctx(schedule, options);
  auto result = CheckerRegistry::BuiltIn().Run("mvsr", ctx);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->verdict, expected)
      << policy << " (" << where << "): " << result->ToString()
      << "\nschedule:\n"
      << schedule.ToString(workload.db);
}

/// Read-only transactions never restart under a multiversion policy.
void ExpectReadOnlyNeverRestarts(const Workload& workload,
                                 const std::vector<uint64_t>& txn_restarts,
                                 std::string_view policy,
                                 const std::string& where) {
  ASSERT_EQ(txn_restarts.size(), workload.scripts.size());
  for (size_t i = 0; i < workload.scripts.size(); ++i) {
    if (!ReadOnly(workload.scripts[i])) continue;
    EXPECT_EQ(txn_restarts[i], 0u)
        << policy << " (" << where << ") restarted read-only T" << i + 1;
  }
}

/// The version plane at quiescence: nothing uncommitted, every chain
/// truncated down to its single survivor.
void ExpectVersionPlaneQuiescent(const VersionStore& store,
                                 std::string_view policy,
                                 const std::string& where) {
  EXPECT_EQ(store.uncommitted_versions(), 0u)
      << policy << " (" << where << ") leaked uncommitted versions";
  EXPECT_LE(store.max_chain_length(), 1u)
      << policy << " (" << where << ") left untruncated chains";
}

/// Forward-progress ledger plus trace hygiene (engine runs).
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
/// shared multiversion contracts; policy-specific checks at the call site.
template <typename MakePolicy,
          typename Policy =
              std::decay_t<decltype(*std::declval<MakePolicy>()())>>
void SweepThreads(
    const Workload& workload, MakePolicy make,
    const std::function<void(const Policy&, const EngineResult&,
                             const std::string&)>& checks) {
  for (size_t threads : kThreadCounts) {
    auto policy = make();
    auto result =
        RunEngine(*policy, workload.scripts, FastEngineConfig(threads));
    ASSERT_TRUE(result.ok()) << policy->name() << " at " << threads
                             << " threads: " << result.status();
    ExpectForwardProgress(*result, workload.scripts.size(), threads);
    const std::string where =
        "engine, " + std::to_string(threads) + " threads";
    // Multiversion policies never skip: the trace holds every scripted op.
    EXPECT_EQ(result->skipped_ops, 0u) << policy->name() << " " << where;
    EXPECT_EQ(result->total_ops, ScriptOps(workload))
        << policy->name() << " " << where;
    ExpectReadOnlyNeverRestarts(workload, result->txn_restarts,
                                policy->name(), where);
    checks(*policy, *result, where);
  }
}

class MvccDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MvccDifferentialFuzz, MvtoKeepsPromisesAcrossThreads) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  SweepThreads<std::function<std::unique_ptr<MvtoPolicy>()>, MvtoPolicy>(
      workload, [n] { return std::make_unique<MvtoPolicy>(n); },
      [&](const MvtoPolicy& policy, const EngineResult& result,
          const std::string& where) {
        // The promised class: MVSR, verified through the trace's version
        // annotations (not assumed from the policy's construction).
        ExpectAnnotatedMvsr(workload, result.schedule, result.read_sources,
                            Verdict::kSatisfied, policy.name(), where);
        EXPECT_EQ(policy.active_stamp_entries(), 0u) << where;
        ExpectVersionPlaneQuiescent(policy.store(), policy.name(), where);
      });
}

TEST_P(MvccDifferentialFuzz, SnapshotIsolationKeepsPromisesAcrossThreads) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();
  SweepThreads<std::function<std::unique_ptr<SnapshotIsolationPolicy>()>,
               SnapshotIsolationPolicy>(
      workload,
      [n] { return std::make_unique<SnapshotIsolationPolicy>(n); },
      [&](const SnapshotIsolationPolicy& policy, const EngineResult& result,
          const std::string& where) {
        // SI's class promise is conditional: MVSR exactly when the VKN
        // robustness certificate holds for the committed transactions.
        if (CheckSiRobustness(result.schedule).robust) {
          ExpectAnnotatedMvsr(workload, result.schedule, result.read_sources,
                              Verdict::kSatisfied, policy.name(), where);
        }
        EXPECT_EQ(policy.active_snapshots(), 0u) << where;
        EXPECT_EQ(policy.pending_writes(), 0u) << where;
        EXPECT_EQ(policy.held_write_claims(), 0u) << where;
        ExpectVersionPlaneQuiescent(policy.store(), policy.name(), where);
      });
}

/// Bit-identical simulator replay, the multiversion fields included.
void ExpectBitIdenticalSim(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.aborts, b.aborts);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.skipped_ops, b.skipped_ops);
  EXPECT_EQ(a.committed_skipped_ops, b.committed_skipped_ops);
  EXPECT_EQ(a.total_wait_ticks, b.total_wait_ticks);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_TRUE(a.schedule.ops() == b.schedule.ops())
      << "same seed, different committed schedule";
  EXPECT_EQ(a.read_sources, b.read_sources);
  EXPECT_EQ(a.txn_restarts, b.txn_restarts);
}

TEST_P(MvccDifferentialFuzz, MvtoSimIsDeterministicAndMvsr) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();

  MvtoPolicy policy(n);
  auto result = RunSimulation(policy, workload.scripts);
  ASSERT_TRUE(result.ok()) << result.status();
  MvtoPolicy replay_policy(n);
  auto replay = RunSimulation(replay_policy, workload.scripts);
  ASSERT_TRUE(replay.ok()) << replay.status();
  ExpectBitIdenticalSim(*result, *replay);

  EXPECT_EQ(result->completed, n);
  EXPECT_EQ(result->skipped_ops, 0u);  // the chain absorbs stale writes
  ExpectAnnotatedMvsr(workload, result->schedule, result->read_sources,
                      Verdict::kSatisfied, policy.name(), "sim");
  ExpectReadOnlyNeverRestarts(workload, result->txn_restarts, policy.name(),
                              "sim");
  EXPECT_EQ(policy.active_stamp_entries(), 0u);
  ExpectVersionPlaneQuiescent(policy.store(), policy.name(), "sim");
}

TEST_P(MvccDifferentialFuzz, SnapshotIsolationSimIsDeterministicAndGated) {
  Workload workload = DrawWorkload(GetParam());
  const size_t n = workload.scripts.size();

  SnapshotIsolationPolicy policy(n);
  auto result = RunSimulation(policy, workload.scripts);
  ASSERT_TRUE(result.ok()) << result.status();
  SnapshotIsolationPolicy replay_policy(n);
  auto replay = RunSimulation(replay_policy, workload.scripts);
  ASSERT_TRUE(replay.ok()) << replay.status();
  ExpectBitIdenticalSim(*result, *replay);

  EXPECT_EQ(result->completed, n);
  if (CheckSiRobustness(result->schedule).robust) {
    ExpectAnnotatedMvsr(workload, result->schedule, result->read_sources,
                        Verdict::kSatisfied, policy.name(), "sim");
  }
  ExpectReadOnlyNeverRestarts(workload, result->txn_restarts, policy.name(),
                              "sim");
  EXPECT_EQ(policy.active_snapshots(), 0u);
  EXPECT_EQ(policy.pending_writes(), 0u);
  EXPECT_EQ(policy.held_write_claims(), 0u);
  ExpectVersionPlaneQuiescent(policy.store(), policy.name(), "sim");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MvccDifferentialFuzz,
                         ::testing::ValuesIn(FuzzSeeds()));

// ---- deterministic scenarios ------------------------------------------------

TxnScript Script(std::initializer_list<AccessStep> steps) {
  TxnScript s;
  s.steps = steps;
  return s;
}

AccessStep R(ItemId item) { return AccessStep{OpAction::kRead, item}; }
AccessStep W(ItemId item) { return AccessStep{OpAction::kWrite, item}; }

TEST(MvccScenarioTest, MvtoServesStaleReadsWhereToRestarts) {
  // T1 reads item 0 twice around T2's committed write. Single-version TO
  // must reject the second read (a younger write happened); MVTO serves
  // the old version from the chain and nobody restarts.
  const std::vector<TxnScript> scripts = {Script({R(0), R(0)}),
                                          Script({W(0)})};

  MvtoPolicy mvto(2);
  auto mv = RunSimulation(mvto, scripts);
  ASSERT_TRUE(mv.ok()) << mv.status();
  EXPECT_EQ(mv->completed, 2u);
  EXPECT_EQ(mv->restarts, 0u);
  EXPECT_EQ(mvto.rejections(), 0u);
  // Both reads observed the initial version, behind T2's newer write.
  for (size_t p = 0; p < mv->schedule.size(); ++p) {
    if (mv->schedule.at(p).is_read()) {
      ASSERT_TRUE(mv->read_sources[p].has_value());
      EXPECT_EQ(*mv->read_sources[p], 0u);
    }
  }

  TimestampOrderingPolicy to(2);
  auto sv = RunSimulation(to, scripts);
  ASSERT_TRUE(sv.ok()) << sv.status();
  EXPECT_EQ(sv->completed, 2u);
  EXPECT_GE(sv->restarts, 1u);  // the late read is fatal without versions
}

TEST(MvccScenarioTest, SnapshotIsolationAdmitsWriteSkewMvtoDoesNot) {
  // The canonical skew: both read {0, 1}, then T1 writes 0 and T2 writes
  // 1. Under SI both commit against the same snapshot — the trace is not
  // MVSR and the workload is exactly what the robustness test flags.
  const std::vector<TxnScript> scripts = {Script({R(0), R(1), W(0)}),
                                          Script({R(0), R(1), W(1)})};

  SnapshotIsolationPolicy si(2);
  auto si_result = RunSimulation(si, scripts);
  ASSERT_TRUE(si_result.ok()) << si_result.status();
  EXPECT_EQ(si_result->completed, 2u);
  EXPECT_EQ(si_result->restarts, 0u);  // disjoint write sets: no validation
  VersionAnnotations si_versions;
  si_versions.read_from = si_result->read_sources;
  MultiversionReport skew = CheckMvsr(si_result->schedule, si_versions);
  EXPECT_TRUE(skew.decided);
  EXPECT_FALSE(skew.satisfied);
  RobustnessReport robustness = CheckSiRobustness(si_result->schedule);
  EXPECT_FALSE(robustness.robust);
  ASSERT_TRUE(robustness.pivot.has_value());

  // MVTO pays a restart on the same scripts but stays serializable.
  MvtoPolicy mvto(2);
  auto mv_result = RunSimulation(mvto, scripts);
  ASSERT_TRUE(mv_result.ok()) << mv_result.status();
  EXPECT_EQ(mv_result->completed, 2u);
  EXPECT_GE(mv_result->restarts, 1u);
  VersionAnnotations mv_versions;
  mv_versions.read_from = mv_result->read_sources;
  MultiversionReport serializable =
      CheckMvsr(mv_result->schedule, mv_versions);
  EXPECT_TRUE(serializable.decided);
  EXPECT_TRUE(serializable.satisfied);
}

TEST(MvccScenarioTest, SnapshotIsolationFirstUpdaterWins) {
  // T2's write finds T1's claim, waits it out, then fails first-committer
  // validation against T1's committed version and restarts with a fresh
  // snapshot. The lost update is ruled out; both commit.
  const std::vector<TxnScript> scripts = {Script({W(0), W(1)}),
                                          Script({W(0)})};
  SnapshotIsolationPolicy si(2);
  auto result = RunSimulation(si, scripts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed, 2u);
  EXPECT_GE(si.write_write_waits(), 1u);
  EXPECT_EQ(si.validation_aborts(), 1u);
  EXPECT_EQ(result->restarts, 1u);
  ExpectVersionPlaneQuiescent(si.store(), si.name(), "sim");
}

TEST(MvccScenarioTest, SnapshotIsolationReadersNeverWaitOrAbort) {
  // A write-storm on items {0, 1} concurrent with a read-only scan: the
  // scan reads its snapshot, never waits, never restarts.
  const std::vector<TxnScript> scripts = {Script({W(0), W(1), W(0)}),
                                          Script({R(0), R(1)})};
  SnapshotIsolationPolicy si(2);
  auto result = RunSimulation(si, scripts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed, 2u);
  EXPECT_EQ(result->total_wait_ticks, 0u);  // nobody waits: disjoint claims
  ASSERT_EQ(result->txn_restarts.size(), 2u);
  EXPECT_EQ(result->txn_restarts[1], 0u);
  // The scan saw the pre-storm snapshot: both reads from the initial state.
  for (size_t p = 0; p < result->schedule.size(); ++p) {
    if (result->schedule.at(p).is_read()) {
      ASSERT_TRUE(result->read_sources[p].has_value());
      EXPECT_EQ(*result->read_sources[p], 0u);
    }
  }
}

TEST(MvccScenarioTest, MvtoReadOnlyScanWaitsOutWritersButNeverRestarts) {
  // The scan's stamp falls between the writers'; its reads must wait out
  // the in-flight version they are served (recoverability), but waiting is
  // the whole price: no read-only restart, and the trace is still MVSR.
  const std::vector<TxnScript> scripts = {Script({W(0), W(1)}),
                                          Script({R(0), R(1)}),
                                          Script({W(0), W(1)})};
  MvtoPolicy mvto(3);
  auto result = RunSimulation(mvto, scripts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed, 3u);
  ASSERT_EQ(result->txn_restarts.size(), 3u);
  EXPECT_EQ(result->txn_restarts[1], 0u);
  EXPECT_GE(mvto.read_waits(), 1u);
  VersionAnnotations versions;
  versions.read_from = result->read_sources;
  MultiversionReport report = CheckMvsr(result->schedule, versions);
  EXPECT_TRUE(report.decided);
  EXPECT_TRUE(report.satisfied);
  ExpectVersionPlaneQuiescent(mvto.store(), mvto.name(), "sim");
}

}  // namespace
}  // namespace nse
