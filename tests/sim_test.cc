#include "scheduler/sim.h"

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/delayed_read.h"
#include "analysis/serializability.h"
#include "common/logging.h"
#include "scheduler/fault_injection.h"
#include "scheduler/priority_locking.h"
#include "scheduler/pw_two_phase_locking.h"
#include "scheduler/timestamp_ordering.h"
#include "scheduler/two_phase_locking.h"
#include "scheduler/workload.h"

namespace nse {
namespace {

TxnScript Script(std::initializer_list<AccessStep> steps,
                 uint64_t arrival = 0) {
  TxnScript s;
  s.steps = steps;
  s.arrival_tick = arrival;
  return s;
}

AccessStep R(ItemId item) { return AccessStep{OpAction::kRead, item}; }
AccessStep W(ItemId item) { return AccessStep{OpAction::kWrite, item}; }

TEST(SimTest, SingleTransactionRunsToCompletion) {
  StrictTwoPhaseLocking policy;
  auto result = RunSimulation(policy, {Script({R(0), W(1)})});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed, 1u);
  EXPECT_EQ(result->total_ops, 2u);
  EXPECT_EQ(result->aborts, 0u);
  EXPECT_EQ(result->schedule.size(), 2u);
}

TEST(SimTest, DisjointTransactionsRunConcurrently) {
  StrictTwoPhaseLocking policy;
  // Two 4-op transactions on disjoint items: makespan ≈ 4, not 8.
  auto result = RunSimulation(
      policy, {Script({R(0), W(0), R(1), W(1)}),
               Script({R(2), W(2), R(3), W(3)})});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completed, 2u);
  EXPECT_LE(result->makespan, 5u);
  EXPECT_EQ(result->total_wait_ticks, 0u);
}

TEST(SimTest, ConflictingTransactionsSerialize) {
  StrictTwoPhaseLocking policy;
  // Both write item 0 first: the second blocks until the first commits.
  auto result = RunSimulation(
      policy, {Script({W(0), R(1), W(2)}), Script({W(0), R(3), W(4)})});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completed, 2u);
  EXPECT_GT(result->total_wait_ticks, 0u);
  EXPECT_TRUE(IsConflictSerializable(result->schedule));
  EXPECT_TRUE(IsStrict(result->schedule));
}

TEST(SimTest, DeadlockDetectedAndResolved) {
  StrictTwoPhaseLocking policy;
  // T1: W(0) then W(1); T2: W(1) then W(0) — classic deadlock.
  auto result =
      RunSimulation(policy, {Script({W(0), W(1)}), Script({W(1), W(0)})});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed, 2u);
  EXPECT_GE(result->aborts, 1u);
  // The committed trace contains each transaction's ops exactly once.
  EXPECT_EQ(result->schedule.size(), 4u);
  EXPECT_TRUE(IsConflictSerializable(result->schedule));
}

TEST(SimTest, ArrivalTimesRespected) {
  StrictTwoPhaseLocking policy;
  auto result = RunSimulation(
      policy, {Script({R(0)}, /*arrival=*/0), Script({R(1)}, /*arrival=*/10)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completed, 2u);
  EXPECT_GE(result->makespan, 11u);
}

TEST(SimTest, EmptyScriptCompletesImmediately) {
  StrictTwoPhaseLocking policy;
  auto result = RunSimulation(policy, {Script({})});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completed, 1u);
  EXPECT_EQ(result->total_ops, 0u);
}

TEST(SimTest, NoTransactions) {
  StrictTwoPhaseLocking policy;
  auto result = RunSimulation(policy, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completed, 0u);
  EXPECT_EQ(result->makespan, 0u);
}

TEST(SimTest, MaxTicksGuard) {
  StrictTwoPhaseLocking policy;
  EngineConfig config;
  config.max_ticks = 1;
  auto result = RunSimulation(
      policy, {Script({R(0), R(1), R(2)}), Script({R(3), R(4), R(5)})},
      config);
  ASSERT_FALSE(result.ok());
  // A spent tick budget is typed like the engine's wall-clock budget, and
  // says what the live transactions were doing and which restarted most.
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.status().message(),
            "simulation exceeded max_ticks=1: 2 live, 0 boosted, 0 parked, "
            "0 blocked; most restarted live T1 (0 restarts, pc 1)");

  // Three transactions blocked; T2, a deadlock victim, restarted once.
  StrictTwoPhaseLocking locking;
  config.max_ticks = 2;
  config.restart.backoff = RestartPolicy::Backoff::kImmediate;
  result = RunSimulation(locking,
                         {Script({W(0), W(1), W(2)}), Script({W(1), W(0)}),
                          Script({W(2), W(1)}), Script({W(2)})},
                         config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(),
            "simulation exceeded max_ticks=2: 4 live, 0 boosted, 0 parked, "
            "3 blocked; most restarted live T2 (1 restarts, pc 0)");

  // Four TO read-modify-writes of one item under a watchdog of 1: T1 and
  // T2 are boosted, T1 holds the privilege and T2 is parked behind it.
  TimestampOrderingPolicy ordering(4);
  config.max_ticks = 5;
  config.restart.max_restarts_before_boost = 1;
  result = RunSimulation(ordering,
                         {Script({R(0), W(0)}), Script({R(0), W(0)}),
                          Script({R(0), W(0)}), Script({R(0), W(0)})},
                         config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(),
            "simulation exceeded max_ticks=5: 2 live, 2 boosted, 1 parked, "
            "0 blocked; most restarted live T1 (2 restarts, pc 1)");
}

// A restart delay near UINT64_MAX saturates instead of wrapping: the
// victim's resume tick stays out of reach, so the run spends its tick
// budget instead of resuming the victim on the next tick (a wrapped
// `tick + delay` finished this probe at makespan 12). A finite fixed delay
// is still paid in full and ledgered exactly.
TEST(SimTest, HugeRestartBackoffSaturatesInsteadOfWrapping) {
  std::vector<TxnScript> scripts;
  for (int i = 0; i < 6; ++i) scripts.push_back(Script({R(0), W(0)}));
  EngineConfig config;
  config.max_ticks = 10'000;
  config.backoff_unit_micros = 0;  // engine-only; no sleep, so any cap is valid
  config.restart.backoff = RestartPolicy::Backoff::kFixed;
  config.restart.base = UINT64_MAX;
  config.restart.cap = UINT64_MAX;
  {
    TimestampOrderingPolicy policy(scripts.size());
    auto never = RunSimulation(policy, scripts, config);
    ASSERT_FALSE(never.ok()) << "makespan " << never->makespan
                             << ", backoff_ticks " << never->backoff_ticks;
    EXPECT_EQ(never.status().code(), StatusCode::kDeadlineExceeded);
  }
  config.restart.base = 1000;
  config.restart.cap = 1000;
  TimestampOrderingPolicy policy(scripts.size());
  auto finite = RunSimulation(policy, scripts, config);
  ASSERT_TRUE(finite.ok()) << finite.status();
  uint64_t restarts = 0;
  for (uint64_t n : finite->txn_restarts) restarts += n;
  ASSERT_GT(restarts, 0u);
  EXPECT_EQ(finite->backoff_ticks, 1000 * restarts);
  EXPECT_GT(finite->makespan, 1000u);
}

TEST(SimTest, MetricsAreInternallyConsistent) {
  StrictTwoPhaseLocking policy;
  auto result = RunSimulation(
      policy, {Script({W(0), W(1)}), Script({W(0), W(2)}),
               Script({R(3), R(4)})});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->completed, 3u);
  EXPECT_GT(result->throughput, 0.0);
  EXPECT_GE(result->avg_response_ticks, 1.0);
  EXPECT_EQ(result->total_ops, result->schedule.size());
}

// Scriptable stub: a fixed verdict per (txn, step), pass-through
// otherwise. Exercises the kSkip and Condemn/DrainCondemned plumbing
// without a real protocol behind it.
class StubPolicy : public SchedulerPolicy {
 public:
  std::string name() const override { return "stub"; }
  Result<AccessGrant> RequestAccess(TxnId txn, const TxnScript& script,
                                    size_t step) override {
    NSE_RETURN_IF_ERROR(CheckStep(script, step));
    AccessVerdict verdict = AccessVerdict::kGranted;
    auto it = verdicts_.find({txn, step});
    if (it != verdicts_.end()) {
      verdict = it->second;
      verdicts_.erase(it);  // one-shot: the retry proceeds
    }
    switch (verdict) {
      case AccessVerdict::kWait:
        return WaitOn(MakeTicket());
      case AccessVerdict::kAbortSelf:
        return AbortSelf();
      case AccessVerdict::kSkip:
        return Skip();
      case AccessVerdict::kGranted:
        break;
    }
    granted_steps_.push_back(step);
    return Granted();
  }
  std::vector<TxnId> Blockers(TxnId, const TxnScript&,
                              size_t) const override {
    return {};
  }

  std::map<std::pair<TxnId, size_t>, AccessVerdict> verdicts_;
  std::vector<size_t> granted_steps_;
  std::vector<TxnId> aborted_;

 protected:
  void DoCommit(TxnId) override {}
  void DoAbort(TxnId txn) override { aborted_.push_back(txn); }
};

TEST(SimTest, SkippedStepsLeaveNoTraceAndNoGrant) {
  StubPolicy policy;
  policy.verdicts_[{1, 1}] = AccessVerdict::kSkip;
  auto result = RunSimulation(policy, {Script({W(0), W(1), W(2)})});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed, 1u);
  EXPECT_EQ(result->skipped_ops, 1u);
  // The trace holds only the executed steps; the skipped one was never
  // granted (no trace_seq drawn for it).
  EXPECT_EQ(result->total_ops, 2u);
  EXPECT_EQ(result->schedule.ops()[0].entity, 0u);
  EXPECT_EQ(result->schedule.ops()[1].entity, 2u);
  EXPECT_EQ(policy.granted_steps_, (std::vector<size_t>{0, 2}));
}

TEST(SimTest, SkippedFinalStepCompletesTheTransaction) {
  StubPolicy policy;
  policy.verdicts_[{1, 1}] = AccessVerdict::kSkip;
  auto result = RunSimulation(policy, {Script({W(0), W(1)})});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->completed, 1u);
  EXPECT_EQ(result->skipped_ops, 1u);
  EXPECT_EQ(result->total_ops, 1u);
}

TEST(SimTest, WoundedVictimRollsBackAndRestarts) {
  StubPolicy policy;
  // T2's first access wounds T1 (which has already executed a step) and
  // waits one round; T1 restarts from scratch and both complete.
  policy.verdicts_[{2, 0}] = AccessVerdict::kWait;
  auto result = RunSimulation(policy, {Script({W(0), W(1)}, 0),
                                       Script({W(2), W(3)}, 1)});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->wounds, 0u);  // kWait alone wounds nobody

  // The simulator drains the condemnation right after T2's first request
  // (arrival tick 1, after T1 already ran its first step).
  class WoundOnce : public StubPolicy {
   public:
    Result<AccessGrant> RequestAccess(TxnId txn, const TxnScript& script,
                                      size_t step) override {
      if (txn == 2 && !wounded_) {
        wounded_ = true;
        Condemn(1);
        return WaitOn(MakeTicket());
      }
      return StubPolicy::RequestAccess(txn, script, step);
    }

   private:
    bool wounded_ = false;
  };
  WoundOnce policy2;
  auto result2 = RunSimulation(policy2, {Script({W(0), W(1)}, 0),
                                         Script({W(2), W(3)}, 1)});
  ASSERT_TRUE(result2.ok()) << result2.status();
  EXPECT_EQ(result2->completed, 2u);
  EXPECT_EQ(result2->wounds, 1u);
  EXPECT_EQ(result2->aborts, 0u);
  EXPECT_EQ(policy2.aborted_, std::vector<TxnId>{1});
  // The victim's rolled-back step re-executed: full trace length.
  EXPECT_EQ(result2->total_ops, 4u);
}

// Bit-identity goldens. Each case pins the committed trace (FNV-1a over
// txn, action, item) and every counter the tick loop drives, on a workload
// that reaches one of the loop's order-sensitive paths: the admission gate
// (queue and shed), the starvation watchdog (boosts granted mid-tick, to
// ids on both sides of the one being stepped), a fault plan with arrival
// perturbation, crashes and latency spikes, and a rotated scan origin that
// falls between live ids and wraps. Visiting transactions in another order
// within a tick, or skipping one, moves at least one of these values.
struct SimFingerprint {
  uint64_t trace_fnv;
  uint64_t makespan;
  uint64_t completed;
  uint64_t aborts;
  uint64_t restarts;
  uint64_t wounds;
  uint64_t boosts;
  uint64_t shed;
  uint64_t backoff_ticks;
  uint64_t total_wait_ticks;
  double avg_response_ticks;
};

uint64_t TraceFnv(const Schedule& schedule) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const Operation& op : schedule.ops()) {
    mix(op.txn);
    mix(static_cast<uint64_t>(op.action));
    mix(op.entity);
  }
  return h;
}

std::string Render(const SimFingerprint& f) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{%lluull, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
                "%llu, %.17g}",
                static_cast<unsigned long long>(f.trace_fnv),
                static_cast<unsigned long long>(f.makespan),
                static_cast<unsigned long long>(f.completed),
                static_cast<unsigned long long>(f.aborts),
                static_cast<unsigned long long>(f.restarts),
                static_cast<unsigned long long>(f.wounds),
                static_cast<unsigned long long>(f.boosts),
                static_cast<unsigned long long>(f.shed),
                static_cast<unsigned long long>(f.backoff_ticks),
                static_cast<unsigned long long>(f.total_wait_ticks),
                f.avg_response_ticks);
  return buf;
}

/// Compares field by field; a mismatch prints the whole actual fingerprint
/// in initializer form.
void ExpectFingerprint(const Result<SimResult>& result,
                       const SimFingerprint& want) {
  ASSERT_TRUE(result.ok()) << result.status();
  const SimFingerprint got{TraceFnv(result->schedule), result->makespan,
                           result->completed,          result->aborts,
                           result->restarts,           result->wounds,
                           result->boosts,             result->shed,
                           result->backoff_ticks,      result->total_wait_ticks,
                           result->avg_response_ticks};
  SCOPED_TRACE("actual: " + Render(got));
  EXPECT_EQ(got.trace_fnv, want.trace_fnv);
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.aborts, want.aborts);
  EXPECT_EQ(got.restarts, want.restarts);
  EXPECT_EQ(got.wounds, want.wounds);
  EXPECT_EQ(got.boosts, want.boosts);
  EXPECT_EQ(got.shed, want.shed);
  EXPECT_EQ(got.backoff_ticks, want.backoff_ticks);
  EXPECT_EQ(got.total_wait_ticks, want.total_wait_ticks);
  EXPECT_DOUBLE_EQ(got.avg_response_ticks, want.avg_response_ticks);
}

Workload Contended(size_t txns, size_t partitions, double hotspot,
                   uint64_t arrival_spread, uint64_t seed) {
  PartitionedWorkloadConfig cfg;
  cfg.num_partitions = partitions;
  cfg.items_per_partition = 2;
  cfg.num_txns = txns;
  cfg.partitions_per_txn = 2;
  cfg.cross_read_probability = 0.3;
  cfg.hotspot_probability = hotspot;
  cfg.arrival_spread = arrival_spread;
  cfg.seed = seed;
  Result<Workload> workload = MakePartitionedWorkload(cfg);
  NSE_CHECK(workload.ok());
  return std::move(workload).value();
}

TEST(SimGoldenTest, AdmissionGateQueue) {
  const Workload w = Contended(48, 6, 0.3, 40, 5);
  StrictTwoPhaseLocking policy;
  EngineConfig config;
  config.restart.max_live_txns = 4;
  ExpectFingerprint(RunSimulation(policy, w.scripts, config),
                    {17063908969983717866ull, 388, 48, 34, 0, 0, 0, 0, 648, 318,
                     155.04166666666666});
}

TEST(SimGoldenTest, AdmissionGateShed) {
  const Workload w = Contended(48, 6, 0.3, 160, 5);
  StrictTwoPhaseLocking policy;
  EngineConfig config;
  config.restart.max_live_txns = 5;
  config.restart.overflow = RestartPolicy::Overflow::kShed;
  ExpectFingerprint(RunSimulation(policy, w.scripts, config),
                    {9258643182503925203ull, 200, 27, 21, 0, 0, 0, 21, 222, 221,
                     24.074074074074073});
}

// Boosted wound victims still pay the backoff (a wound is the policy's
// priority call), so these two runs back off more than a privilege-first
// re-entry would.
TEST(SimGoldenTest, WatchdogBoostsWoundVictims) {
  const Workload w = Contended(30, 6, 0.3, 100, 1);
  WoundWaitPolicy policy(w.scripts.size());
  EngineConfig config;
  config.restart.max_restarts_before_boost = 3;
  ExpectFingerprint(RunSimulation(policy, w.scripts, config),
                    {13171079203260236908ull, 234, 30, 0, 0, 79, 7, 0, 910,
                     148, 48.033333333333331});
}

TEST(SimGoldenTest, WatchdogBoostsBehindAdmissionGate) {
  const Workload w = Contended(30, 12, 0.3, 100, 3);
  WoundWaitPolicy policy(w.scripts.size());
  EngineConfig config;
  config.restart.max_restarts_before_boost = 1;
  config.restart.max_live_txns = 4;
  ExpectFingerprint(RunSimulation(policy, w.scripts, config),
                    {13239272329375336684ull, 128, 30, 0, 0, 17, 3, 0, 114, 34,
                     17.899999999999999});
}

// The watchdog must not livelock wound-wait. A boosted victim that
// re-entered at once, privileged, re-took its lock on the next tick ahead
// of an older, never-boosted waiter, which wounded it again, and every one
// of these runs spent its tick budget. Every run finishes.
TEST(SimGoldenTest, WatchdogDoesNotLivelockWoundWait) {
  for (uint64_t seed = 9; seed <= 12; ++seed) {
    const Workload w = Contended(40, 3, 0.0, 20, seed);
    for (uint64_t boost : {1, 3, 6}) {
      WoundWaitPolicy policy(w.scripts.size());
      EngineConfig config;
      config.max_ticks = 200'000;
      config.restart.max_restarts_before_boost = boost;
      Result<SimResult> result = RunSimulation(policy, w.scripts, config);
      ASSERT_TRUE(result.ok())
          << "seed " << seed << ", boost " << boost << ": " << result.status();
      EXPECT_EQ(result->completed, 40u);
      EXPECT_GT(result->boosts, 0u);
    }
  }
}

TEST(SimGoldenTest, WatchdogBoostsSelfAborts) {
  const Workload w = Contended(40, 3, 0.5, 10, 13);
  TimestampOrderingPolicy policy(w.scripts.size());
  EngineConfig config;
  config.restart.max_restarts_before_boost = 2;
  ExpectFingerprint(RunSimulation(policy, w.scripts, config),
                    {14619624027855417138ull, 335, 40, 0, 881, 0, 40, 0, 640, 0,
                     182.97499999999999});
}

TEST(SimGoldenTest, FaultPlanPerturbsArrivalsCrashesAndSpikes) {
  const Workload w = Contended(50, 6, 0.3, 30, 17);
  FaultPlanConfig fc;
  fc.seed = 3;
  fc.client_abort_probability = 0.05;
  fc.crash_probability = 0.02;
  fc.latency_spike_probability = 0.05;
  fc.max_latency_spike_ticks = 6;
  fc.max_arrival_delay = 30;
  const FaultPlan plan(fc);
  StrictTwoPhaseLocking policy;
  EngineConfig config;
  config.faults = &plan;
  config.restart.backoff = RestartPolicy::Backoff::kExponential;
  config.restart.jitter = 3;
  Result<SimResult> result = RunSimulation(policy, w.scripts, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->crashes, 0u);
  EXPECT_GT(result->fault_aborts, 0u);
  EXPECT_GT(result->latency_spike_ticks, 0u);
  ExpectFingerprint(result, {17418119941857508655ull, 1574, 49, 373, 0, 0, 0, 0, 20280,
                             19570, 800.22448979591832});
}

TEST(SimGoldenTest, RotatedScanOriginWrapsPastLiveIds) {
  // Five contending scripts with staggered arrivals: the scan origin
  // tick % 5 often names an unarrived or finished id, so the scan starts
  // at the next live one and wraps to the lower ids.
  StrictTwoPhaseLocking policy;
  ExpectFingerprint(
      RunSimulation(policy, {Script({W(0), W(1), W(2)}, 0),
                             Script({W(3), W(0)}, 4),
                             Script({R(1), W(3), R(0)}, 1),
                             Script({W(2), W(4)}, 2),
                             Script({R(4), W(1)}, 6)}),
      {4092350367030579681ull, 13, 5, 1, 0, 0, 0, 0, 6, 8, 5.4});
}

TEST(SimGoldenTest, CertifyShapeUnderPredicatewise2pl) {
  PartitionedWorkloadConfig cfg;
  cfg.num_partitions = 48;
  cfg.items_per_partition = 2;
  cfg.num_txns = 200;
  cfg.partitions_per_txn = 3;
  cfg.cross_read_probability = 0.2;
  cfg.hotspot_probability = 0.2;
  cfg.arrival_spread = 16 * cfg.num_txns;
  cfg.seed = 1;
  Result<Workload> w = MakePartitionedWorkload(cfg);
  ASSERT_TRUE(w.ok());
  PredicatewiseTwoPhaseLocking policy(&*w->ic);
  ExpectFingerprint(RunSimulation(policy, w->scripts),
                    {14827071871284601717ull, 3183, 200, 6, 0, 0, 0, 0, 36, 49,
                     10.125});
}

}  // namespace
}  // namespace nse
