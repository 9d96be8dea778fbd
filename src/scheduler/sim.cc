#include "scheduler/sim.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"
#include "scheduler/fault_injection.h"
#include "scheduler/txn_runner.h"
#include "scheduler/waits_for.h"

namespace nse {

namespace {

struct TxnRuntime {
  bool done = false;
  bool committed = false;
  bool admitted = false;  // passed the admission gate
  bool blocked = false;   // last step answered kWait
  bool boosted = false;   // starvation watchdog fired
  bool parked = false;    // boosted but waiting for the privileged one
  uint64_t completion_tick = 0;
  uint64_t resume_tick = 0;  // abort backoff / latency spike: idle until then
  uint64_t arrival = 0;      // effective (possibly perturbed) arrival tick
};

}  // namespace

Result<SimResult> RunSimulation(SchedulerPolicy& policy,
                                const std::vector<TxnScript>& scripts,
                                const EngineConfig& config) {
  NSE_RETURN_IF_ERROR(config.Validate());
  const size_t n = scripts.size();
  const RestartPolicy& rp = config.restart;
  RunContext run(policy, scripts, config, /*one_driver_thread=*/true);
  SimResult result;
  std::vector<TxnRuntime> runtime(n);
  std::vector<TxnRunner> runners;
  runners.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TxnId txn = static_cast<TxnId>(i + 1);
    runners.emplace_back(run, result).Begin(txn);
    runtime[i].arrival =
        config.faults != nullptr
            ? config.faults->PerturbedArrival(txn, scripts[i].arrival_tick)
            : scripts[i].arrival_tick;
  }
  // Admission order: (effective arrival, id) — deterministic whatever the
  // perturbation did to the scripted order.
  std::vector<size_t> admission_order(n);
  std::iota(admission_order.begin(), admission_order.end(), size_t{0});
  std::stable_sort(admission_order.begin(), admission_order.end(),
                   [&](size_t a, size_t b) {
                     return runtime[a].arrival < runtime[b].arrival;
                   });
  size_t live_txns = 0;

  // Persistent waits-for graph across stall ticks: each tick only diffs the
  // blocker sets against the previous tick (usually unchanged), instead of
  // rebuilding a graph and running a DFS per tick.
  WaitsForTracker waits;
  waits.EnsureTxns(n);

  auto all_done = [&]() {
    for (const auto& rt : runtime) {
      if (!rt.done) return false;
    }
    return true;
  };

  uint64_t tick = 0;
  uint64_t stalled_ticks = 0;  // consecutive blocked-but-no-victim ticks
  Status failure = Status::Ok();  // malformed-request error from a policy
  bool progress = false;
  bool pending_arrival = false;   // not yet arrived, or in backoff/spike
  bool pending_backoff = false;   // in deliberate backoff or latency spike
  bool pending_admission = false;  // arrived but queued at the gate

  // The transaction currently holding the watchdog's escalation privilege:
  // the lowest-id boosted, unfinished transaction (0 if none). Only it gets
  // zero backoff and the front of the scan — two simultaneously free-to-
  // restart transactions can re-abort each other forever (seen with TO:
  // each zero-cost restart draws a fresh stamp that re-rejects the other),
  // so escalations are strictly serialized.
  auto privileged_boosted = [&]() -> TxnId {
    for (size_t i = 0; i < n; ++i) {
      if (runtime[i].boosted && !runtime[i].done) {
        return static_cast<TxnId>(i + 1);
      }
    }
    return 0;
  };

  // Wake every parked transaction (called when a boosted transaction
  // finishes and the privilege transfers).
  auto wake_parked = [&]() {
    for (size_t i = 0; i < n; ++i) {
      if (runtime[i].parked && !runtime[i].done) {
        runtime[i].parked = false;
        runtime[i].resume_tick = tick + 1;
      }
    }
  };

  // Abort `victim` and schedule its restart under the RestartPolicy: the
  // runner rolls it back and rewinds it; backing off lets the surviving
  // transactions drain before it re-enters (otherwise the same conflict can
  // re-form forever). Shared by the deadlock-victim path, policy-requested
  // kAbortSelf verdicts, wounds, and injected client aborts.
  auto restart_txn = [&](TxnId victim, TxnRunner::Cause cause) {
    TxnRunner& runner = runners[victim - 1];
    runner.Restart(cause);
    waits.OnResolved(victim);
    TxnRuntime& vrt = runtime[victim - 1];
    vrt.blocked = false;
    if (!vrt.boosted && rp.max_restarts_before_boost > 0 &&
        runner.restarts() > rp.max_restarts_before_boost) {
      // Starvation watchdog: past the cap the transaction is escalated
      // instead of livelocking through delays it always loses.
      vrt.boosted = true;
      ++result.boosts;
    }
    if (vrt.boosted) {
      if (privileged_boosted() == victim) {
        // Free restart + front-of-scan priority: it keeps retrying at full
        // cadence while every other chronic restarter is parked or paying
        // backoff, so it eventually runs unopposed and commits.
        vrt.parked = false;
        vrt.resume_tick = tick + 1;
      } else {
        // Parked until the privileged transaction finishes: a chronically
        // colliding peer leaves the arena entirely (it holds no footprint
        // after the abort), which is what guarantees the privileged one
        // stops meeting fresh conflicts from it.
        vrt.parked = true;
        vrt.resume_tick = UINT64_MAX;
      }
      return;
    }
    uint64_t delay = runner.BackoffDelay();
    result.backoff_ticks += delay;
    vrt.resume_tick = tick + std::max<uint64_t>(delay, 1);
  };

  // A transaction left for good — committed, or crashed (a crash retracts
  // like an abort but never restarts, which is exactly what leaves
  // residual state behind if any policy's retraction path is leaky).
  auto retire = [&](size_t i, bool committed) {
    TxnRuntime& rt = runtime[i];
    waits.OnResolved(static_cast<TxnId>(i + 1));
    rt.done = true;
    rt.committed = committed;
    rt.blocked = false;
    rt.completion_tick = tick;
    --live_txns;
    if (rt.boosted) wake_parked();  // the privilege transfers
  };

  // One transaction's turn within a tick; sets the progress/pending flags.
  std::vector<TxnId> condemned;
  auto attempt = [&](size_t i) {
    TxnRuntime& rt = runtime[i];
    TxnRunner& runner = runners[i];
    TxnId txn = static_cast<TxnId>(i + 1);
    if (rt.done) return;
    if (!rt.admitted) {
      pending_admission = true;
      return;
    }
    if (rt.resume_tick > tick) {
      pending_arrival = true;
      pending_backoff = true;
      return;
    }
    if (runner.finished()) {  // an empty script
      runner.Commit();
      retire(i, /*committed=*/true);
      progress = true;
      return;
    }
    const TxnRunner::Outcome outcome = runner.Step(&condemned);
    // Roll wound victims back through the shared restart path before
    // acting on the requester's own verdict — a wound releases the
    // victim's footprint (locks, graph edges), which is exactly what
    // unblocks the requester on its next attempt.
    for (TxnId victim : condemned) {
      NSE_CHECK_MSG(victim >= 1 && victim <= n && !runtime[victim - 1].done,
                    "policy wounded an inactive transaction");
      restart_txn(victim, TxnRunner::Cause::kWound);
      progress = true;  // state changed; this is not a stall tick
    }
    switch (outcome) {
      case TxnRunner::Outcome::kFailed:
        failure = runner.failure();
        return;
      case TxnRunner::Outcome::kCrash:
        runner.Crash();
        retire(i, /*committed=*/false);
        progress = true;
        return;
      case TxnRunner::Outcome::kLatencySpike:
        rt.resume_tick = tick + runner.spike_ticks();
        rt.blocked = false;
        pending_arrival = true;
        pending_backoff = true;
        return;
      case TxnRunner::Outcome::kWait:
        rt.blocked = true;
        ++result.total_wait_ticks;
        return;
      case TxnRunner::Outcome::kRestart:
        restart_txn(txn, runner.cause());
        progress = true;
        return;
      case TxnRunner::Outcome::kGranted:
      case TxnRunner::Outcome::kSkipped:
        break;
    }
    rt.blocked = false;
    progress = true;
    if (runner.finished()) {
      runner.Commit();
      retire(i, /*committed=*/true);
    }
  };

  for (; tick < config.max_ticks; ++tick) {
    if (all_done()) break;
    progress = false;
    pending_arrival = false;
    pending_backoff = false;
    pending_admission = false;

    // Admission gate, in (arrival, id) order: every arrived transaction is
    // admitted while the gate has room; with kShed, arrivals that find the
    // gate full are dropped on the spot (graceful degradation — the
    // alternative under overload is unbounded queueing).
    for (size_t i : admission_order) {
      TxnRuntime& rt = runtime[i];
      if (rt.done || rt.admitted || rt.arrival > tick) continue;
      if (rp.max_live_txns == 0 || live_txns < rp.max_live_txns) {
        rt.admitted = true;
        ++live_txns;
      } else if (rp.overflow == RestartPolicy::Overflow::kShed) {
        rt.done = true;
        ++result.shed;
        progress = true;
      }
    }

    for (size_t i = 0; i < n; ++i) {
      // Starvation watchdog: boosted transactions go first, in id order —
      // they stopped paying backoff, and winning the intra-tick race is
      // what converts "restarts forever" into "commits next".
      if (runtime[i].boosted && !runtime[i].done) attempt(i);
    }
    for (size_t k = 0; k < n; ++k) {
      // Rotate the scan origin for fairness while staying deterministic.
      size_t i = (k + static_cast<size_t>(tick)) % n;
      if (runtime[i].boosted) continue;  // already had its boosted turn
      if (!runtime[i].done && runtime[i].arrival > tick) {
        pending_arrival = true;
        continue;
      }
      attempt(i);
    }
    if (!failure.ok()) return failure;

    if (progress) {
      stalled_ticks = 0;
      continue;
    }

    // No transaction moved: look for a deadlock among blocked transactions.
    // The tracker diffs each blocker set against the previous stall tick's,
    // so an unchanged waits-for relation does no graph work and the cycle
    // query is O(1).
    bool any_blocked = false;
    for (size_t i = 0; i < n; ++i) {
      TxnId txn = static_cast<TxnId>(i + 1);
      bool eligible = !runtime[i].done && runtime[i].admitted &&
                      runtime[i].arrival <= tick &&
                      runtime[i].resume_tick <= tick;
      if (eligible && runtime[i].blocked) {
        any_blocked = true;
        waits.SetWaits(txn,
                       policy.Blockers(txn, scripts[i], runners[i].pc()));
      } else {
        waits.ClearWaits(txn);
      }
    }
    if (!any_blocked) {
      if (pending_backoff) {
        // Every idle transaction is in deliberate backoff or a latency
        // spike: a pause, not a stall.
        stalled_ticks = 0;
        continue;
      }
      if (pending_arrival || pending_admission) continue;  // quiet tick
      return Status::Internal("simulation stalled with no blocked txn");
    }
    TxnId victim = 0;
    if (waits.cycle().has_value()) {
      const std::vector<TxnId>& cycle = *waits.cycle();
      victim = *std::max_element(cycle.begin(), cycle.end());
    }
    if (victim == 0) {
      if (pending_backoff) {
        // Some participant is in deliberate backoff; its return makes
        // progress or re-forms a detectable cycle. A long backoff is not
        // a wedged policy, so the consecutive-stall count restarts.
        stalled_ticks = 0;
        continue;
      }
      if (pending_arrival) continue;  // blockers will arrive and finish
      // Blocked transactions without a waits-for cycle: an optimistic
      // policy resolves this itself (SGT's veto threshold escalates to
      // kAbortSelf), so keep ticking within the patience budget. Queued
      // arrivals only enter when a live transaction leaves, so they do
      // not defer the verdict.
      if (++stalled_ticks > config.stall_patience) {
        return Status::Internal(
            "simulation stalled: blocked transactions but no waits-for cycle");
      }
      continue;
    }
    stalled_ticks = 0;
    restart_txn(victim, TxnRunner::Cause::kDeadlock);
  }

  if (!all_done()) {
    return Status::Internal(
        StrCat("simulation exceeded max_ticks=", config.max_ticks));
  }

  run.Finish(result);
  result.makespan = tick;
  double response_sum = 0;
  uint64_t committed = 0;
  for (const TxnRuntime& rt : runtime) {
    if (!rt.committed) continue;
    response_sum += static_cast<double>(rt.completion_tick + 1 - rt.arrival);
    ++committed;
  }
  result.avg_response_ticks =
      committed == 0 ? 0 : response_sum / static_cast<double>(committed);
  result.throughput =
      result.makespan == 0
          ? 0
          : static_cast<double>(result.completed) /
                static_cast<double>(result.makespan);
  return result;
}

}  // namespace nse
