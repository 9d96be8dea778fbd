#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "scheduler/txn_runner.h"
#include "scheduler/waits_for.h"

namespace nse {

namespace {

using Clock = std::chrono::steady_clock;

void SleepMicros(uint64_t micros) {
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

/// `ticks` of delay in microseconds, saturating at the longest sleep the
/// clock can express. Validate bounds cap * unit, but a jittered delay can
/// exceed the cap.
uint64_t TicksToMicros(uint64_t ticks, uint64_t unit_micros) {
  const uint64_t max_sleep =
      static_cast<uint64_t>(std::chrono::microseconds::max().count());
  return unit_micros != 0 && ticks > max_sleep / unit_micros
             ? max_sleep
             : ticks * unit_micros;
}

/// Why a transaction was condemned from outside its own worker.
enum CondemnKind : uint8_t {
  kNotCondemned = 0,
  kWounded = 1,         // policy wound (DrainCondemned victim)
  kDeadlockVictim = 2,  // chosen by the waits-for cycle detector
};

/// A worker's waiting-registry entry: its blocked txn (0 = none) and step.
struct WaitingSlot {
  TxnId txn = 0;
  size_t step = 0;
};

/// Everything the workers share.
struct EngineShared {
  RunContext& run;
  const EngineConfig& config;
  Clock::time_point start;
  Clock::time_point deadline;

  // Per txn (index txn - 1). Only the txn's own worker consumes its flag,
  // so a wound that lands after the commit is moot.
  std::vector<std::atomic<uint8_t>> condemned;
  // The waiting registry, one slot per worker, and a persistent waits-for
  // graph over worker slots (node = slot + 1): only a claimed transaction
  // can wait or hold a footprint, so the graph has `threads` nodes however
  // many scripts the run has. Both guarded by detect_mu.
  std::vector<WaitingSlot> waiting;
  WaitsForTracker waits;
  std::mutex detect_mu;

  std::atomic<size_t> next_txn{0};
  // Bumped on every state change (granted op, skip, commit, abort).
  std::atomic<uint64_t> progress{0};
  // Claimed, unfinished transactions not waiting on the hub: executing,
  // paying an operation latency, or backing off.
  std::atomic<size_t> running{0};

  std::atomic<bool> failed{false};
  std::mutex fail_mu;
  Status failure = Status::Ok();

  EngineShared(RunContext& r, const EngineConfig& c)
      : run(r),
        config(c),
        start(Clock::now()),
        deadline(start + std::chrono::microseconds(config.max_wall_micros)),
        condemned(r.scripts().size()),
        waiting(config.threads) {}

  /// Records the first failure and wakes everyone so workers drain out.
  void Fail(Status status) {
    {
      std::lock_guard<std::mutex> lock(fail_mu);
      if (failure.ok()) failure = std::move(status);
    }
    failed.store(true, std::memory_order_release);
    run.policy().Poke();
  }

  bool HasFailed() const { return failed.load(std::memory_order_acquire); }

  void Progress() { progress.fetch_add(1, std::memory_order_acq_rel); }
};

/// One worker thread's registry slot, ledger (summed after join) and runner.
struct Worker {
  Worker(EngineShared& shared, size_t s)
      : slot(s), runner(shared.run, tally) {}
  Worker(const Worker&) = delete;  // its thread holds its address
  size_t slot;
  RunResult tally;
  uint64_t wait_events = 0;
  TxnRunner runner;
};

/// Marks `victims` condemned (a pending flag stays) and wakes the blocked.
void DeliverCondemnations(EngineShared& shared,
                          const std::vector<TxnId>& victims,
                          CondemnKind kind) {
  for (TxnId victim : victims) {
    NSE_CHECK_MSG(victim >= 1 && victim <= shared.condemned.size(),
                  "policy condemned an unknown transaction %u", victim);
    uint8_t expected = kNotCondemned;
    shared.condemned[victim - 1].compare_exchange_strong(
        expected, kind, std::memory_order_acq_rel);
  }
  if (!victims.empty()) shared.run.policy().Poke();
}

enum class Detection {  // what a timed-out waiter's deadlock check found
  kBusy,       // another waiter holds the detector
  kResolving,  // a waiting transaction is condemned and will roll back
  kNoCycle,    // the waiters form no cycle and none is condemned
};

/// Diffs the waiting registry into the persistent waits-for graph and
/// breaks every cycle in it, condemning the largest transaction id of each
/// recorded cycle (the simulator's choice) until the graph is acyclic.
/// One victim per pass would not do: a lock upgrade blocked by k readers
/// that each wait on the upgrader needs all k condemned before the first
/// returns from its backoff, and a pass per victim costs a wait timeout.
/// Runs under try_lock: a second detection of the same stall adds nothing.
/// A racy snapshot can at worst condemn a transaction whose cycle was
/// already dissolving: one needless restart, never unsafe.
Detection TryDetectDeadlock(EngineShared& shared) {
  std::unique_lock<std::mutex> detect(shared.detect_mu, std::try_to_lock);
  if (!detect.owns_lock()) return Detection::kBusy;
  const std::vector<WaitingSlot>& waiting = shared.waiting;
  for (const WaitingSlot& slot : waiting) {  // a condemned waiter will wake
    if (slot.txn != 0 && shared.condemned[slot.txn - 1].load(
                             std::memory_order_acquire) != kNotCondemned) {
      return Detection::kResolving;
    }
  }
  // A cycle needs every participant blocked, so only blockers that are
  // themselves waiting become edges; a running blocker moves on its own.
  auto slot_of = [&waiting](TxnId txn) -> TxnId {
    for (size_t s = 0; txn != 0 && s < waiting.size(); ++s) {
      if (waiting[s].txn == txn) return static_cast<TxnId>(s + 1);
    }
    return 0;
  };
  std::vector<TxnId> blocker_slots;
  for (size_t s = 0; s < waiting.size(); ++s) {
    blocker_slots.clear();
    if (waiting[s].txn != 0) {
      const TxnId txn = waiting[s].txn;
      for (TxnId blocker : shared.run.policy().Blockers(
               txn, shared.run.scripts()[txn - 1], waiting[s].step)) {
        if (TxnId node = slot_of(blocker); node != 0) {
          blocker_slots.push_back(node);
        }
      }
    }
    shared.waits.SetWaits(static_cast<TxnId>(s + 1), blocker_slots);
  }
  if (!shared.waits.cycle().has_value()) return Detection::kNoCycle;
  std::vector<TxnId> victims;
  while (shared.waits.cycle().has_value()) {
    TxnId victim_node = 0;
    for (TxnId node : *shared.waits.cycle()) {
      if (victim_node == 0 ||
          waiting[node - 1].txn > waiting[victim_node - 1].txn) {
        victim_node = node;
      }
    }
    victims.push_back(waiting[victim_node - 1].txn);
    // The victim will stop waiting: drop its node's edges, which re-detects
    // any cycle the remaining waiters still form. The next pass re-diffs
    // the registry, so the graph catches up with the victim's restart.
    shared.waits.OnResolved(victim_node);
  }
  DeliverCondemnations(shared, victims, kDeadlockVictim);
  return Detection::kResolving;
}

/// Waits out a kWait verdict until the hub moves, the transaction is
/// condemned, or the run fails. A timed-out waiter runs the deadlock
/// detector, and scores a stall strike only if it found no cycle and no
/// pending condemnation, nothing progressed, and no claimed transaction is
/// running: a slow lock holder or a slow victim is not a stall.
void AwaitRetry(EngineShared& shared, Worker& worker, size_t index) {
  const WaitTicket& ticket = worker.runner.wait_ticket();
  {
    std::lock_guard<std::mutex> lock(shared.detect_mu);
    shared.waiting[worker.slot] =
        WaitingSlot{static_cast<TxnId>(index + 1), worker.runner.pc()};
  }
  shared.running.fetch_sub(1, std::memory_order_acq_rel);
  uint64_t strikes = 0;
  while (!shared.HasFailed()) {
    uint64_t seen_progress = shared.progress.load(std::memory_order_acquire);
    bool moved = ticket.hub->AwaitChange(ticket.epoch,
                                         shared.config.wait_timeout_micros);
    if (shared.condemned[index].load(std::memory_order_acquire) !=
        kNotCondemned) {
      break;  // consumed at the next safe point
    }
    // A footprint was released somewhere: retry. Past the deadline, the
    // caller's next check fails the run.
    if (moved || Clock::now() > shared.deadline) break;
    const Detection detection = TryDetectDeadlock(shared);
    if (detection == Detection::kBusy) continue;
    if (detection == Detection::kResolving ||
        shared.progress.load(std::memory_order_acquire) != seen_progress ||
        shared.running.load(std::memory_order_acquire) > 0) {
      strikes = 0;
      continue;
    }
    if (++strikes > shared.config.stall_patience) {
      shared.Fail(Status::Internal(
          "engine stalled: blocked transactions but no waits-for cycle"));
      break;
    }
  }
  shared.running.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(shared.detect_mu);
  shared.waiting[worker.slot] = WaitingSlot{};
}

/// Rolls the incarnation back and pays the RestartPolicy backoff.
void RestartTxn(EngineShared& shared, TxnRunner& runner,
                TxnRunner::Cause cause) {
  runner.Restart(cause);
  shared.Progress();
  SleepMicros(
      TicksToMicros(runner.BackoffDelay(), shared.config.backoff_unit_micros));
}

/// Drives one transaction until it commits or crashes. Returns false iff
/// the run failed (shared.failure holds why).
bool RunOneTxn(EngineShared& shared, Worker& worker, size_t index) {
  TxnRunner& runner = worker.runner;
  runner.Begin(static_cast<TxnId>(index + 1));
  std::vector<TxnId> wounded;
  for (;;) {
    if (shared.HasFailed()) return false;
    if (Clock::now() > shared.deadline) {
      shared.Fail(Status::DeadlineExceeded("engine exceeded max_wall_micros"));
      return false;
    }
    // Safe point: honor a wound / deadlock condemnation before any further
    // work under this incarnation.
    uint8_t why = shared.condemned[index].exchange(kNotCondemned,
                                                   std::memory_order_acq_rel);
    if (why != kNotCondemned) {
      RestartTxn(shared, runner,
                 why == kWounded ? TxnRunner::Cause::kWound
                                 : TxnRunner::Cause::kDeadlock);
      continue;
    }
    if (runner.finished()) {
      runner.Commit();
      shared.Progress();
      return true;
    }
    TxnRunner::Outcome outcome = runner.Step(&wounded);
    // The victims' workers roll them back at their next safe point.
    DeliverCondemnations(shared, wounded, kWounded);
    switch (outcome) {
      case TxnRunner::Outcome::kGranted:
        // Simulated I/O, paid while holding the scheduler footprint: this
        // is what makes thread scaling visible even on one core.
        SleepMicros(shared.config.op_latency_micros);
        shared.Progress();
        break;
      case TxnRunner::Outcome::kSkipped:
        shared.Progress();
        break;
      case TxnRunner::Outcome::kWait:
        ++worker.wait_events;
        AwaitRetry(shared, worker, index);
        break;  // retry the same pc (or consume the condemnation)
      case TxnRunner::Outcome::kRestart:
        RestartTxn(shared, runner, runner.cause());
        break;
      case TxnRunner::Outcome::kLatencySpike:
        SleepMicros(TicksToMicros(runner.spike_ticks(),
                                  shared.config.backoff_unit_micros));
        break;
      case TxnRunner::Outcome::kCrash:
        runner.Crash();
        shared.Progress();
        return true;
      case TxnRunner::Outcome::kFailed:
        shared.Fail(runner.failure());
        return false;
    }
  }
}

void WorkerMain(EngineShared& shared, Worker& worker) {
  const size_t n = shared.run.scripts().size();
  for (;;) {
    size_t index = shared.next_txn.fetch_add(1, std::memory_order_relaxed);
    if (index >= n) return;
    shared.running.fetch_add(1, std::memory_order_acq_rel);
    bool ok = RunOneTxn(shared, worker, index);
    shared.running.fetch_sub(1, std::memory_order_acq_rel);
    if (!ok) return;
  }
}

}  // namespace

Result<EngineResult> RunEngine(SchedulerPolicy& policy,
                               const std::vector<TxnScript>& scripts,
                               const EngineConfig& config) {
  NSE_RETURN_IF_ERROR(config.Validate());
  if (config.restart.max_restarts_before_boost > 0) {
    return Status::Unimplemented(
        "the starvation watchdog (max_restarts_before_boost) is "
        "simulator-only");
  }
  if (config.restart.max_live_txns > 0) {
    return Status::Unimplemented(
        "the admission gate (max_live_txns) is simulator-only");
  }

  RunContext run(policy, scripts, config, config.threads == 1);
  EngineShared shared(run, config);
  std::deque<Worker> workers;  // stable addresses: runners point at tallies
  std::vector<std::thread> threads;
  for (size_t i = 0; i < config.threads; ++i) {
    Worker& worker = workers.emplace_back(shared, i);
    threads.emplace_back([&shared, &worker] { WorkerMain(shared, worker); });
  }
  for (std::thread& thread : threads) thread.join();

  if (shared.HasFailed()) {
    std::lock_guard<std::mutex> lock(shared.fail_mu);
    return shared.failure;
  }
  EngineResult result;
  for (const Worker& worker : workers) {
    result.Absorb(worker.tally);
    result.wait_events += worker.wait_events;
  }
  if (result.completed + result.crashes != scripts.size()) {
    return Status::Internal(
        "engine finished without committing every transaction");
  }
  run.Finish(result);
  result.wall_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            shared.start)
          .count());
  result.threads = config.threads;
  result.throughput_tps =
      result.wall_micros == 0
          ? 0
          : static_cast<double>(result.completed) * 1e6 /
                static_cast<double>(result.wall_micros);
  return result;
}

}  // namespace nse
