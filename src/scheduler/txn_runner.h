// The one transaction state machine under both scheduler drivers, the tick
// simulator (sim.h) and the threaded engine (engine/engine.h). A TxnRunner
// steps one transaction against the shared SchedulerPolicy and answers how
// a restart re-enters (RunContext holds the watchdog's boosted set and the
// admission gate); the drivers only decide *when* it steps and how it waits.
//
// The runner owns the incarnation (pc, skips, restarts, and a buffer of
// granted operations with their policy-issued trace_seq: commit appends
// it to the run's trace, kept as columns that RunContext::Finish places
// by seq in place; an abort drops it), the FaultPlan queries keyed on
// (txn, incarnation, step), the skip / commit / restart ledgers, and the
// value rule: a write stores and traces its trace_seq in the run's
// ShardedValueStore, a read traces the value it observed (the grant's
// read_view under a multiversion policy, else the store's value), and an
// aborted incarnation's writes are undone. So every traced read carries
// the traced value of the write it read from (0 = the initial state), the
// unique-value reads-from convention black-box history checkers rely on.

#ifndef NSE_SCHEDULER_TXN_RUNNER_H_
#define NSE_SCHEDULER_TXN_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"
#include "engine/engine_config.h"
#include "engine/sharded_store.h"
#include "scheduler/scheduler.h"
#include "txn/schedule.h"

namespace nse {

/// What both drivers report; SimResult and EngineResult add ticks or
/// wall-clock figures.
struct RunResult {
  uint64_t completed = 0;        ///< transactions committed
  uint64_t aborts = 0;           ///< deadlock victims (each restarts)
  uint64_t restarts = 0;         ///< policy-requested kAbortSelf events
  uint64_t wounds = 0;           ///< DrainCondemned victims (each restarts)
  uint64_t vetoes = 0;           ///< policy veto_events() at quiescence
  uint64_t skipped_ops = 0;      ///< kSkip verdicts (Thomas-rule elisions)
  /// kSkip verdicts of incarnations that committed; pins total_ops +
  /// committed_skipped_ops == sum of committed script lengths.
  uint64_t committed_skipped_ops = 0;
  uint64_t fault_aborts = 0;     ///< injected spontaneous client aborts
  uint64_t crashes = 0;          ///< injected terminal crash-at-op faults
  uint64_t latency_spike_ticks = 0;  ///< total injected latency-spike ticks
  uint64_t boosts = 0;           ///< starvation-watchdog escalations
  uint64_t shed = 0;             ///< arrivals dropped by the admission gate
  uint64_t max_txn_restarts = 0;  ///< max restarts of any single txn
  uint64_t total_ops = 0;        ///< committed operations in the trace
  Schedule schedule;             ///< committed trace, in trace_seq order
  /// Parallel to schedule.ops(): for a read granted with a read_view
  /// (multiversion policies), the writer of the observed version (0 = the
  /// initial state) — the MVSR checker's reads-from. Absent otherwise.
  std::vector<std::optional<TxnId>> read_sources;
  /// Restarts (of any kind) per transaction, index txn-1. Read-only
  /// transactions under MVTO/SI must show 0 here.
  std::vector<uint64_t> txn_restarts;

  /// Adds another ledger's event counters (max for max_txn_restarts).
  void Absorb(const RunResult& other);
};

/// How a restarted transaction re-enters: after BackoffDelay(), at once
/// (it holds the watchdog's privilege), or parked until a boosted
/// transaction retires.
enum class Reentry { kBackoff, kPrivileged, kParked };

/// What every transaction of one run shares (thread-safe: the store is
/// atomic per cell; the trace and the boosted set each have a mutex).
class RunContext {
 public:
  enum class Admission { kAdmit, kQueue, kShed };

  /// `one_driver_thread`: a single thread calls the policy, so every
  /// condemnation a request drains was issued by that request.
  RunContext(SchedulerPolicy& policy, const std::vector<TxnScript>& scripts,
             const EngineConfig& config, bool one_driver_thread);

  SchedulerPolicy& policy() const { return policy_; }
  const std::vector<TxnScript>& scripts() const { return scripts_; }

  /// Places the trace by trace_seq in place and hands it to `result` with
  /// read_sources, total_ops, vetoes and txn_restarts. Call once, last.
  void Finish(RunResult& result);

  /// The admission gate's verdict on an arrival that finds `live`
  /// transactions admitted and unfinished.
  Admission Admit(size_t live) const;
  /// The boosted, unfinished script indices, sorted; the first holds the
  /// watchdog's privilege. For a single driver thread (the simulator).
  const std::vector<size_t>& boosted() const { return boosted_; }

 private:
  friend class TxnRunner;

  /// A granted operation, with the writer of the version a read observed.
  struct BufferedOp {
    uint64_t trace_seq = 0;
    Operation op;
    std::optional<TxnId> read_from;
  };

  SchedulerPolicy& policy_;
  const std::vector<TxnScript>& scripts_;
  const EngineConfig& config_;
  const FaultPlan* faults_;  // nullptr when none (or an empty one) is set
  const bool one_driver_thread_;
  ShardedValueStore store_;
  std::mutex trace_mu_;
  OpSequence ops_;
  std::vector<std::optional<TxnId>> read_sources_;
  std::vector<uint64_t> seqs_;
  std::vector<uint64_t> txn_restarts_;  // written once per finished txn
  // The boosted set, and how many boosted transactions retired so far (the
  // privilege's moves, which parked transactions watch for).
  std::mutex governance_mu_;
  std::vector<size_t> boosted_;
  std::atomic<uint64_t> boosted_retired_{0};
};

/// Drives one transaction through its incarnations. One driver thread owns
/// a runner at a time.
class TxnRunner {
 public:
  /// Why an incarnation is rolled back; selects the ledger counter.
  enum class Cause { kDeadlock, kWound, kAbortSelf, kClientAbort };
  /// What one Step did; the driver reacts.
  enum class Outcome {
    kGranted,       ///< the step executed and was buffered; pc advanced
    kSkipped,       ///< kSkip verdict: pc advanced, nothing traced
    kWait,          ///< kWait verdict: wait out wait_ticket(), then retry
    kRestart,       ///< kAbortSelf or a client abort: Restart(cause())
    kCrash,         ///< injected terminal crash: Crash()
    kLatencySpike,  ///< injected stall of spike_ticks() before this step
    kFailed,        ///< malformed request or store error: failure()
  };

  /// Event counters go to `tally` (one per driver thread).
  TxnRunner(RunContext& context, RunResult& tally);

  /// Starts transaction `txn` (1-based script index) at its first step.
  void Begin(TxnId txn);

  size_t pc() const { return pc_; }
  uint64_t restarts() const { return restarts_; }
  /// True once the starvation watchdog boosted the transaction.
  bool boosted() const { return boosted_; }
  /// True once every step of the incarnation executed or was skipped.
  bool finished() const { return pc_ == script_->steps.size(); }

  /// Attempts the next step (never once finished()): fault queries, then
  /// RequestAccess. Condemned transactions land in `*condemned` for the
  /// driver to roll back before acting on the outcome. With one driver
  /// thread, condemning the requester is a policy bug (it must answer
  /// kAbortSelf) and aborts; with several, another worker's request may
  /// have condemned it, and the driver delivers that like any wound.
  Outcome Step(std::vector<TxnId>* condemned);

  const WaitTicket& wait_ticket() const { return wait_; }  ///< after kWait
  Cause cause() const { return cause_; }                   ///< after kRestart
  uint64_t spike_ticks() const { return spike_ticks_; }    ///< after a spike
  const Status& failure() const { return failure_; }       ///< after kFailed

  /// Publishes the buffer into the trace and commits the footprint.
  void Commit();
  /// Rolls the incarnation back (undo writes, policy Abort, drop the
  /// buffer), starts the next one at the first step, and answers how it
  /// re-enters (RestartPolicy::max_restarts_before_boost). A boosted wound
  /// or deadlock victim still pays the backoff: re-entering at once, it
  /// would re-take the lock its winner waits for, and lose again.
  Reentry Restart(Cause cause);
  /// Rolls the incarnation back for good: the transaction never commits.
  void Crash();
  /// The RestartPolicy delay (ticks) owed before the current incarnation.
  uint64_t BackoffDelay() const;
  /// After kParked: true until a boosted transaction retires (the
  /// privilege may move).
  bool parked() const {
    return context_.boosted_retired_.load(std::memory_order_acquire) ==
           parked_at_;
  }

 private:
  /// Executes a granted step against the store and buffers it.
  Status Execute(const AccessGrant& grant);
  /// Undoes the incarnation's writes, then retracts its footprint.
  void Retract();
  /// Leaves for good (commit or crash), passing on a held privilege.
  void Retire();

  struct Undo {  // a store write of this incarnation
    ItemId item;
    int64_t prior;
    int64_t written;
  };

  RunContext& context_;
  RunResult& tally_;
  TxnId txn_ = 0;
  const TxnScript* script_ = nullptr;
  size_t pc_ = 0;
  uint64_t skips_this_life_ = 0;
  uint64_t restarts_ = 0;
  bool boosted_ = false;
  uint64_t parked_at_ = 0;           // boosted retirements seen at kParked
  uint64_t fault_aborts_ = 0;        // injected, capped by the plan
  size_t crash_step_ = SIZE_MAX;     // terminal crash step, or never
  size_t spike_paid_pc_ = SIZE_MAX;  // last step latency-checked this life
  uint64_t spike_ticks_ = 0;
  Cause cause_ = Cause::kAbortSelf;
  WaitTicket wait_;
  Status failure_ = Status::Ok();
  std::vector<RunContext::BufferedOp> buffer_;
  std::vector<Undo> undo_;
};

}  // namespace nse

#endif  // NSE_SCHEDULER_TXN_RUNNER_H_
