// Scheduler-boundary observer: a forwarding SchedulerPolicy that times
// every call the engine workers or the tick simulator make into the
// policy it wraps, and counts the verdicts.
//
// It forwards RequestAccess, Commit, Abort, Blockers, veto_events and
// Poke; kWait grants are returned verbatim, so waiters block on the inner
// policy's hub; condemnations the inner policy queues are moved onto this
// wrapper's queue inside RequestAccess, where the caller drains them.
//
// Recording is lock-free: a transaction is driven by one thread at a time
// (the engine worker that claimed it, or the simulator), so each
// transaction's record is written only by that thread, and the records
// are read once the run has returned. Records are cache-line aligned
// so workers on neighbouring transaction ids do not share lines.
//
// The verdict counts reconcile exactly with the run's own counters —
// Reconcile() checks them against EngineResult and SimResult.

#ifndef NSE_PERFBENCH_OBSERVER_H_
#define NSE_PERFBENCH_OBSERVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "harness.h"
#include "scheduler/scheduler.h"
#include "scheduler/sim.h"

namespace perfbench {

class ObservedPolicy final : public nse::SchedulerPolicy {
 public:
  /// What one recorded call was.
  enum class Call : uint8_t { kRequest, kWait, kCommit, kAbort };

  struct CallSpan {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    Call call = Call::kRequest;
  };

  /// Per-transaction record (index txn - 1).
  struct alignas(64) TxnRecord {
    uint64_t first_request_ns = 0;  ///< 0 = never requested
    uint64_t commit_ns = 0;         ///< end of the Commit call
    uint64_t wait_since_ns = 0;     ///< kWait answered, next call pending
    uint64_t requests = 0;
    uint64_t granted = 0;
    uint64_t waits = 0;
    uint64_t self_aborts = 0;  ///< kAbortSelf verdicts
    uint64_t skips = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;  ///< Abort calls, any cause
    std::vector<CallSpan> spans;
  };

  /// Sums over every transaction, read at quiescence.
  struct Totals {
    uint64_t requests = 0;
    uint64_t granted = 0;
    uint64_t waits = 0;
    uint64_t self_aborts = 0;
    uint64_t skips = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t max_txn_aborts = 0;
    uint64_t policy_ns = 0;  ///< time inside RequestAccess/Commit/Abort
    uint64_t wait_ns = 0;    ///< kWait verdict to the next call
    uint64_t last_commit_ns = 0;
  };

  /// Wraps `inner` (not owned) for a run of `num_txns` transactions with
  /// ids 1..num_txns.
  ObservedPolicy(nse::SchedulerPolicy& inner, size_t num_txns);

  std::string name() const override { return inner_.name(); }
  nse::Result<nse::AccessGrant> RequestAccess(
      nse::TxnId txn, const nse::TxnScript& script, size_t step) override;
  std::vector<nse::TxnId> Blockers(nse::TxnId txn,
                                   const nse::TxnScript& script,
                                   size_t step) const override {
    return inner_.Blockers(txn, script, step);
  }
  uint64_t veto_events() const override { return inner_.veto_events(); }
  void Poke() override;

  const std::vector<TxnRecord>& records() const { return records_; }
  Totals Summarize() const;

  /// Checks the verdict counts against the run's counters; returns the
  /// mismatches (empty = reconciled).
  std::vector<std::string> Reconcile(const nse::EngineResult& result) const;
  std::vector<std::string> Reconcile(const nse::SimResult& result) const;

  /// Scheduler-boundary figures of one run that used `threads` calling
  /// threads between `start_ns` and `end_ns`: call-latency percentiles,
  /// verdict ratios, busy and wait shares of the workers' time, and
  /// transaction latency (first request to commit). Keys are the
  /// scheduler.* metrics and the engine.* metrics the observer can see.
  LayerSample Sample(size_t threads, uint64_t start_ns,
                     uint64_t end_ns) const;

  /// Appends one span per transaction (first request to commit, parented
  /// under `parent`) and one per recorded call (parented under its
  /// transaction's span); the transaction id is the request id.
  void AppendSpans(SpanLog& log, uint64_t parent) const;

 protected:
  void DoCommit(nse::TxnId txn) override;
  void DoAbort(nse::TxnId txn) override;

 private:
  TxnRecord& RecordOf(nse::TxnId txn) { return records_[txn - 1]; }
  /// Closes a pending wait of `rec` at `now`.
  static void EndWait(TxnRecord& rec, uint64_t now);

  nse::SchedulerPolicy& inner_;
  std::vector<TxnRecord> records_;
};

}  // namespace perfbench

#endif  // NSE_PERFBENCH_OBSERVER_H_
