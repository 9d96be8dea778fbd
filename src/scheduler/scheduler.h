// Scheduler substrate: the runnable counterpart of the paper's schedule
// classes. Transactions are *scripts* — access plans (action, item) known up
// front, i.e. the straight-line / fixed-structure setting of Theorem 1 and
// of [14] — and a SchedulerPolicy decides, operation by operation, whether
// a transaction may proceed.
//
// The policy contract is thread-safe: any number of engine workers (or the
// single-threaded tick simulator, which implements the same interface
// deterministically) may call RequestAccess / Commit / Abort concurrently.
// A request answers with an AccessGrant instead of a bare enum:
//   - kGranted carries a trace sequence number drawn inside the policy's
//     grant-ordering critical section, so the committed trace can be
//     linearized exactly as the policy serialized the conflicts;
//   - kWait carries a WaitTicket (hub + epoch observed *before* the failed
//     attempt), so a waiter can block on the hub without lost wakeups
//     instead of polling;
//   - wounds (policy-condemned *other* transactions) are queued on the
//     policy and drained by the driver via DrainCondemned().
// Commit/Abort are non-virtual shells around DoCommit/DoAbort that always
// Poke() the wait hub afterwards — releasing a footprint is precisely what
// unblocks waiters, and making the notify structural means no policy can
// forget it.

#ifndef NSE_SCHEDULER_SCHEDULER_H_
#define NSE_SCHEDULER_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "state/database.h"
#include "txn/operation.h"

namespace nse {

/// One planned access of a scripted transaction.
struct AccessStep {
  OpAction action = OpAction::kRead;
  ItemId item = 0;
};

/// A scripted transaction: its full access plan plus arrival time.
struct TxnScript {
  std::vector<AccessStep> steps;
  uint64_t arrival_tick = 0;

  /// Index of the last step touching an item of `d`, or SIZE_MAX if none.
  size_t LastStepTouching(const DataSet& d) const;
};

/// Verdict of a policy for an access request.
enum class AccessVerdict {
  kGranted,    ///< perform the operation now
  kWait,       ///< blocked; block on the grant's WaitTicket and retry
  kAbortSelf,  ///< abort the requesting txn and restart it from scratch
               ///< (optimistic policies: waiting cannot resolve the
               ///< conflict, e.g. an SGT veto against committed edges)
  kSkip,       ///< the step is logically subsumed and must not execute:
               ///< the txn advances past it and nothing enters the
               ///< committed trace (Thomas write rule — an obsolete
               ///< write overwritten, in timestamp order, by a newer
               ///< one that already happened)
};

/// A notification rendezvous for blocked requesters. Waiters snapshot the
/// epoch *before* their failed attempt and sleep until it moves past that
/// snapshot; any footprint release bumps the epoch under the hub mutex, so
/// a wakeup between decision and sleep cannot be lost.
class WaitHub {
 public:
  /// Current epoch. Snapshot this *before* the attempt whose failure you
  /// would wait out.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Bumps the epoch and wakes all waiters.
  void Notify();

  /// Blocks until the epoch differs from `seen` or `timeout_micros` elapse.
  /// Returns true iff the epoch moved (false = timeout). A stale `seen`
  /// returns true immediately.
  bool AwaitChange(uint64_t seen, uint64_t timeout_micros);

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<uint64_t> epoch_{0};
};

/// Where (and from when) a kWait verdict should be waited out.
struct WaitTicket {
  WaitHub* hub = nullptr;
  uint64_t epoch = 0;  ///< hub epoch observed before the failed attempt
};

/// Which version a granted read observed, for multiversion policies. A
/// multiversion trace has no positional reads-from — a read may be served
/// a version older than the latest preceding write — so the grant itself
/// records the producing writer, and the drivers surface the annotation
/// alongside the committed trace (SimResult/EngineResult read_sources).
struct VersionRead {
  TxnId writer = 0;   ///< transaction whose write produced the version
                      ///< (0 = the initial state; may be the reader
                      ///< itself for reads of its own pending write)
  int64_t value = 0;  ///< the version's value; the drivers trace it as
                      ///< the read's recorded value
};

/// Answer to one access request.
struct AccessGrant {
  AccessVerdict verdict = AccessVerdict::kGranted;
  /// kGranted only: position of this operation in the policy's conflict
  /// serialization. Strictly increasing along every conflict edge the
  /// policy admitted, so sorting committed operations by trace_seq yields
  /// a history equivalent to what the threads actually did.
  uint64_t trace_seq = 0;
  /// kWait only: rendezvous for the retry.
  WaitTicket wait;
  /// kGranted reads under a multiversion policy: the version observed.
  /// Single-version policies leave it absent and the drivers fall back to
  /// the single-version value plane.
  std::optional<VersionRead> read_view;
};

/// A pluggable, thread-safe concurrency-control policy.
///
/// The driver (engine worker or tick simulator) calls RequestAccess before
/// a transaction's next step; a kGranted verdict means the step executes
/// now (any release work for non-strict policies already happened inside
/// the call). Commit / Abort end a transaction's footprint (an aborted
/// transaction restarts from its first step with the same id).
///
/// Thread-safety contract: RequestAccess, Commit, Abort, Blockers and
/// DrainCondemned may be called concurrently from any thread. Statistics
/// accessors (veto_events and subclass counters/structure accessors) are
/// only required to be exact at quiescence — after every driver thread has
/// joined.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  /// Human-readable policy name (appears in benchmark output).
  virtual std::string name() const = 0;

  /// May transaction `txn` perform `script.steps[step]` now?
  /// Returns a non-OK Status only for malformed requests (`step` out of
  /// range); scheduling outcomes — including aborts — are verdicts, not
  /// errors.
  virtual Result<AccessGrant> RequestAccess(TxnId txn, const TxnScript& script,
                                            size_t step) = 0;

  /// Called when `txn` performed its last step. Non-virtual shell:
  /// retraction (DoCommit) then a structural Poke() so waiters re-check.
  void Commit(TxnId txn) {
    DoCommit(txn);
    Poke();
  }

  /// Called when `txn` aborts — as a deadlock victim, a wound victim, after
  /// its own kAbortSelf verdict, or through an injected fault (client
  /// abort / terminal crash). DoAbort must fully retract `txn`'s footprint
  /// (locks, graph edges, stamps) and must be idempotent: a crash-at-op
  /// fault can abort a transaction that already aborted and never ran
  /// again, so a repeated Abort for the same quiescent txn must be a
  /// harmless no-op.
  void Abort(TxnId txn) {
    DoAbort(txn);
    Poke();
  }

  /// Transactions currently blocking `txn`'s pending request (for deadlock
  /// detection). Only meaningful while `txn` is waiting out a kWait
  /// verdict for this step. May be called from a detector thread while
  /// other transactions are mid-request.
  virtual std::vector<TxnId> Blockers(TxnId txn, const TxnScript& script,
                                      size_t step) const = 0;

  /// RequestAccess calls this policy answered kWait because granting the
  /// access would have violated the policy's schedule-class guarantee (an
  /// SGT cycle veto), as opposed to an ordinary lock wait. Lock-based
  /// policies report 0; drivers copy the count into their result vetoes.
  virtual uint64_t veto_events() const { return 0; }

  /// Transactions this policy condemned during recent RequestAccess calls,
  /// *other than the requesters* — wound-wait wounding a younger lock
  /// holder, the SGT victim-choice policy condemning the cheapest active
  /// cycle participant. The driver drains the queue after every request
  /// and rolls each victim back through the shared restart path (they
  /// restart from scratch, like deadlock victims). Victims must be active
  /// transactions and must never include the requester — the requester
  /// aborts itself by returning kAbortSelf instead. Each condemnation is
  /// delivered exactly once.
  std::vector<TxnId> DrainCondemned() {
    std::lock_guard<std::mutex> lock(condemned_mu_);
    std::vector<TxnId> out;
    out.swap(condemned_);
    return out;
  }

  /// Wakes every waiter on this policy's hub. Called structurally after
  /// Commit/Abort; policies that release footprint *inside* RequestAccess
  /// (predicatewise 2PL's per-conjunct release) call it themselves at the
  /// release point. Wrappers override to forward to inner policies.
  virtual void Poke() { hub_.Notify(); }

 protected:
  /// Retract `txn`'s footprint after its last step committed.
  virtual void DoCommit(TxnId txn) = 0;

  /// Retract `txn`'s footprint after an abort (idempotent; see Abort).
  virtual void DoAbort(TxnId txn) = 0;

  /// Next trace sequence number. Call inside the grant-ordering critical
  /// section (while holding the item lock / policy mutex that serialized
  /// the conflict) so seq order embeds conflict order.
  uint64_t NextTraceSeq() {
    return 1 + trace_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Queue `victim` for the driver's wound path (DrainCondemned).
  void Condemn(TxnId victim) {
    std::lock_guard<std::mutex> lock(condemned_mu_);
    condemned_.push_back(victim);
  }

  /// Ticket for *this* policy's hub, stamped with the current epoch.
  /// Take it before the decision work of a request that may answer kWait.
  WaitTicket MakeTicket() { return WaitTicket{&hub_, hub_.epoch()}; }

  /// Grant helpers.
  AccessGrant Granted() {
    return AccessGrant{AccessVerdict::kGranted, NextTraceSeq(), WaitTicket{},
                       std::nullopt};
  }
  /// Granted read with a version annotation (multiversion policies).
  AccessGrant GrantedRead(TxnId writer, int64_t value) {
    AccessGrant grant = Granted();
    grant.read_view = VersionRead{writer, value};
    return grant;
  }
  static AccessGrant WaitOn(WaitTicket ticket) {
    return AccessGrant{AccessVerdict::kWait, 0, ticket, std::nullopt};
  }
  static AccessGrant AbortSelf() {
    return AccessGrant{AccessVerdict::kAbortSelf, 0, WaitTicket{},
                       std::nullopt};
  }
  static AccessGrant Skip() {
    return AccessGrant{AccessVerdict::kSkip, 0, WaitTicket{}, std::nullopt};
  }

  /// Malformed-request guard shared by every policy.
  static Status CheckStep(const TxnScript& script, size_t step) {
    if (step >= script.steps.size()) {
      return Status::OutOfRange("access step index out of range");
    }
    return Status::Ok();
  }

 private:
  WaitHub hub_;
  std::atomic<uint64_t> trace_seq_{0};
  std::mutex condemned_mu_;
  std::vector<TxnId> condemned_;
};

/// Test / single-threaded convenience: request an access and return just
/// the verdict, aborting on a malformed request. The step-by-step policy
/// unit tests drive the contract through this.
inline AccessVerdict Access(SchedulerPolicy& policy, TxnId txn,
                            const TxnScript& script, size_t step) {
  Result<AccessGrant> grant = policy.RequestAccess(txn, script, step);
  NSE_CHECK_MSG(grant.ok(), "malformed access request");
  return grant->verdict;
}

}  // namespace nse

#endif  // NSE_SCHEDULER_SCHEDULER_H_
