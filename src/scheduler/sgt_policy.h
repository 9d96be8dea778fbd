// Serialization-graph-testing (SGT) scheduling: the optimistic,
// cycle-vetoing counterpart of the lock-based policies. The policy keeps an
// online incremental ConflictGraph (Pearce–Kelly mode) of every operation
// the simulator has executed — committed and active transactions alike —
// and, before admitting a step, derives the conflict edges that step would
// add (through ConflictAccessIndex, the paper's conflict rule with retraction)
// and asks WouldCloseCycle. An access whose edges keep the graph acyclic
// proceeds immediately, without any locks; an access that would close a
// conflict cycle is vetoed.
//
// A vetoed transaction waits only while some vetoing edge has a still-
// running source (its abort would retract that edge directly); once every
// vetoing edge comes from a committed predecessor the policy answers
// kAbortSelf at once — those edges never retract, and although an
// *active* transaction elsewhere on the cycle path could in principle
// break the cycle by aborting, the probe does not trace the path:
// restarting is always safe, and the immediate escalation keeps the
// policy independent of the driver's stall patience. Recurring vetoes
// against active sources escalate the same way after
// max_consecutive_vetoes straight vetoes (the livelock guard). The
// driver then rolls the transaction back (RemoveEdgesOf /
// ConflictAccessIndex::Erase retract its footprint) and restarts it.
//
// Concurrency: one policy mutex latches the graph, the access index and
// the per-txn bookkeeping — every request, retraction and Blockers query
// runs under it, which also makes the trace linearization sound (the
// sequence number is drawn in the same critical section that admitted the
// access). With gc_committed on, the old commit-time fixpoint scan over
// all transactions is replaced by an incremental worklist trim seeded by
// exactly the events that can newly expose a committed source (the commit
// itself; an abort's retraction stranding committed successors), so each
// trim does work proportional to what it frees rather than to the
// population.
//
// Every committed trace is therefore acyclic — CSR *by construction*
// (Papadimitriou [13] via the paper's footnote-2 baseline) — even though
// no two-phase rule is ever enforced. This is the scheduler-side consumer
// of the incremental cycle detection built in PR 3 (ADR 0004).

#ifndef NSE_SCHEDULER_SGT_POLICY_H_
#define NSE_SCHEDULER_SGT_POLICY_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "analysis/conflict_graph.h"
#include "scheduler/scheduler.h"

namespace nse {

/// SGT policy over a fixed transaction population (ids 1..num_txns, the
/// drivers' convention).
class SgtPolicy : public SchedulerPolicy {
 public:
  struct Options {
    /// Straight vetoes of one step before the policy gives up waiting and
    /// requests abort-restart (the livelock guard). Must be >= 1.
    uint64_t max_consecutive_vetoes = 4;
    /// Classical SGT committed-node garbage collection: after every commit
    /// (and abort), committed transactions with no predecessors left in the
    /// live graph are trimmed (incrementally, via a worklist seeded by the
    /// event) — their edges and access-index footprint removed. A committed node can never gain a new in-edge (it issues no
    /// further accesses), so a committed *source* can never sit on a future
    /// cycle: trimming it, its out-edges and its item histories changes no
    /// veto decision, while keeping the live footprint bounded by the
    /// active window of an unbounded transaction stream instead of growing
    /// with everything ever committed. Off by default so quiescence tests
    /// can compare the live graph against the full committed trace's.
    bool gc_committed = false;
    /// Victim scoring rule for the victim-choice subclass (the base policy
    /// always restarts the requester and ignores this).
    enum class VictimCost {
      /// Fewest operations recorded since the last (re)start — least sunk
      /// work lost. Backward-looking: a freshly (re)started transaction
      /// always scores 0, so on an extreme hotspot the rule re-condemns
      /// whichever participant it knocked down last round, forever.
      kSunkCost,
      /// Estimated cost to get the victim re-executed to completion:
      /// remaining script steps plus victim_backoff per prior restart.
      /// Forward-looking: prefers victims that are quick to replay, and
      /// the backoff term steers subsequent wounds away from transactions
      /// the policy keeps knocking down.
      kPredictive,
    };
    VictimCost victim_cost = VictimCost::kSunkCost;
    /// Per-prior-restart penalty added to a candidate's kPredictive score.
    uint64_t victim_backoff = 4;
  };

  explicit SgtPolicy(size_t num_txns);
  SgtPolicy(size_t num_txns, Options options);

  std::string name() const override { return "sgt"; }

  Result<AccessGrant> RequestAccess(TxnId txn, const TxnScript& script,
                                    size_t step) override;
  std::vector<TxnId> Blockers(TxnId txn, const TxnScript& script,
                              size_t step) const override;

  /// Accesses vetoed because they would have closed a conflict cycle.
  uint64_t veto_events() const override { return vetoes_; }

  /// Vetoed transactions that escalated to kAbortSelf.
  uint64_t restarts_requested() const { return restarts_requested_; }

  /// Committed transactions trimmed by the GC (0 unless gc_committed).
  uint64_t gc_trimmed() const { return gc_trimmed_; }

  /// Committed transactions still carrying graph/index footprint (i.e. not
  /// yet trimmed). Without GC this is simply everything committed so far.
  size_t live_committed_nodes() const { return live_committed_; }

  /// High-water mark of live_committed_nodes() across the run — what the
  /// GC keeps bounded on a long transaction stream.
  size_t max_live_committed_nodes() const { return max_live_committed_; }

  /// The live serialization graph (read-only; tests assert it stays acyclic
  /// and, at quiescence, equals the committed schedule's conflict graph —
  /// minus the trimmed footprint when GC is on).
  const ConflictGraph& graph() const { return graph_; }

 protected:
  void DoCommit(TxnId txn) override;
  void DoAbort(TxnId txn) override;

  /// The conflict predecessors whose edges veto txn's access to `step`
  /// right now (empty when the access is admissible). Blockers-only path
  /// and the victim-choice subclass's veto enumeration. Requires mu_.
  std::vector<TxnId> VetoingPredecessors(TxnId txn, const TxnScript& script,
                                         size_t step) const;

  struct VetoProbe {
    bool vetoed = false;          ///< some predecessor vetoes the access
    bool active_blocker = false;  ///< ... and at least one is still running
  };

  /// Decides the access in one pass over the item history, short-circuiting
  /// once both answers are known (the request hot path). `active_blocker`
  /// is set when some vetoing edge's *source* is still running — a wait
  /// that source's abort would directly resolve. It inspects only the
  /// closing edges, not the full cycle path (see the file comment).
  VetoProbe ProbeAccess(TxnId txn, const TxnScript& script,
                        size_t step) const;

  /// Materializes an admitted access: inserts its conflict edges, records
  /// it in the item history, bumps the txn's work counter. The access must
  /// have been cleared (no vetoing predecessor). Requires mu_.
  void AdmitAccess(TxnId txn, const TxnScript& script, size_t step);

  /// Incremental committed-node trim (no-op unless GC is on): processes
  /// `seeds` — transactions that may have just become predecessor-free
  /// committed sources — trimming each eligible one and pushing its
  /// committed successors, which the trim may in turn have freed. Reaches
  /// the same fixpoint as a full scan because only a trim or an abort's
  /// retraction ever removes predecessors, and both seed the transactions
  /// they affected. Requires mu_.
  void TrimCommitted(std::vector<TxnId> seeds);

  /// Latches graph_, index_ and all per-txn bookkeeping. The victim-choice
  /// subclass's RequestAccess runs under the same latch.
  mutable std::mutex mu_;
  Options options_;
  ConflictGraph graph_;         // incremental mode, nodes 1..num_txns
  ConflictAccessIndex index_;   // per-item histories, keyed by raw txn id
  std::vector<bool> committed_;            // by txn id
  std::vector<bool> trimmed_;              // by txn id (GC only)
  std::vector<uint64_t> consecutive_vetoes_;  // by txn id
  std::vector<uint64_t> steps_recorded_;   // by txn id: work since (re)start
  std::vector<uint64_t> script_total_;     // by txn id: script length, set on
                                           // first admitted access
  std::vector<uint64_t> restart_count_;    // by txn id: rollbacks so far
  uint64_t vetoes_ = 0;
  uint64_t restarts_requested_ = 0;
  uint64_t gc_trimmed_ = 0;
  size_t live_committed_ = 0;
  size_t max_live_committed_ = 0;
};

}  // namespace nse

#endif  // NSE_SCHEDULER_SGT_POLICY_H_
