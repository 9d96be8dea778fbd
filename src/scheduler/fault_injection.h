// Deterministic fault injection for the scheduler drivers. A FaultPlan is
// a pure function from (seed, txn, incarnation, step) to fault decisions —
// every query re-derives its answer from a dedicated Rng::Split stream, so
// the plan carries no mutable state and two runs over the same plan see
// the same faults. Four fault classes, each with its own stream family:
//
//   * client aborts — an incarnation picks (probabilistically) one step at
//     which the client gives up; the transaction rolls back and retries.
//     Capped per txn (max_client_aborts_per_txn) so injected aborts can
//     never starve a transaction forever.
//   * crash-at-op — a transaction may crash the first time it reaches a
//     drawn step: its footprint is retracted like an abort, but it never
//     restarts, so no later re-execution papers over residual state.
//   * latency spikes — before a step the client stalls a drawn number of
//     ticks (page fault, GC pause, slow round-trip), shifting every later
//     conflict window.
//   * arrival perturbation — each arrival tick is delayed by a drawn
//     offset, reshuffling the simulator's admission order.
//
// Both drivers consult the plan through EngineConfig::faults, in the
// TxnRunner they share (txn_runner.h); policies never see it — faults
// arrive through the same Abort / restart machinery real aborts use.

#ifndef NSE_SCHEDULER_FAULT_INJECTION_H_
#define NSE_SCHEDULER_FAULT_INJECTION_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/rng.h"
#include "txn/operation.h"

namespace nse {

/// Knobs of a deterministic fault plan. All probabilities are per-draw
/// Bernoulli parameters in [0, 1]; 0 disables the fault class.
struct FaultPlanConfig {
  uint64_t seed = 1;
  /// Per incarnation: probability that the client spontaneously aborts at
  /// one uniformly drawn step of its script.
  double client_abort_probability = 0.0;
  /// Injected client aborts stop firing for a transaction after this many
  /// have fired (the forward-progress cap; policy/deadlock restarts are
  /// not counted against it).
  uint64_t max_client_aborts_per_txn = 2;
  /// Per transaction: probability that it crashes (terminally) the first
  /// time it reaches a uniformly drawn step.
  double crash_probability = 0.0;
  /// Per (incarnation, step): probability of a latency spike before the op.
  double latency_spike_probability = 0.0;
  /// Spike length is drawn uniformly from [1, max_latency_spike_ticks].
  uint64_t max_latency_spike_ticks = 8;
  /// Arrival ticks are delayed by a uniform draw from [0, max_arrival_delay].
  uint64_t max_arrival_delay = 0;
};

/// A reproducible fault schedule (see file comment). Stateless and
/// const-queryable: the same (txn, incarnation, step) always gets the same
/// answer.
class FaultPlan {
 public:
  explicit FaultPlan(const FaultPlanConfig& config);

  const FaultPlanConfig& config() const { return config_; }

  /// The perturbed arrival tick for `txn` (>= the scripted arrival).
  uint64_t PerturbedArrival(TxnId txn, uint64_t scripted_arrival) const;

  /// The step at whose first attempt `txn` crashes terminally, or nullopt
  /// if this transaction never crashes. `script_len` 0 never crashes.
  std::optional<size_t> CrashStep(TxnId txn, size_t script_len) const;

  /// True iff incarnation `incarnation` of `txn` spontaneously aborts when
  /// it attempts `step`. Never fires once `aborts_so_far` has reached the
  /// per-txn cap.
  bool ClientAbortsAt(TxnId txn, uint64_t incarnation, size_t step,
                      size_t script_len, uint64_t aborts_so_far) const;

  /// Latency spike (in ticks, 0 = none) injected before incarnation
  /// `incarnation` of `txn` issues `step`.
  uint64_t LatencySpikeAt(TxnId txn, uint64_t incarnation, size_t step) const;

  /// True iff every fault class is disabled (the plan is a no-op).
  bool empty() const;

 private:
  FaultPlanConfig config_;
  Rng base_;
};

}  // namespace nse

#endif  // NSE_SCHEDULER_FAULT_INJECTION_H_
