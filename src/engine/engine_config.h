// Shared run configuration for the two scheduler drivers — the wall-clock
// multithreaded engine (engine.h) and the deterministic tick simulator
// (scheduler/sim.h). Every knob combination is checked by Validate(),
// which both drivers invoke at entry, so inconsistent combinations are
// rejected instead of silently accepted.
//
// The RestartPolicy (backoff shape, starvation watchdog, admission gate)
// lives here too, along with the pure backoff-delay function both drivers
// share; the simulator interprets delays as ticks, the engine as multiples
// of backoff_unit_micros.

#ifndef NSE_ENGINE_ENGINE_CONFIG_H_
#define NSE_ENGINE_ENGINE_CONFIG_H_

#include <cstdint>

#include "common/status.h"
#include "txn/operation.h"

namespace nse {

class FaultPlan;

/// Governs how aborted transactions re-enter the system and how many
/// transactions may be live at once. The defaults reproduce the historical
/// behavior bit-for-bit: linear backoff min(2 + 4*n, 128), no jitter, no
/// watchdog, no admission gate.
struct RestartPolicy {
  /// Backoff shape as a function of the transaction's restart count n
  /// (n >= 1 at the first computation), before jitter and capping.
  enum class Backoff {
    kImmediate,    ///< re-enter next tick
    kFixed,        ///< base ticks, every time
    kLinear,       ///< base + step * n   (legacy default)
    kExponential,  ///< base << (n - 1), capped — the thundering-herd shape
  };
  Backoff backoff = Backoff::kLinear;
  uint64_t base = 2;    ///< first-restart delay (ticks)
  uint64_t step = 4;    ///< linear slope (kLinear only)
  uint64_t cap = 128;   ///< upper bound on the computed delay
  /// Deterministic jitter: a pure-function draw from [0, jitter] (keyed on
  /// jitter_seed, txn, restart count) added to the delay, de-synchronizing
  /// victims of the same conflict without breaking reproducibility.
  uint64_t jitter = 0;
  uint64_t jitter_seed = 1;
  /// Starvation watchdog: once a transaction's restart count exceeds this,
  /// it is *boosted* rather than left to lose every future race. The
  /// lowest-id boosted unfinished transaction holds the privilege (zero
  /// backoff, scanned first each tick); other boosted ones are *parked*
  /// until it finishes, since two free restarters can re-abort each other
  /// forever. 0 disables. Simulator-only; the engine rejects it
  /// (Unimplemented).
  uint64_t max_restarts_before_boost = 0;
  /// Admission gate: max transactions live (admitted, not yet done) at
  /// once. 0 = unlimited. Arrivals beyond the gate are queued (admitted in
  /// (arrival, id) order as slots free) or shed (dropped, counted, never
  /// run) per `overflow`. Simulator-only; the engine rejects it.
  size_t max_live_txns = 0;
  enum class Overflow { kQueue, kShed };
  Overflow overflow = Overflow::kQueue;
};

/// Run limits and switches for both drivers. Aggregate-constructible with
/// the historical defaults (`EngineConfig{}` is the legacy SimConfig).
struct EngineConfig {
  // ---- shared knobs (simulator and engine) ------------------------------
  /// Simulator: hard tick stop (error if exceeded).
  uint64_t max_ticks = 1'000'000;
  /// Consecutive fully-stalled scheduling rounds (blocked transactions, no
  /// waits-for cycle, no transaction running or in deliberate backoff)
  /// tolerated before the run is declared wedged. The simulator counts
  /// ticks, the engine timed-out waits. Optimistic policies resolve such stalls
  /// themselves — an SGT veto escalates to kAbortSelf after its veto
  /// threshold — so drivers must not error on the first cycle-free stall.
  uint64_t stall_patience = 64;
  /// Restart governance: backoff, starvation watchdog, admission gate.
  RestartPolicy restart;
  /// Optional fault injection (not owned; nullptr = no faults). Both
  /// drivers run it; arrival perturbation only matters to the simulator.
  const FaultPlan* faults = nullptr;

  // ---- engine-only knobs (ignored by the simulator) ---------------------
  /// Worker threads driving transactions concurrently.
  size_t threads = 1;
  /// Upper bound on one hub wait before a blocked worker re-checks its
  /// condemned flag and the global progress counter (the deadlock
  /// detector's polling cadence, and the safety net against any missed
  /// wakeup).
  uint64_t wait_timeout_micros = 200;
  /// Engine interpretation of one tick of delay (RestartBackoffDelay and
  /// FaultPlan latency spikes count ticks; the engine sleeps
  /// ticks * backoff_unit_micros). Validate rejects a backoff cap whose
  /// product with it overflows the longest sleep the clock can express.
  uint64_t backoff_unit_micros = 20;
  /// Simulated per-operation I/O latency: each executed operation sleeps
  /// this long while holding its scheduler footprint. 0 = pure CPU. This
  /// is the knob that makes thread-scaling measurable on small hosts:
  /// sleeps overlap across workers even on a single core.
  uint64_t op_latency_micros = 0;
  /// Hard wall-clock deadline for one engine run (error if exceeded).
  uint64_t max_wall_micros = 30'000'000;

  /// Rejects inconsistent knob combinations (both drivers call this at
  /// entry).
  Status Validate() const;
};

/// The restart delay for a transaction entering its n-th restart
/// (n = restart count, >= 1). Pure function of (policy, txn, n) so replays
/// are bit-identical. The cap applies to the shape, whose arithmetic
/// saturates at it; jitter rides on top, and the sum saturates at
/// UINT64_MAX instead of wrapping.
/// Shared by both drivers (ticks for the simulator; the engine multiplies
/// by backoff_unit_micros).
uint64_t RestartBackoffDelay(const RestartPolicy& rp, TxnId txn, uint64_t n);

}  // namespace nse

#endif  // NSE_ENGINE_ENGINE_CONFIG_H_
