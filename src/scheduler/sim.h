// Tick-based concurrency simulator. Each tick, every live (admitted,
// unfinished) transaction attempts its next scripted operation; the policy
// grants or blocks it.
// Deadlocks are detected on the waits-for graph and resolved by aborting the
// largest-id transaction in the cycle, which restarts from scratch. The
// result carries performance metrics (waits, makespan, throughput) and the
// committed trace, which the analysis checkers verify against the class
// the policy promises (CSR / PWSR / DR).
//
// Transactions step through the TxnRunner (txn_runner.h) the threaded
// engine uses; what stays here is the tick loop. An optional FaultPlan
// (fault_injection.h) injects client aborts, crashes, latency spikes and
// arrival perturbation, and a RestartPolicy governs re-entry: backoff
// shape with deterministic jitter, plus two tick-scheduling ideas only
// this driver has — a starvation watchdog that boosts a transaction past
// its restart cap, and an admission gate (max live transactions; overflow
// queued or shed).
//
// Cost: a tick costs O(live + boosted) plus the policy calls it makes, not
// O(scripts). The driver keeps its working set explicit — a sorted live
// set, a sorted boosted set, an admission cursor and a done counter — and
// never loops over all scripts inside a tick. Scan order: boosted
// transactions first in id order, then the live ids in order from the
// first id >= tick % n, wrapping round (n = scripts.size()). That is the
// order of a rotated scan over every id with the non-live ones skipped, so
// a run is bit-identical to that scan's: same trace, same counters.

#ifndef NSE_SCHEDULER_SIM_H_
#define NSE_SCHEDULER_SIM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/engine_config.h"
#include "scheduler/scheduler.h"
#include "scheduler/txn_runner.h"

namespace nse {

/// Aggregate outcome of one simulation run: the shared RunResult ledger
/// plus the tick-scheduling figures.
struct SimResult : RunResult {
  uint64_t makespan = 0;           ///< tick after the last completion
  uint64_t shed = 0;               ///< arrivals dropped by the admission gate
  uint64_t boosts = 0;             ///< starvation-watchdog escalations
  uint64_t backoff_ticks = 0;      ///< total deliberate restart-delay ticks
  uint64_t total_wait_ticks = 0;   ///< ticks spent blocked, all txns
  double avg_response_ticks = 0;   ///< mean completion − arrival (committed)
  double throughput = 0;           ///< completed / makespan
};

/// Runs `scripts` under `policy`. Transaction ids are 1-based script
/// indices. Fails on an invalid `config` (EngineConfig::Validate), with
/// DeadlineExceeded past `config.max_ticks`, or with Internal on a stall
/// without a detectable deadlock (a policy bug). Engine-only knobs (threads, wait timeouts, latency) are
/// ignored. Crashed and shed transactions never commit — everything else
/// must (the chaos harness's forward-progress contract).
Result<SimResult> RunSimulation(SchedulerPolicy& policy,
                                const std::vector<TxnScript>& scripts,
                                const EngineConfig& config = EngineConfig());

}  // namespace nse

#endif  // NSE_SCHEDULER_SIM_H_
