// Wall-clock multithreaded transaction engine: N worker threads drive
// scripted transactions against a shared SchedulerPolicy for real — OS
// threads, blocking waits, wound delivery and deadlock detection under
// races — where the tick simulator (scheduler/sim.h) drives the same
// policy contract deterministically. Both step transactions through one
// TxnRunner (scheduler/txn_runner.h), which executes, buffers, commits,
// aborts, injects faults and governs restarts; what stays here is the
// worker loop, which sleeps a backoff or idles while parked. Each
// worker claims one transaction at a time and runs it to commit (or an
// injected crash). Blocked requests wait on the policy's WaitHub with a
// bounded timeout; a timed-out waiter doubles as the deadlock detector,
// diffing the waiting workers into a persistent WaitsForTracker and
// condemning the largest id of each cycle, as the simulator does, until
// no cycle is left.

#ifndef NSE_ENGINE_ENGINE_H_
#define NSE_ENGINE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/engine_config.h"
#include "scheduler/scheduler.h"
#include "scheduler/txn_runner.h"

namespace nse {

/// Aggregate outcome of one engine run: the shared RunResult ledger plus
/// wall-clock figures. Event counters are exact but their interleaving is
/// nondeterministic run to run; only `completed`, `crashes`, `shed`,
/// `total_ops` and the trace's class membership are stable contracts.
struct EngineResult : RunResult {
  uint64_t wait_events = 0;      ///< kWait verdicts (each = one hub wait)
  uint64_t wall_micros = 0;      ///< wall-clock duration of the run
  size_t threads = 0;            ///< worker threads used
  double throughput_tps = 0;     ///< committed transactions per second
};

/// Runs `scripts` under `policy` with `config.threads` workers, claimed in
/// id order (transaction ids are 1-based script indices; arrival ticks and
/// a FaultPlan's arrival perturbation are simulator notions: all arrive at
/// once, and an admission gate of g admits scripts 1..g). A latency spike
/// of k ticks sleeps k * backoff_unit_micros. Fails on an invalid config,
/// on a malformed policy request, on a stall with no waits-for cycle
/// (policy bug), or past max_wall_micros. On success completed + crashes
/// + shed == scripts.size().
Result<EngineResult> RunEngine(SchedulerPolicy& policy,
                               const std::vector<TxnScript>& scripts,
                               const EngineConfig& config = EngineConfig());

}  // namespace nse

#endif  // NSE_ENGINE_ENGINE_H_
