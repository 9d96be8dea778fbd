#include "scheduler/txn_runner.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "scheduler/fault_injection.h"

namespace nse {

namespace {

/// Items [0, NumItems) cover every item the scripts touch.
size_t NumItems(const std::vector<TxnScript>& scripts) {
  ItemId max_item = 0;
  for (const TxnScript& script : scripts) {
    for (const AccessStep& step : script.steps) {
      max_item = std::max(max_item, step.item);
    }
  }
  return static_cast<size_t>(max_item) + 1;
}

}  // namespace

void RunResult::Absorb(const RunResult& other) {
  completed += other.completed;
  aborts += other.aborts;
  restarts += other.restarts;
  wounds += other.wounds;
  skipped_ops += other.skipped_ops;
  committed_skipped_ops += other.committed_skipped_ops;
  fault_aborts += other.fault_aborts;
  crashes += other.crashes;
  latency_spike_ticks += other.latency_spike_ticks;
  max_txn_restarts = std::max(max_txn_restarts, other.max_txn_restarts);
}

RunContext::RunContext(SchedulerPolicy& policy,
                       const std::vector<TxnScript>& scripts,
                       const EngineConfig& config, bool one_driver_thread)
    : policy_(policy),
      scripts_(scripts),
      config_(config),
      faults_(config.faults != nullptr && !config.faults->empty()
                  ? config.faults
                  : nullptr),
      one_driver_thread_(one_driver_thread),
      store_(NumItems(scripts)),
      txn_restarts_(scripts.size(), 0) {
  // Reserve the committed trace's upper bound: a doubling vector would
  // peak at its old and new buffers together.
  size_t steps = 0;
  for (const TxnScript& script : scripts) steps += script.steps.size();
  trace_.reserve(steps);
}

void RunContext::Finish(RunResult& result) {
  std::sort(trace_.begin(), trace_.end(),
            [](const BufferedOp& a, const BufferedOp& b) {
              return a.trace_seq < b.trace_seq;
            });
  OpSequence ops;
  ops.reserve(trace_.size());
  result.read_sources.reserve(trace_.size());
  for (BufferedOp& traced : trace_) {
    ops.push_back(std::move(traced.op));
    result.read_sources.push_back(traced.read_from);
  }
  trace_.clear();
  result.total_ops = ops.size();
  result.vetoes = policy_.veto_events();
  result.txn_restarts = std::move(txn_restarts_);
  result.schedule = Schedule(std::move(ops));
}

TxnRunner::TxnRunner(RunContext& context, RunResult& tally)
    : context_(context), tally_(tally) {}

void TxnRunner::Begin(TxnId txn) {
  txn_ = txn;
  script_ = &context_.scripts_[txn - 1];
  pc_ = 0;
  skips_this_life_ = 0;
  restarts_ = 0;
  fault_aborts_ = 0;
  spike_paid_pc_ = SIZE_MAX;
  crash_step_ = context_.faults_ == nullptr
                    ? SIZE_MAX
                    : context_.faults_->CrashStep(txn, script_->steps.size())
                          .value_or(SIZE_MAX);
}

TxnRunner::Outcome TxnRunner::Step(std::vector<TxnId>* condemned) {
  condemned->clear();
  if (const FaultPlan* faults = context_.faults_; faults != nullptr) {
    if (pc_ == crash_step_) return Outcome::kCrash;
    if (faults->ClientAbortsAt(txn_, restarts_, pc_, script_->steps.size(),
                               fault_aborts_)) {
      cause_ = Cause::kClientAbort;
      return Outcome::kRestart;
    }
    if (spike_paid_pc_ != pc_) {
      spike_paid_pc_ = pc_;
      spike_ticks_ = faults->LatencySpikeAt(txn_, restarts_, pc_);
      if (spike_ticks_ > 0) {
        tally_.latency_spike_ticks += spike_ticks_;
        return Outcome::kLatencySpike;
      }
    }
  }
  Result<AccessGrant> grant =
      context_.policy_.RequestAccess(txn_, *script_, pc_);
  if (!grant.ok()) {
    // Malformed request — a driver bug, not a scheduling outcome.
    failure_ = grant.status();
    return Outcome::kFailed;
  }
  // Wound path: the policy may have condemned *other* transactions while
  // deciding this access (wound-wait, SGT victim choice).
  *condemned = context_.policy_.DrainCondemned();
  for (TxnId victim : *condemned) {
    NSE_CHECK_MSG(!context_.one_driver_thread_ || victim != txn_,
                  "policy wounded the requester; it must return "
                  "kAbortSelf instead");
  }
  switch (grant->verdict) {
    case AccessVerdict::kWait:
      NSE_CHECK_MSG(grant->wait.hub != nullptr,
                    "kWait grant without a wait ticket");
      wait_ = grant->wait;
      return Outcome::kWait;
    case AccessVerdict::kAbortSelf:  // e.g. an SGT veto on committed edges
      cause_ = Cause::kAbortSelf;
      return Outcome::kRestart;
    case AccessVerdict::kSkip:  // Thomas write rule: advance, trace nothing
      ++tally_.skipped_ops;
      ++skips_this_life_;
      ++pc_;
      return Outcome::kSkipped;
    case AccessVerdict::kGranted:
      break;
  }
  failure_ = Execute(*grant);
  if (!failure_.ok()) return Outcome::kFailed;
  ++pc_;
  return Outcome::kGranted;
}

Status TxnRunner::Execute(const AccessGrant& grant) {
  const AccessStep& step = script_->steps[pc_];
  int64_t value = static_cast<int64_t>(grant.trace_seq);
  std::optional<TxnId> read_from;
  if (step.action == OpAction::kWrite) {
    NSE_ASSIGN_OR_RETURN(int64_t prior,
                         context_.store_.Write(step.item, value));
    undo_.push_back(Undo{step.item, prior, value});
  } else if (grant.read_view.has_value()) {
    // Multiversion read: the policy already resolved which version this
    // read observes — the single-version store holds the *newest* write.
    value = grant.read_view->value;
    read_from = grant.read_view->writer;
  } else {
    NSE_ASSIGN_OR_RETURN(value, context_.store_.Read(step.item));
  }
  buffer_.push_back(RunContext::BufferedOp{
      grant.trace_seq, Operation{step.action, step.item, Value(value), txn_},
      read_from});
  return Status::Ok();
}

void TxnRunner::Commit() {
  {
    std::lock_guard<std::mutex> lock(context_.trace_mu_);
    context_.trace_.insert(context_.trace_.end(),
                           std::make_move_iterator(buffer_.begin()),
                           std::make_move_iterator(buffer_.end()));
  }
  buffer_.clear();
  undo_.clear();
  context_.policy_.Commit(txn_);
  ++tally_.completed;
  tally_.committed_skipped_ops += skips_this_life_;
  context_.txn_restarts_[txn_ - 1] = restarts_;
}

void TxnRunner::Retract() {
  // Undo before Abort: the footprint the policy still holds is what keeps
  // other transactions off these cells until the old values are back.
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    context_.store_.Undo(it->item, it->written, it->prior);
  }
  context_.policy_.Abort(txn_);
  buffer_.clear();
  undo_.clear();
}

void TxnRunner::Restart(Cause cause) {
  Retract();
  switch (cause) {
    case Cause::kDeadlock: ++tally_.aborts; break;
    case Cause::kWound: ++tally_.wounds; break;
    case Cause::kAbortSelf: ++tally_.restarts; break;
    case Cause::kClientAbort:
      ++tally_.fault_aborts;
      ++fault_aborts_;
      break;
  }
  pc_ = 0;
  skips_this_life_ = 0;
  spike_paid_pc_ = SIZE_MAX;
  ++restarts_;
  tally_.max_txn_restarts = std::max(tally_.max_txn_restarts, restarts_);
}

void TxnRunner::Crash() {
  Retract();
  ++tally_.crashes;
  context_.txn_restarts_[txn_ - 1] = restarts_;
}

uint64_t TxnRunner::BackoffDelay() const {
  return RestartBackoffDelay(context_.config_.restart, txn_, restarts_);
}

}  // namespace nse
