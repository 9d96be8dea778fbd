#include "analysis/violation_search.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "analysis/analysis_context.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace nse {

namespace {

constexpr uint64_t kNoTrial = std::numeric_limits<uint64_t>::max();

/// Trials a randomized worker claims per dispenser round-trip (tradeoff:
/// dispatch overhead vs. tail imbalance). Outcomes never depend on it.
constexpr uint64_t kTrialBatch = 16;

/// What one execution amounted to. Stored per trial / enumeration index so
/// the merge step can reconstruct exactly the prefix a sequential run would
/// have produced, regardless of which worker ran which execution.
enum class TrialCode : uint8_t {
  kUnprocessed = 0,  ///< skipped: past the decisive execution or budget
  kFiltered,         ///< failed the hypothesis filter / invalid replay
  kCheckedOk,        ///< checked, strongly correct
  kViolation,        ///< checked, Definition 1 violated
  kError,            ///< a Status failure inside the execution
};

/// What every execution of one search shares.
struct SearchScope {
  const Database& db;
  const IntegrityConstraint& ic;
  const std::vector<const TransactionProgram*>& programs;
  const HypothesisFilter& filter;
  SolverCache* cache;  ///< shared by all workers; nullptr when disabled
};

/// Fixed structure is a property of the programs, not of an execution, so
/// it is checked once per search: false iff `filter` requires it and some
/// program lacks it.
bool MeetsStructureRequirement(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const HypothesisFilter& filter) {
  if (!filter.require_fixed_structure) return true;
  return std::all_of(programs.begin(), programs.end(),
                     [&db](const TransactionProgram* program) {
                       StructureAnalysis s = AnalyzeStructure(db, *program);
                       return s.valid && s.fixed;
                     });
}

size_t WorkerCount(size_t requested) {
  return requested == 0 ? ThreadPool::DefaultNumThreads() : requested;
}

/// Runs worker(w) for every w < workers: inline on the calling thread when
/// there is a single worker (no pool), else on a fresh ThreadPool.
template <typename WorkerFn>
void FanOut(size_t workers, const WorkerFn& worker) {
  if (workers == 1) {
    worker(0);
    return;
  }
  ThreadPool pool(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.Submit([&worker, w] { worker(w); });
  }
  pool.Wait();
}

/// Counts one merged execution into `outcome`. Errors are decisive and the
/// merges return them before tallying; unprocessed codes never reach here.
void Tally(TrialCode code, SearchOutcome& outcome) {
  ++outcome.trials;
  switch (code) {
    case TrialCode::kFiltered:
      ++outcome.filtered_out;
      break;
    case TrialCode::kViolation:
      ++outcome.violations;
      ++outcome.checked;
      break;
    case TrialCode::kCheckedOk:
      ++outcome.checked;
      break;
    case TrialCode::kUnprocessed:
    case TrialCode::kError:
      NSE_CHECK_MSG(false, "unprocessed or failed execution in the tally");
  }
}

/// Monotone min-update of `target`.
void AtomicMin(std::atomic<uint64_t>& target, uint64_t value) {
  uint64_t current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

/// The per-execution core of both engines. One memoized context per
/// execution (sharing the search-wide solver cache) drives every filter, so
/// the artifacts each hypothesis needs (projections, reads-from, DAG) are
/// built once per execution, not once per hypothesis; survivors are checked
/// against Definition 1. On a violation, a non-null `cex` receives the
/// reproducible counterexample.
Result<TrialCode> ClassifyExecution(const SearchScope& scope,
                                    const ConsistencyChecker& checker,
                                    const DbState& initial,
                                    const std::vector<size_t>& choices,
                                    const Schedule& schedule,
                                    std::optional<Counterexample>* cex) {
  AnalysisOptions options;
  options.solver_cache = scope.cache;
  AnalysisContext ctx(scope.db, scope.ic, schedule, options);
  const HypothesisFilter& filter = scope.filter;
  if ((filter.require_pwsr && !ctx.pwsr_report().is_pwsr) ||
      (filter.require_delayed_read && !ctx.delayed_read()) ||
      (filter.require_dag_acyclic && !ctx.access_graph().IsAcyclic())) {
    return TrialCode::kFiltered;
  }
  NSE_ASSIGN_OR_RETURN(StrongCorrectnessReport report,
                       CheckExecution(checker, schedule, initial));
  if (report.strongly_correct) return TrialCode::kCheckedOk;
  if (cex != nullptr) {
    *cex = Counterexample{initial, choices, schedule, std::move(report)};
  }
  return TrialCode::kViolation;
}

/// Runs one randomized trial start to finish against its private RNG
/// stream: a sampled consistent state, a sampled interleaving, and the
/// shared classification.
Result<TrialCode> RunOneTrial(const SearchScope& scope,
                              const ConsistencyChecker& checker, Rng rng,
                              std::optional<Counterexample>* cex) {
  NSE_ASSIGN_OR_RETURN(DbState initial, checker.SampleConsistentState(rng));
  // Mix exploration styles: uniformly random interleavings cover the
  // whole space, near-serial ones populate the PWSR/DR regimes the
  // filters select for (see NearSerialChoices).
  NSE_ASSIGN_OR_RETURN(
      std::vector<size_t> choices,
      rng.NextBool(0.5)
          ? RandomChoices(scope.db, scope.programs, initial, rng)
          : NearSerialChoices(scope.db, scope.programs, initial, rng,
                              rng.NextBelow(2 * scope.programs.size() + 6)));
  auto run = Interleave(scope.db, scope.programs, initial, choices);
  if (!run.ok()) {
    // A swapped near-serial sequence can become invalid when program
    // lengths are interleaving-dependent; discard the sample.
    if (run.status().code() == StatusCode::kInvalidArgument ||
        run.status().code() == StatusCode::kFailedPrecondition) {
      return TrialCode::kFiltered;
    }
    return run.status();
  }
  return ClassifyExecution(scope, checker, initial, choices, run->schedule,
                           cex);
}

/// Per-worker accumulation on the randomized path. Workers claim batches of
/// increasing trial indices, so the first violation / error a worker
/// records is its minimum.
struct WorkerState {
  std::optional<Counterexample> best_cex;
  uint64_t best_cex_trial = kNoTrial;
  Status error = Status::Ok();
  uint64_t error_trial = kNoTrial;
};

/// One unit of exhaustive work: the subtree of complete interleavings of
/// `initial_states[state]` under a fixed top-level choice (or the whole
/// tree, with an empty prefix, when every program is already finished).
/// Units inherit the canonical order: states in order, prefixes ascending;
/// a unit's slot is its position among its state's units.
struct ExhaustiveUnit {
  size_t state = 0;
  std::vector<size_t> prefix;
};

/// What one unit's enumeration produced, in subtree depth-first order. The
/// merge consumes a prefix of `codes` bounded by the state's remaining
/// visit budget, so later entries may be discarded — exactly mirroring
/// where a sequential run would have been cut off by the limit.
struct ExhaustiveUnitResult {
  std::vector<TrialCode> codes;
  std::optional<Counterexample> cex;  ///< first in-unit violation
  uint64_t cex_index = kNoTrial;      ///< its index within `codes`
  Status trial_error = Status::Ok();  ///< the status behind a kError code
  Status enum_error = Status::Ok();   ///< enumeration failed after `codes`
  bool truncated = false;  ///< the unit alone exceeded the visit budget
  bool ran = false;
};

}  // namespace

Result<SearchOutcome> SearchForViolations(
    const Database& db, const IntegrityConstraint& ic,
    const std::vector<const TransactionProgram*>& programs,
    const HypothesisFilter& filter, Rng& rng, const SearchConfig& config) {
  SearchOutcome outcome;
  if (!MeetsStructureRequirement(db, programs, filter)) {
    outcome.trials = config.trials;
    outcome.filtered_out = config.trials;
    return outcome;
  }
  if (config.trials == 0) return outcome;

  // Determinism backbone: trial t draws from Split(t) of one master
  // generator, so a trial's outcome is a pure function of (seed, t) — never
  // of the worker that ran it or of what other trials did.
  const Rng master = rng.Fork();

  SolverCache cache;
  const SearchScope scope{db, ic, programs, filter,
                          config.share_solver_cache ? &cache : nullptr};
  if (scope.cache != nullptr) {
    // One-time sampling-domain enumerations, done before fan-out so cold
    // workers don't all recompute them.
    ConsistencyChecker(db, ic, scope.cache).WarmSamplingDomains();
  }

  std::vector<TrialCode> codes(config.trials, TrialCode::kUnprocessed);
  std::atomic<uint64_t> next_trial{0};
  // Trials with index > cancel_after are skipped: set to the smallest
  // violating index under stop_at_first, and to the smallest erroring index
  // always (work past a decisive trial cannot change the result).
  std::atomic<uint64_t> cancel_after{kNoTrial};
  std::vector<WorkerState> workers(WorkerCount(config.threads));

  FanOut(workers.size(), [&](size_t w) {
    // Each worker owns its checker (solver stats are checker-local); all
    // checkers share the one cache.
    ConsistencyChecker checker(db, ic, scope.cache);
    WorkerState& ws = workers[w];
    while (true) {
      const uint64_t start = next_trial.fetch_add(kTrialBatch);
      if (start >= config.trials) break;
      const uint64_t end = std::min(start + kTrialBatch, config.trials);
      for (uint64_t t = start; t < end; ++t) {
        if (t > cancel_after.load(std::memory_order_relaxed)) continue;
        const bool want_cex = !ws.best_cex.has_value();
        Result<TrialCode> code = RunOneTrial(scope, checker, master.Split(t),
                                             want_cex ? &ws.best_cex : nullptr);
        if (!code.ok()) {
          codes[t] = TrialCode::kError;
          if (ws.error_trial == kNoTrial) {
            ws.error = code.status();
            ws.error_trial = t;
          }
          AtomicMin(cancel_after, t);
          continue;
        }
        codes[t] = *code;
        if (*code == TrialCode::kViolation) {
          if (want_cex) ws.best_cex_trial = t;
          if (config.stop_at_first) AtomicMin(cancel_after, t);
        }
      }
    }
  });

  // Associative merge: tally the per-trial codes in global order up to the
  // first decisive trial — an error, or (under stop_at_first) a violation —
  // which is exactly the prefix a sequential run would have produced.
  uint64_t end = config.trials;
  for (uint64_t t = 0; t < end; ++t) {
    if (codes[t] == TrialCode::kError) {
      for (const WorkerState& ws : workers) {
        if (ws.error_trial == t) return ws.error;
      }
      NSE_CHECK_MSG(false, "trial %llu marked kError but no worker owns it",
                    static_cast<unsigned long long>(t));
    }
    Tally(codes[t], outcome);
    if (config.stop_at_first && codes[t] == TrialCode::kViolation) end = t + 1;
  }
  for (WorkerState& ws : workers) {
    if (!ws.best_cex.has_value() || ws.best_cex_trial >= end) continue;
    if (!outcome.first_violation_trial.has_value() ||
        ws.best_cex_trial < *outcome.first_violation_trial) {
      outcome.first_violation_trial = ws.best_cex_trial;
      outcome.first_counterexample = std::move(ws.best_cex);
    }
  }
  outcome.solver_cache = cache.stats();
  return outcome;
}

Result<SearchOutcome> SearchForViolations(
    const Database& db, const IntegrityConstraint& ic,
    const std::vector<const TransactionProgram*>& programs,
    const HypothesisFilter& filter, Rng& rng, uint64_t trials,
    bool stop_at_first) {
  SearchConfig config;
  config.trials = trials;
  config.stop_at_first = stop_at_first;
  config.threads = 1;
  return SearchForViolations(db, ic, programs, filter, rng, config);
}

Result<SearchOutcome> ExhaustiveViolationSearch(
    const Database& db, const IntegrityConstraint& ic,
    const std::vector<const TransactionProgram*>& programs,
    const std::vector<DbState>& initial_states, const HypothesisFilter& filter,
    const ExhaustiveSearchConfig& config) {
  SearchOutcome outcome;
  if (!MeetsStructureRequirement(db, programs, filter)) return outcome;
  const uint64_t limit = config.interleaving_limit;
  if (limit == 0) {
    // A zero budget truncates every state before the first probe, so not
    // even probe errors can surface (matches the sequential enumeration,
    // whose budget check precedes any replay).
    outcome.truncated = initial_states.size();
    return outcome;
  }

  // Nothing is sampled here, so there are no sampling domains to pre-warm.
  SolverCache cache;
  const SearchScope scope{db, ic, programs, filter,
                          config.share_solver_cache ? &cache : nullptr};

  // Decompose each state's interleaving tree into the subtrees under its
  // live top-level choices. A state whose probe fails contributes no units;
  // its error surfaces when (and only when) the merge reaches the state, as
  // it would sequentially.
  std::vector<ExhaustiveUnit> units;
  std::vector<Status> state_probe(initial_states.size(), Status::Ok());
  std::vector<size_t> state_begin(initial_states.size() + 1, 0);
  for (size_t s = 0; s < initial_states.size(); ++s) {
    state_begin[s] = units.size();
    auto live_or = LiveFirstChoices(db, programs, initial_states[s]);
    if (!live_or.ok()) {
      state_probe[s] = live_or.status();
      continue;
    }
    if (live_or->empty()) {
      // Every program already finished: the single empty interleaving.
      units.push_back(ExhaustiveUnit{s, {}});
    } else {
      for (size_t first : *live_or) units.push_back(ExhaustiveUnit{s, {first}});
    }
  }
  state_begin[initial_states.size()] = units.size();

  std::vector<ExhaustiveUnitResult> results(units.size());
  std::atomic<size_t> next_unit{0};
  // Units with index > cancel_after are skipped. Only *certain* decisive
  // events may cancel: a kError, enumeration failure, or stop-at-first
  // violation in a slot-0 unit, whose starting budget is always the full
  // limit — so the merge provably stops at or before it. The same event in
  // a later slot might fall past the budget cut and be discarded, so it
  // must not cancel work the merge may still need.
  std::atomic<uint64_t> cancel_after{kNoTrial};
  // Codes each unit has produced so far. The merge consumes at most `limit`
  // minus what the state's earlier units produce, so a live snapshot of
  // their counts bounds a unit's useful share from above. A leaf past that
  // bound lies past the sequential budget cut: the unit records it
  // unclassified (kUnprocessed, which the merge reads as truncation) and
  // stops, instead of classifying executions the merge would discard.
  std::vector<std::atomic<uint64_t>> produced(units.size());

  FanOut(WorkerCount(config.threads), [&](size_t) {
    // As on the randomized path: checkers are worker-local, the cache is
    // shared.
    ConsistencyChecker checker(db, ic, scope.cache);
    for (size_t u = next_unit.fetch_add(1); u < units.size();
         u = next_unit.fetch_add(1)) {
      if (u > cancel_after.load(std::memory_order_relaxed)) continue;
      const ExhaustiveUnit& unit = units[u];
      ExhaustiveUnitResult& res = results[u];
      res.ran = true;
      const DbState& initial = initial_states[unit.state];
      auto budget_left = [&] {
        uint64_t budget = limit;
        for (size_t j = state_begin[unit.state]; j < u; ++j) {
          budget -= std::min(budget,
                             produced[j].load(std::memory_order_relaxed));
        }
        return budget;
      };
      if (budget_left() == 0) {
        // Even the subtree's first leaf lies past the cut.
        res.codes.push_back(TrialCode::kUnprocessed);
        continue;
      }
      auto visit = [&](const InterleaveResult& run,
                       const std::vector<size_t>& choices) -> bool {
        if (u > cancel_after.load(std::memory_order_relaxed)) {
          // A certain decisive event before this unit: the merge will never
          // read it, so abandon the subtree mid-enumeration.
          return false;
        }
        if (res.codes.size() >= budget_left()) {
          res.codes.push_back(TrialCode::kUnprocessed);
          return false;
        }
        const bool want_cex = !res.cex.has_value();
        Result<TrialCode> code =
            ClassifyExecution(scope, checker, initial, choices, run.schedule,
                              want_cex ? &res.cex : nullptr);
        if (!code.ok()) {
          res.trial_error = code.status();
          res.codes.push_back(TrialCode::kError);
          return false;
        }
        if (*code == TrialCode::kViolation && want_cex) {
          res.cex_index = res.codes.size();
        }
        res.codes.push_back(*code);
        produced[u].store(res.codes.size(), std::memory_order_relaxed);
        // Past the first violation the unit's remainder is never needed
        // under stop-at-first: the merge either stops at this violation or
        // was cut off by the budget even earlier.
        return *code != TrialCode::kViolation || !config.stop_at_first;
      };
      auto enumerated = EnumerateInterleavingsFrom(db, programs, initial,
                                                   unit.prefix, limit, visit);
      if (!enumerated.ok()) {
        res.enum_error = enumerated.status();
      } else {
        res.truncated = !enumerated->exhausted;
      }
      const bool decisive =
          !res.enum_error.ok() ||
          (!res.codes.empty() &&
           (res.codes.back() == TrialCode::kError ||
            (config.stop_at_first &&
             res.codes.back() == TrialCode::kViolation)));
      if (u == state_begin[unit.state] && decisive) AtomicMin(cancel_after, u);
    }
  });

  // Merge in canonical order: states in order; within a state, unit code
  // lists concatenated in slot order under a fresh per-state budget of
  // `limit` visits — the exact prefix the sequential enumeration produces.
  bool stopped = false;
  for (size_t s = 0; s < initial_states.size() && !stopped; ++s) {
    NSE_RETURN_IF_ERROR(state_probe[s]);
    uint64_t remaining = limit;
    bool state_truncated = false;
    for (size_t u = state_begin[s]; u < state_begin[s + 1]; ++u) {
      ExhaustiveUnitResult& res = results[u];
      NSE_CHECK_MSG(res.ran,
                    "exhaustive unit %llu reached by the merge but skipped",
                    static_cast<unsigned long long>(u));
      const uint64_t len = res.codes.size();
      const uint64_t take = std::min<uint64_t>(len, remaining);
      for (uint64_t k = 0; k < take && !stopped; ++k) {
        const TrialCode code = res.codes[k];
        if (code == TrialCode::kError) return res.trial_error;
        Tally(code, outcome);
        if (code != TrialCode::kViolation) continue;
        if (!outcome.first_counterexample.has_value()) {
          NSE_CHECK(res.cex_index == k && res.cex.has_value());
          outcome.first_counterexample = std::move(res.cex);
          outcome.first_violation_trial = outcome.trials - 1;
        }
        stopped = config.stop_at_first;
      }
      if (stopped) break;  // visitor-stopped, not truncated (as sequential)
      remaining -= take;
      if (take < len || res.truncated) {
        state_truncated = true;
        break;
      }
      if (!res.enum_error.ok()) {
        // The failing replay was entered with `remaining` budget left; with
        // none, the sequential run truncates just before it instead.
        if (remaining > 0) return res.enum_error;
        state_truncated = true;
        break;
      }
    }
    if (state_truncated) ++outcome.truncated;
  }
  outcome.solver_cache = cache.stats();
  return outcome;
}

Result<SearchOutcome> ExhaustiveViolationSearch(
    const Database& db, const IntegrityConstraint& ic,
    const std::vector<const TransactionProgram*>& programs,
    const std::vector<DbState>& initial_states,
    const HypothesisFilter& filter, uint64_t interleaving_limit,
    bool stop_at_first) {
  ExhaustiveSearchConfig config;
  config.interleaving_limit = interleaving_limit;
  config.stop_at_first = stop_at_first;
  config.threads = 1;
  return ExhaustiveViolationSearch(db, ic, programs, initial_states, filter,
                                   config);
}

}  // namespace nse
