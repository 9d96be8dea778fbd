// Violation search: the empirical engine behind the T1/T2/T3 experiments.
// Samples (initial state, interleaving) pairs for a set of transaction
// programs, filters executions by the hypotheses of interest (PWSR, DR,
// acyclic DAG, fixed structure), and checks strong correctness of each
// surviving execution. Under any theorem's hypotheses the expected count is
// zero; dropping a hypothesis should re-expose Example-2-style violations.
//
// The randomized search runs on a fixed worker pool. Determinism contract
// (see docs/adr/0002): trial t draws from the sub-stream Split(t) of one
// master generator, workers claim trial-index batches from a shared
// dispenser, and per-worker outcomes merge associatively — so for a fixed
// seed the outcome counts and the first counterexample (ordered by global
// trial index) are identical for any thread count, including 1. Workers
// share one SolverCache, so strong-correctness checks on overlapping
// sampled schedules reuse each other's solver search trees.
//
// The exhaustive search (a bounded model checker) runs on the same pool
// with the same discipline: the interleaving tree of each initial state
// partitions into the subtrees under its top-level choices, workers claim
// (state, first-choice) subtree units from a shared dispenser, and the
// merge replays the canonical depth-first order under the per-state visit
// budget — so counts, truncation, and the first counterexample (in
// enumeration order) are bit-identical at any thread count. A unit stops
// classifying once the state's earlier units have used its share of the
// budget, so no executions past the cut are checked. Enumeration is
// deterministic, so no per-unit RNG streams are needed; workers share one
// SolverCache, which changes only speed and cache stats, never verdicts
// (the exhaustive path samples nothing, so it warms no sampling domains).

#ifndef NSE_ANALYSIS_VIOLATION_SEARCH_H_
#define NSE_ANALYSIS_VIOLATION_SEARCH_H_

#include <optional>
#include <vector>

#include "analysis/strong_correctness.h"
#include "analysis/theorems.h"
#include "common/rng.h"
#include "constraints/solver.h"
#include "txn/interleaver.h"

namespace nse {

/// Which hypotheses an execution must satisfy to be checked.
struct HypothesisFilter {
  bool require_pwsr = false;
  bool require_delayed_read = false;
  bool require_dag_acyclic = false;
  /// Checked once against the programs (not per execution).
  bool require_fixed_structure = false;
};

/// A strong-correctness violation with everything needed to reproduce it.
struct Counterexample {
  DbState initial;
  std::vector<size_t> choices;
  Schedule schedule;
  StrongCorrectnessReport report;
};

/// Aggregate statistics of one search.
struct SearchOutcome {
  uint64_t trials = 0;             ///< executions generated
  uint64_t filtered_out = 0;       ///< executions failing the filter
  uint64_t checked = 0;            ///< executions strong-correctness checked
  uint64_t violations = 0;         ///< executions violating Definition 1
  /// Exhaustive search only: initial states whose interleaving enumeration
  /// was cut off by the limit (i.e. the search was NOT exhaustive for them).
  /// Distinguishes "few trials because the filter rejected executions" from
  /// "few trials because enumeration was truncated".
  uint64_t truncated = 0;
  std::optional<Counterexample> first_counterexample;
  /// Global trial index of first_counterexample: the sampled trial index on
  /// the randomized path, the canonical enumeration index on the
  /// exhaustive path.
  std::optional<uint64_t> first_violation_trial;
  /// Shared solver-cache effort during this search (zeros when disabled).
  SolverCache::Stats solver_cache;
};

/// Knobs of the randomized search engine.
struct SearchConfig {
  uint64_t trials = 0;
  /// Stop as soon as a violation is found. The returned outcome is the
  /// deterministic prefix: every trial up to and including the smallest
  /// violating trial index (later-index work already done is discarded), so
  /// stop-at-first results are also thread-count independent.
  bool stop_at_first = false;
  /// Worker threads; 0 means ThreadPool::DefaultNumThreads(). threads=1
  /// runs inline on the calling thread (no pool) but through the same
  /// trial-stream machinery, so it is bit-identical to any other count.
  size_t threads = 1;
  /// Share one SolverCache across all workers (sampling domains,
  /// consistency verdicts, extension subtrees). Disable to measure the
  /// uncached baseline. Note: cached sampling draws uniformly from
  /// enumerated per-conjunct solution sets, uncached uses the randomized
  /// backtracking search — so flipping this changes which executions a
  /// given seed samples. Each mode is internally deterministic; they are
  /// different (equally valid) random experiments, not the same run.
  bool share_solver_cache = true;
};

/// Randomized search: `config.trials` (initial state, random interleaving)
/// pairs. Initial states are sampled consistent states. If the programs
/// fail the fixed-structure requirement (when set), returns an outcome with
/// all trials filtered out.
Result<SearchOutcome> SearchForViolations(
    const Database& db, const IntegrityConstraint& ic,
    const std::vector<const TransactionProgram*>& programs,
    const HypothesisFilter& filter, Rng& rng, const SearchConfig& config);

/// Single-threaded convenience overload (the pre-engine signature).
Result<SearchOutcome> SearchForViolations(
    const Database& db, const IntegrityConstraint& ic,
    const std::vector<const TransactionProgram*>& programs,
    const HypothesisFilter& filter, Rng& rng, uint64_t trials,
    bool stop_at_first = false);

/// Knobs of the exhaustive search engine.
struct ExhaustiveSearchConfig {
  /// Complete-interleaving visit budget per initial state; enumeration past
  /// it is reported via SearchOutcome::truncated.
  uint64_t interleaving_limit = 0;
  /// Stop at the first violation in canonical enumeration order. As on the
  /// randomized path the returned outcome is the deterministic prefix
  /// ending at that violation, so it is thread-count independent.
  bool stop_at_first = false;
  /// Worker threads; 0 means ThreadPool::DefaultNumThreads(). threads=1
  /// runs inline on the calling thread through the same unit machinery.
  size_t threads = 1;
  /// Share one SolverCache across all workers. Unlike the randomized path
  /// this never changes the outcome (nothing is sampled); disable only to
  /// measure the uncached baseline.
  bool share_solver_cache = true;
};

/// Exhaustive search over every interleaving from each given initial state
/// (up to `config.interleaving_limit` interleavings per state), fanned
/// over (state, top-level choice) subtree units. SearchOutcome is
/// bit-identical at any thread count; see the header comment.
Result<SearchOutcome> ExhaustiveViolationSearch(
    const Database& db, const IntegrityConstraint& ic,
    const std::vector<const TransactionProgram*>& programs,
    const std::vector<DbState>& initial_states, const HypothesisFilter& filter,
    const ExhaustiveSearchConfig& config);

/// Single-threaded convenience overload (the pre-engine signature).
Result<SearchOutcome> ExhaustiveViolationSearch(
    const Database& db, const IntegrityConstraint& ic,
    const std::vector<const TransactionProgram*>& programs,
    const std::vector<DbState>& initial_states,
    const HypothesisFilter& filter, uint64_t interleaving_limit,
    bool stop_at_first = false);

}  // namespace nse

#endif  // NSE_ANALYSIS_VIOLATION_SEARCH_H_
