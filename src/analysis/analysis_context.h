// AnalysisContext: one memoizing home for every derived artifact of a
// schedule the paper's criteria share — the conflict graph, the reads-from
// relation, per-conjunct projections S^{d_e} with their projected conflict
// graphs, the data access graph DAG(S, IC), the consistency solver, and the
// criterion reports themselves (CSR, PWSR, DR, strict, strong correctness).
//
// Every artifact is built lazily on first access and cached for the
// lifetime of the context, so a full sweep of checkers over one execution
// pays for each artifact once instead of once per checker. The violation
// search engine builds exactly one context per sampled execution; callers
// that need a single criterion can keep using the free functions, which
// delegate here through a transient context.
//
// A context borrows (or owns) its schedule and borrows the database and
// integrity constraint; it must not outlive them. Contexts are
// thread-compatible, not thread-safe.

#ifndef NSE_ANALYSIS_ANALYSIS_CONTEXT_H_
#define NSE_ANALYSIS_ANALYSIS_CONTEXT_H_

#include <optional>
#include <vector>

#include "analysis/access_graph.h"
#include "analysis/conflict_graph.h"
#include "analysis/delayed_read.h"
#include "analysis/pwsr.h"
#include "analysis/reads_from.h"
#include "analysis/serializability.h"
#include "analysis/strong_correctness.h"
#include "common/status.h"
#include "constraints/integrity_constraint.h"
#include "constraints/solver.h"
#include "txn/schedule.h"

namespace nse {

class TransactionProgram;
struct VersionAnnotations;

/// Knobs for the context-driven checkers.
struct AnalysisOptions {
  /// Initial-state enumeration cap for strong correctness (Definition 1
  /// quantifies over all consistent initial states; this bounds the sweep).
  uint64_t initial_state_limit = 64;
  /// The programs that produced the schedule, when known: enables the
  /// fixed-structure hypothesis of Theorem 1. Not owned.
  const std::vector<const TransactionProgram*>* programs = nullptr;
  /// Version annotations of a multiversion trace (analysis/multiversion.h):
  /// per read position, the transaction whose write produced the observed
  /// version. Enables the exact reads-from for the mvsr checker; when null,
  /// reads resolve positionally (monoversion semantics). Not owned.
  const VersionAnnotations* versions = nullptr;
  /// When set, the context's ConsistencyChecker memoizes its search trees
  /// here. Not owned; shared across contexts (and threads) by the violation
  /// search so overlapping solver queries are answered once.
  SolverCache* solver_cache = nullptr;
};

/// How many times each artifact was actually built (not served from cache).
/// A second access to any artifact must leave its counter unchanged — the
/// memoization contract, pinned by tests.
struct AnalysisCacheStats {
  size_t conflict_graph_builds = 0;
  size_t reads_from_builds = 0;
  size_t projection_builds = 0;        // counts conjunct projections built
  size_t projection_graph_builds = 0;  // counts projected graphs built
  size_t access_graph_builds = 0;
  size_t solver_builds = 0;
  size_t csr_builds = 0;
  size_t pwsr_builds = 0;
  size_t dr_builds = 0;
  size_t strict_builds = 0;
  size_t strong_correctness_builds = 0;
};

/// Memoized analysis artifacts of one schedule (against one IC).
class AnalysisContext {
 public:
  /// Full context: every checker is available.
  AnalysisContext(const Database& db, const IntegrityConstraint& ic,
                  const Schedule& schedule, AnalysisOptions options = {});

  /// Owning variant: the context keeps the schedule alive itself.
  AnalysisContext(const Database& db, const IntegrityConstraint& ic,
                  Schedule&& schedule_owned, AnalysisOptions options = {});

  /// IC-only context (no solver): structural criteria plus PWSR/DAG.
  AnalysisContext(const IntegrityConstraint& ic, const Schedule& schedule,
                  AnalysisOptions options = {});

  /// Schedule-only context: CSR / DR / strict only.
  explicit AnalysisContext(const Schedule& schedule,
                           AnalysisOptions options = {});

  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  /// True when a database catalog was supplied (solver + rendering).
  bool has_db() const { return db_ != nullptr; }
  /// True when an integrity constraint was supplied.
  bool has_ic() const { return ic_ != nullptr; }

  /// The catalog (aborts when absent — guard with has_db()).
  const Database& db() const;
  /// The integrity constraint (aborts when absent — guard with has_ic()).
  const IntegrityConstraint& ic() const;
  /// The schedule under analysis.
  const Schedule& schedule() const { return *schedule_; }
  const AnalysisOptions& options() const { return options_; }

  // ---- memoized artifacts ---------------------------------------------

  /// Conflict graph of the full schedule.
  const ConflictGraph& conflict_graph();

  /// The reads-from relation of §3.2.
  const std::vector<ReadsFromEdge>& reads_from();

  /// Projection handle for S^{d_e} of conjunct `e` (requires an IC).
  const ScheduleProjection& projection(size_t e);

  /// Conflict graph of S^{d_e} (requires an IC). The first call derives
  /// every conjunct's graph in one walk of the schedule — no projected
  /// schedules are materialized — and records cycle-closing operations at
  /// their positions in S.
  const ConflictGraph& projection_graph(size_t e);

  /// The data access graph DAG(S, IC) (requires an IC).
  const DataAccessGraph& access_graph();

  /// The consistency oracle for (db, ic) (requires both).
  const ConsistencyChecker& consistency_checker();

  // ---- memoized criterion reports -------------------------------------

  /// CSR report of the full schedule (footnote 2 baseline).
  const CsrReport& csr_report();

  /// PWSR report, Definition 2 (requires an IC).
  const PwsrReport& pwsr_report();

  /// First delayed-read violation, or nullopt when the schedule is DR.
  const std::optional<DrViolation>& dr_violation();
  /// True iff the schedule is delayed-read (Definition 5).
  bool delayed_read() { return !dr_violation().has_value(); }

  /// First strictness violation, or nullopt when strict.
  const std::optional<DrViolation>& strict_violation();
  /// True iff the schedule is strict.
  bool strict() { return !strict_violation().has_value(); }

  /// Strong correctness (Definition 1) quantified over up to
  /// options().initial_state_limit consistent initial states (requires db
  /// and IC).
  const Result<StrongCorrectnessReport>& strong_correctness();

  /// Build counters — see AnalysisCacheStats.
  const AnalysisCacheStats& cache_stats() const { return stats_; }

 private:
  AnalysisContext(const Database* db, const IntegrityConstraint* ic,
                  const Schedule* schedule, AnalysisOptions options);

  const Database* db_ = nullptr;
  const IntegrityConstraint* ic_ = nullptr;
  std::optional<Schedule> owned_schedule_;
  const Schedule* schedule_ = nullptr;
  AnalysisOptions options_;

  std::optional<ConflictGraph> conflict_graph_;
  std::optional<std::vector<ReadsFromEdge>> reads_from_;
  std::vector<std::optional<ScheduleProjection>> projections_;
  std::optional<std::vector<ConflictGraph>> projection_graphs_;
  std::optional<DataAccessGraph> access_graph_;
  std::optional<ConsistencyChecker> solver_;
  std::optional<CsrReport> csr_;
  std::optional<PwsrReport> pwsr_;
  std::optional<std::optional<DrViolation>> dr_violation_;
  std::optional<std::optional<DrViolation>> strict_violation_;
  std::optional<Result<StrongCorrectnessReport>> strong_;

  AnalysisCacheStats stats_;
};

}  // namespace nse

#endif  // NSE_ANALYSIS_ANALYSIS_CONTEXT_H_
