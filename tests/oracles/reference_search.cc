#include "analysis/analysis_context.h"
#include "oracles/oracles.h"

namespace nse {
namespace oracles {

Result<SearchOutcome> ReferenceExhaustiveSearch(
    const Database& db, const IntegrityConstraint& ic,
    const std::vector<const TransactionProgram*>& programs,
    const std::vector<DbState>& initial_states, const HypothesisFilter& filter,
    uint64_t interleaving_limit, bool stop_at_first) {
  SearchOutcome outcome;
  if (filter.require_fixed_structure) {
    for (const TransactionProgram* program : programs) {
      StructureAnalysis analysis = AnalyzeStructure(db, *program);
      if (!analysis.valid || !analysis.fixed) return outcome;
    }
  }
  const ConsistencyChecker checker(db, ic);
  Status check_error = Status::Ok();
  bool stopped = false;
  for (const DbState& initial : initial_states) {
    auto visit = [&](const InterleaveResult& run,
                     const std::vector<size_t>& choices) -> bool {
      ++outcome.trials;
      AnalysisContext ctx(db, ic, run.schedule);
      if ((filter.require_pwsr && !ctx.pwsr_report().is_pwsr) ||
          (filter.require_delayed_read && !ctx.delayed_read()) ||
          (filter.require_dag_acyclic && !ctx.access_graph().IsAcyclic())) {
        ++outcome.filtered_out;
        return true;
      }
      auto report = CheckExecution(checker, run.schedule, initial);
      if (!report.ok()) {
        check_error = report.status();
        return false;
      }
      ++outcome.checked;
      if (report->strongly_correct) return true;
      ++outcome.violations;
      if (!outcome.first_counterexample.has_value()) {
        outcome.first_violation_trial = outcome.trials - 1;
        outcome.first_counterexample = Counterexample{
            initial, choices, run.schedule, std::move(report).value()};
      }
      stopped = stop_at_first;
      return !stopped;
    };
    auto enumerated = EnumerateInterleavingsFromReference(
        db, programs, initial, /*prefix=*/{}, interleaving_limit, visit);
    NSE_RETURN_IF_ERROR(check_error);
    NSE_RETURN_IF_ERROR(enumerated.status());
    if (!enumerated->exhausted) ++outcome.truncated;
    if (stopped) break;
  }
  return outcome;
}

}  // namespace oracles
}  // namespace nse
