// Aggregation and table rendering for benchmark output, plus the
// class-membership profile of a committed trace (what a scheduler policy
// actually produced, verified against what it promises).

#ifndef NSE_SCHEDULER_METRICS_H_
#define NSE_SCHEDULER_METRICS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace nse {

class AnalysisContext;
struct SimResult;

/// Schedule-class membership of one committed trace, computed from a single
/// shared AnalysisContext (each underlying artifact is built once, however
/// many classes are probed).
struct TraceClassification {
  bool csr = false;                 ///< conflict serializable
  std::optional<bool> pwsr;         ///< Definition 2; nullopt without an IC
  bool delayed_read = false;        ///< Definition 5
  bool strict = false;              ///< strict ⊂ ACA ⊆ DR
  /// When not CSR: the trace position whose operation closed the conflict
  /// cycle (the graph's first-cycle record; see ConflictGraph::Build).
  std::optional<size_t> csr_cycle_op_pos;

  /// Renders e.g. "CSR yes, PWSR yes, DR yes, strict no" (plus
  /// ", cycle closed at op N" for non-CSR traces with a recorded position).
  std::string ToString() const;
};

/// Classifies ctx's schedule. PWSR is probed only when the context carries
/// an integrity constraint.
TraceClassification ClassifyTrace(AnalysisContext& ctx);

/// One-line performance summary of a simulation run, e.g.
/// "makespan 42, completed 8, aborts 1, restarts 2, wounds 1, vetoes 5,
/// throughput 0.19" — restart, wound and veto counts included so
/// optimistic / priority policies (SGT, wound-wait, TO) render their
/// abort economics next to the lock waits; a ", skipped N" suffix appears
/// when Thomas-rule writes were elided. Fault/robustness counters
/// (fault_aborts, crashes, shed, boosts, backoff_ticks, max_txn_restarts)
/// are appended only when non-zero, so fault-free summaries are unchanged.
std::string SimSummary(const SimResult& result);

/// Streaming summary of a numeric series.
class SeriesSummary {
 public:
  /// Adds an observation.
  void Add(double x);

  /// Number of observations.
  uint64_t count() const { return count_; }
  /// Arithmetic mean (0 when empty).
  double mean() const;
  /// Minimum (0 when empty).
  double min() const { return count_ == 0 ? 0 : min_; }
  /// Maximum (0 when empty).
  double max() const { return count_ == 0 ? 0 : max_; }
  /// Sum of observations.
  double sum() const { return sum_; }

 private:
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Fixed-width text tables, used by the bench binaries to print the rows a
/// paper table would contain.
class TablePrinter {
 public:
  /// Sets the column headers.
  explicit TablePrinter(std::vector<std::string> headers);

  /// Appends a data row (cells are pre-rendered strings).
  void AddRow(std::vector<std::string> cells);

  /// Renders the table with aligned columns.
  std::string Render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Renders a double with `digits` fractional digits.
std::string FormatDouble(double x, int digits = 2);

}  // namespace nse

#endif  // NSE_SCHEDULER_METRICS_H_
