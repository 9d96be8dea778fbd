// Shared machinery of the repository benchmark: run options, the per-run
// report every workload fills in, timed set-up, the pass loop, in-memory
// spans, and the metric tables that name every end-to-end and per-layer
// metric with its unit.
//
// A run measures one workload. Set-up (input generation) is repeated and
// its median reported as setup_s. After an untimed warm-up pass, the
// timed region is a sequence of passes over the same inputs, repeated
// until the time budget is spent; end-to-end figures are medians over
// untraced passes. With tracing on, untraced and traced passes alternate:
// per-layer figures are medians over the traced passes, and
// trace_overhead compares the two kinds.

#ifndef NSE_PERFBENCH_HARNESS_H_
#define NSE_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (never 0 on a running system).
uint64_t NowNs();

/// Worker threads a workload may use: `wanted`, clamped to the host's
/// hardware threads.
size_t ClampThreads(size_t wanted);

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test sizes: every workload on tiny inputs.
  bool tiny = false;
  /// Directory the traced run writes its spans into (empty = none).
  std::string trace_dir;
};

/// One span: a timed call across a layer boundary. `request` groups the
/// spans of one unit of work (a transaction id inside the scheduler
/// observer, the pass number at the benchmark level).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t request = 0;
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// In-memory span store, written out when the run ends.
class SpanLog {
 public:
  /// Records a finished span and returns its id.
  uint64_t Add(const char* name, uint64_t parent, uint64_t request,
               uint64_t start_ns, uint64_t end_ns);
  size_t size() const { return spans_.size(); }
  /// Writes `id,parent,request,name,start_ns,end_ns` lines, times relative
  /// to `origin_ns`. Returns false if the file cannot be written.
  bool WriteCsv(const std::string& path, uint64_t origin_ns) const;

 private:
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Per-layer figures of one traced pass, keyed by metric name.
using LayerSample = std::map<std::string, double>;

/// Everything one run produces. Workloads fill it; main prints it.
struct Report {
  /// Work units: "txn", "events", "trials".
  std::string unit;
  /// The workload's own name for its throughput figure (txn_per_s, ...),
  /// printed beside the shared throughput_per_s metric.
  std::string rate_name;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Correctness gates that did not hold (a wrong verdict).
  std::vector<std::string> wrong;
  /// Failed attempts (an engine or simulator run returning an error).
  std::vector<std::string> errors;
  double setup_s = 0;
  /// Peak resident set by the end of set-up, and of each timed untraced
  /// pass (MB).
  double setup_peak_rss_mb = 0;
  std::vector<double> pass_peak_rss_mb;
  std::vector<double> rates;  ///< units per second, untraced passes
  std::vector<double> untraced_wall_s;
  std::vector<double> traced_wall_s;
  std::vector<LayerSample> layer_samples;
  /// Spans of the last traced pass.
  SpanLog spans;
  /// Facts printed with the result (trace hash, verdicts, counts). A fact
  /// a pass records must read the same in every pass.
  std::map<std::string, std::string> facts;

  /// Records a correctness gate; a false `ok` marks the run wrong.
  void Gate(bool ok, const std::string& what);
};

/// Builds the workload input at least 3 times (more while the total stays
/// under a second, so that short set-ups are timed often enough for a
/// steady median), keeps the last one, and stores the median build time in
/// report.setup_s.
template <typename T>
T TimedSetup(Report& report, const std::function<T()>& make);

/// One pass: records its outcome into `out`, a fresh report.
using PassFn = std::function<void(Report& out, bool traced, uint64_t index)>;

/// Runs an untimed warm-up pass, then passes until `options.seconds` have
/// elapsed (always at least one; with tracing, at least one of each kind,
/// alternating untraced and traced), and merges what each pass recorded
/// into `report`. Facts that differ between passes mark the run wrong.
/// Records the peak resident set of every timed untraced pass.
void RunPasses(const RunOptions& options, Report& report, const PassFn& pass);

/// Median (the mean of the two middles for even sizes), 0 when empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile `p` in [0, 1] of `values` (reordered), 0 when
/// empty.
double Percentile(std::vector<double>& values, double p);

/// Peak resident set of this process since it started or since the last
/// ResetPeakRss(), in MB (VmHWM).
double PeakRssMb();

/// Starts a new peak at the current resident set. Where the kernel does
/// not support this, the peak keeps covering the whole run.
void ResetPeakRss();

/// A metric the benchmark reports: name and unit.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, reported by the traced run. Every workload reports
/// every one; a layer the workload does not drive reads 0.
const std::vector<MetricDef>& PerLayerMetrics();

// ---- template definitions ------------------------------------------------

template <typename T>
T TimedSetup(Report& report, const std::function<T()>& make) {
  std::optional<T> value;
  std::vector<double> times;
  double total = 0;
  while (times.size() < 3 || (total < 1.0 && times.size() < 10000)) {
    value.reset();
    uint64_t start = NowNs();
    value.emplace(make());
    double s = static_cast<double>(NowNs() - start) * 1e-9;
    times.push_back(s);
    total += s;
  }
  report.setup_s = Median(times);
  report.setup_peak_rss_mb = PeakRssMb();
  return std::move(*value);
}

}  // namespace perfbench

#endif  // NSE_PERFBENCH_HARNESS_H_
