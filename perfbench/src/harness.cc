#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t ClampThreads(size_t wanted) {
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::max<size_t>(1, std::min(wanted, hw));
}

uint64_t SpanLog::Add(const char* name, uint64_t parent, uint64_t request,
                      uint64_t start_ns, uint64_t end_ns) {
  uint64_t id = next_id_++;
  spans_.push_back(Span{id, parent, request, name, start_ns, end_ns});
  return id;
}

bool SpanLog::WriteCsv(const std::string& path, uint64_t origin_ns) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("id,parent,request,name,start_ns,end_ns\n", out);
  for (const Span& s : spans_) {
    std::fprintf(out, "%llu,%llu,%llu,%s,%llu,%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<unsigned long long>(s.start_ns - origin_ns),
                 static_cast<unsigned long long>(s.end_ns - origin_ns));
  }
  return std::fclose(out) == 0;
}

void Report::Gate(bool ok, const std::string& what) {
  if (!ok) wrong.push_back(what);
}

namespace {

template <typename T>
void Append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

void MergePass(Report& report, Report& pass, uint64_t index) {
  report.attempted += pass.attempted;
  report.failed += pass.failed;
  Append(report.wrong, pass.wrong);
  Append(report.errors, pass.errors);
  Append(report.rates, pass.rates);
  Append(report.untraced_wall_s, pass.untraced_wall_s);
  Append(report.traced_wall_s, pass.traced_wall_s);
  Append(report.layer_samples, pass.layer_samples);
  if (pass.spans.size() > 0) report.spans = std::move(pass.spans);
  for (const auto& [key, value] : pass.facts) {
    auto [it, inserted] = report.facts.emplace(key, value);
    report.Gate(inserted || it->second == value,
                "pass " + std::to_string(index) + ": " + key + " = " + value +
                    ", earlier passes: " + it->second);
  }
}

}  // namespace

void RunPasses(const RunOptions& options, Report& report, const PassFn& pass) {
  // Pass 0 warms caches up: its outputs are checked like any other, but
  // its timings are dropped and the budget starts after it.
  Report warm_up;
  pass(warm_up, /*traced=*/false, 0);
  warm_up.rates.clear();
  warm_up.untraced_wall_s.clear();
  MergePass(report, warm_up, 0);

  const uint64_t start = NowNs();
  const double budget_ns = options.seconds * 1e9;
  const uint64_t min_passes = options.trace ? 2 : 1;
  for (uint64_t index = 1;; ++index) {
    if (index > min_passes &&
        static_cast<double>(NowNs() - start) >= budget_ns) {
      return;
    }
    // Each pass starts from a trimmed heap, so its peak does not depend on
    // what earlier passes and checks left behind.
    const bool traced = options.trace && index % 2 == 0;
    malloc_trim(0);
    ResetPeakRss();
    Report out;
    pass(out, traced, index);
    if (!traced) report.pass_peak_rss_mb.push_back(PeakRssMb());
    MergePass(report, out, index);
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()));
  if (rank > 0 && static_cast<double>(rank) == p * values.size()) --rank;
  rank = std::min(rank, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

void ResetPeakRss() {
  std::FILE* refs = std::fopen("/proc/self/clear_refs", "w");
  if (refs == nullptr) return;
  std::fputs("5", refs);
  std::fclose(refs);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"scheduler.request_ns_p50", "ns"},
      {"scheduler.request_ns_p99", "ns"},
      {"scheduler.commit_ns_p50", "ns"},
      {"scheduler.commit_ns_p99", "ns"},
      {"scheduler.busy_share", "ratio"},
      {"scheduler.grant_ratio", "ratio"},
      {"scheduler.waits_per_commit", "ratio"},
      {"scheduler.rollbacks_per_commit", "ratio"},
      {"engine.wait_share", "ratio"},
      {"engine.self_share", "ratio"},
      {"engine.txn_latency_p50_us", "us"},
      {"engine.txn_latency_p99_us", "us"},
      {"engine.finalize_ms", "ms"},
      {"engine.max_txn_restarts", "count"},
      {"sim.run_ms", "ms"},
      {"sim.ns_per_tick", "ns"},
      {"sim.ticks", "count"},
      {"sim.rollbacks", "count"},
      {"sim.wait_ticks", "count"},
      {"analysis.csr_ms", "ms"},
      {"analysis.pwsr_ms", "ms"},
      {"analysis.dr_ms", "ms"},
      {"analysis.dag_ms", "ms"},
      {"analysis.certify_ms", "ms"},
      {"analysis.conflict_edges", "count"},
      {"analysis.share", "ratio"},
      {"history.parse_ms", "ms"},
      {"history.parse_ns_per_event", "ns"},
      {"history.bytes", "bytes"},
      {"stream.feed_ns_p50", "ns"},
      {"stream.feed_ns_p99", "ns"},
      {"stream.feed_ns_max", "ns"},
      {"stream.ns_per_event", "ns"},
      {"stream.finish_ms", "ms"},
      {"stream.evictions_per_commit", "ratio"},
      {"stream.peak_retained", "count"},
      {"stream.rebuilds", "count"},
      {"search.checked_ratio", "ratio"},
      {"search.parallel_efficiency", "ratio"},
      {"solver.hit_rate", "ratio"},
      {"solver.computes", "count"},
      {"trace_overhead", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench
