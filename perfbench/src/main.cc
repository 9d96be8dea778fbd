// Benchmark entry point: runs one workload and prints its metrics.
//
//   nse_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--commit <sha>] [--trace-dir <dir>]
//   nse_perfbench --self-test
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Earlier lines give the
// host facts and a readable table. A wrong verdict exits 1 (after the
// result line); bad arguments exit 2 without a result.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::map<std::string, std::function<Report(const RunOptions&)>>&
Workloads() {
  static const std::map<std::string, std::function<Report(const RunOptions&)>>
      kWorkloads = {
          {"oltp_2pl", RunOltp2pl},
          {"certify_pwsr", RunCertifyPwsr},
          {"audit_log", RunAuditLog},
          {"theorem_search", RunTheoremSearch},
      };
  return kWorkloads;
}

/// Metric-name prefixes of the layers each workload drives; the self-test
/// requires every per-layer metric under them to be measured.
const std::map<std::string, std::vector<std::string>>& DrivenLayers() {
  static const std::map<std::string, std::vector<std::string>> kLayers = {
      {"oltp_2pl", {"scheduler.", "engine."}},
      {"certify_pwsr", {"scheduler.", "sim.", "analysis."}},
      {"audit_log", {"history.", "stream."}},
      {"theorem_search", {"search.", "solver."}},
  };
  return kLayers;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::vector<Metric> EndToEnd(const Report& report) {
  return {
      {"throughput_per_s", Median(report.rates), "1/s"},
      {"setup_s", report.setup_s, "s"},
      {"peak_rss_mb",
       std::max(report.setup_peak_rss_mb, Median(report.pass_peak_rss_mb)),
       "MB"},
  };
}

std::vector<Metric> PerLayer(const Report& report) {
  std::vector<Metric> out;
  for (const MetricDef& def : PerLayerMetrics()) {
    double value = 0;
    if (std::strcmp(def.name, "trace_overhead") == 0) {
      double base = Median(report.untraced_wall_s);
      value = base > 0 ? Median(report.traced_wall_s) / base : 0;
    } else {
      std::vector<double> samples;
      for (const LayerSample& sample : report.layer_samples) {
        auto it = sample.find(def.name);
        if (it != sample.end()) samples.push_back(it->second);
      }
      value = Median(samples);
    }
    out.push_back({def.name, value, def.unit});
  }
  return out;
}

std::string HostJson(const RunOptions& options, const std::string& commit) {
  std::string json = "{";
  json += "\"workload\":" + JsonString(options.workload);
  json += ",\"seed\":" + std::to_string(options.seed);
  json += ",\"seconds\":" + JsonNumber(options.seconds);
  json += ",\"trace\":" + std::to_string(options.trace ? 1 : 0);
  json += ",\"nproc\":" + std::to_string(ClampThreads(SIZE_MAX));
  json += ",\"compiler\":" + JsonString(
#if defined(__clang__)
      std::string("clang ") + __clang_version__
#elif defined(__GNUC__)
      std::string("gcc ") + __VERSION__
#else
      std::string("unknown")
#endif
  );
  json += ",\"build_type\":" + JsonString(NSE_PERFBENCH_BUILD_TYPE);
  json += ",\"commit\":" + JsonString(commit.empty() ? "unknown" : commit);
  return json + "}";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return json + "}";
}

/// Writes the traced run's spans and summary next to each other.
void WriteTrace(const RunOptions& options, const std::string& host,
                const Report& report, const std::vector<Metric>& metrics,
                uint64_t origin_ns) {
  std::error_code ec;
  std::filesystem::create_directories(options.trace_dir, ec);
  const std::string stem = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed);
  if (!report.spans.WriteCsv(stem + ".spans.csv", origin_ns)) {
    std::fprintf(stderr, "cannot write %s.spans.csv\n", stem.c_str());
  }
  std::FILE* out = std::fopen((stem + ".json").c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s.json\n", stem.c_str());
    return;
  }
  std::fprintf(out, "{\"host\": %s, \"spans\": %zu, \"metrics\": %s}\n",
               host.c_str(), report.spans.size(),
               MetricsJson(metrics).c_str());
  std::fclose(out);
}

int RunOne(const RunOptions& options, const std::string& commit) {
  const uint64_t origin_ns = NowNs();
  const std::string host = HostJson(options, commit);
  std::printf("host: %s\n", host.c_str());
  Report report = Workloads().at(options.workload)(options);

  for (const auto& [key, value] : report.facts) {
    std::printf("fact: %s = %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& error : report.errors) {
    std::printf("failed attempt: %s\n", error.c_str());
  }
  for (const std::string& what : report.wrong) {
    std::printf("WRONG: %s\n", what.c_str());
  }
  const std::vector<Metric> metrics =
      options.trace ? PerLayer(report) : EndToEnd(report);
  if (!options.trace) {
    std::printf("metric: %s = %s %s/s\n", report.rate_name.c_str(),
                JsonNumber(Median(report.rates)).c_str(), report.unit.c_str());
    std::printf("metric: error_rate = %s ratio\n",
                JsonNumber(report.attempted == 0
                               ? 0
                               : static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted))
                    .c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("metric: %s = %s %s\n", m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  std::printf("passes: %zu untraced, %zu traced\npass walls (s):",
              report.untraced_wall_s.size(), report.traced_wall_s.size());
  for (double s : report.untraced_wall_s) std::printf(" %.4f", s);
  std::printf(" |");
  for (double s : report.traced_wall_s) std::printf(" %.4f", s);
  std::printf("\n");
  if (options.trace && !options.trace_dir.empty()) {
    WriteTrace(options, host, report, metrics, origin_ns);
  }
  const bool correct = report.wrong.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Every workload on tiny inputs with tracing on (one untraced and one
/// traced pass), all gates and the observer reconciliation asserted, and
/// every per-layer metric of the layers it drives measured.
int SelfTest() {
  int failures = 0;
  for (const auto& [name, run] : Workloads()) {
    RunOptions options;
    options.workload = name;
    options.seed = 7;
    options.seconds = 0;
    options.trace = true;
    options.tiny = true;
    Report report = run(options);
    std::vector<std::string> problems = report.wrong;
    problems.insert(problems.end(), report.errors.begin(),
                    report.errors.end());
    if (report.attempted == 0) problems.push_back("nothing attempted");
    if (report.failed != 0) problems.push_back("failed attempts");
    if (report.rates.empty()) problems.push_back("no untraced pass");
    if (report.layer_samples.empty()) problems.push_back("no traced pass");
    if (report.spans.size() == 0) problems.push_back("no spans recorded");
    for (const MetricDef& def : PerLayerMetrics()) {
      for (const std::string& prefix : DrivenLayers().at(name)) {
        if (std::strncmp(def.name, prefix.c_str(), prefix.size()) != 0) {
          continue;
        }
        if (report.layer_samples.empty() ||
            report.layer_samples[0].count(def.name) == 0) {
          problems.push_back(std::string("unmeasured ") + def.name);
        }
      }
    }
    std::printf("self-test %-15s %s\n", name.c_str(),
                problems.empty() ? "ok" : "FAILED");
    for (const std::string& p : problems) std::printf("  %s\n", p.c_str());
    if (!problems.empty()) ++failures;
  }
  std::printf("self-test %s\n", failures == 0 ? "passed" : "failed");
  return failures == 0 ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: nse_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <sha>] "
               "[--trace-dir <dir>]\n       nse_perfbench --self-test\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string commit;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || value.empty() || !(options.seconds >= 0) ||
          options.seconds > 600) {
        return Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      options.trace = value == "1";
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (Workloads().count(options.workload) == 0) {
    return Usage("unknown or missing --workload");
  }
  return RunOne(options, commit);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Fixed allocator thresholds, so that peak_rss_mb repeats. By default
  // glibc raises its mmap threshold as large blocks are freed (to at most
  // 32 MiB, with the trim threshold at twice that), and how much freed
  // memory the heap kept then depended on timing: one oltp_2pl seed's pass
  // peaks ranged over 176-217 MB. With the mmap threshold at that maximum
  // from the start and freed heap tops above 8 MiB returned, they repeat
  // within 0.5% (149 MB). certify_pwsr, the workload heaviest in large
  // short-lived blocks, runs as fast as with the defaults; a trim
  // threshold of 1 MiB or less slowed it by 40%.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 8 << 20);
  return perfbench::Main(argc, argv);
}
