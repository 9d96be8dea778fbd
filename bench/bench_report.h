// Shared plumbing for the bench binaries: argument parsing, wall-clock
// timing, and the JSON row writer tools/check_bench_regression.py reads.
//
// Every field declares its guard class when it is added to a row
// (docs/adr/0012-bench-rows-declare-their-guard-class.md):
//   key   — row identity; the guard joins baseline and fresh rows on it;
//   exact — a deterministic output of a seeded run; must match exactly;
//   ratio — a relative measurement; may not fall below baseline / 2;
//   info  — reported, never compared (absolute times, host-bound rates).

#ifndef NSE_BENCH_BENCH_REPORT_H_
#define NSE_BENCH_BENCH_REPORT_H_

#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace nse::bench {

struct BenchArgs {
  bool smoke = false;     ///< tiny configurations, checks only, no JSON
  std::string json_path;  ///< where a full run writes its report
};

/// `[--smoke] [JSON_PATH]`; the path defaults to `default_json`.
inline BenchArgs ParseBenchArgs(int argc, char** argv,
                                std::string default_json) {
  BenchArgs args;
  args.json_path = std::move(default_json);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else {
      args.json_path = argv[i];
    }
  }
  return args;
}

inline double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Best-of-`reps` wall time of each of `runs`, in milliseconds. The reps
/// run in rounds, each round timing every run once in order, so host drift
/// over the rounds hits every run alike: a speedup taken against `runs[0]`
/// compares runs that shared the same stretches of host time.
inline std::vector<double> BestOfInterleavedMs(
    int reps, const std::vector<std::function<void()>>& runs) {
  std::vector<double> best(runs.size(), 0);
  for (int r = 0; r < reps; ++r) {
    for (size_t i = 0; i < runs.size(); ++i) {
      const auto start = std::chrono::steady_clock::now();
      runs[i]();
      const double ms = MsSince(start);
      if (r == 0 || ms < best[i]) best[i] = ms;
    }
  }
  return best;
}

/// Best-of-`reps` wall time of `run`, in milliseconds.
inline double BestOfMs(int reps, const std::function<void()>& run) {
  return BestOfInterleavedMs(reps, {run})[0];
}

/// A JSON scalar, rendered once when the field is added. Doubles carry the
/// number of fractional digits they are printed with.
class JsonValue {
 public:
  JsonValue(const char* s) : JsonValue(std::string(s)) {}
  JsonValue(const std::string& s) : text_("\"") {
    for (char c : s) {
      if (c == '"' || c == '\\') {
        text_ += '\\';
        text_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char escaped[8];
        std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
        text_ += escaped;
      } else {
        text_ += c;
      }
    }
    text_ += '"';
  }
  JsonValue(bool b) : text_(b ? "true" : "false") {}
  template <typename T, std::enable_if_t<std::is_integral_v<T> &&
                                             !std::is_same_v<T, bool>,
                                         int> = 0>
  JsonValue(T v) : text_(std::to_string(v)) {}
  JsonValue(double v, int digits = 3) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    text_ = buf;
  }

  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

/// One row: four field groups, one per guard class, in insertion order.
class BenchRow {
 public:
  BenchRow& Key(const std::string& name, JsonValue v) {
    return Add(0, name, std::move(v));
  }
  BenchRow& Exact(const std::string& name, JsonValue v) {
    return Add(1, name, std::move(v));
  }
  BenchRow& Ratio(const std::string& name, double v) {
    return Add(2, name, JsonValue(v, 3));
  }
  BenchRow& Info(const std::string& name, JsonValue v) {
    return Add(3, name, std::move(v));
  }

  /// `{"key": {...}, "exact": {...}, ...}`; empty groups other than the
  /// key are left out.
  std::string ToJson() const {
    static const char* const kClasses[] = {"key", "exact", "ratio", "info"};
    std::string out = "{";
    for (int c = 0; c < 4; ++c) {
      if (c > 0 && groups_[c].empty()) continue;
      if (c > 0) out += ", ";
      out += std::string("\"") + kClasses[c] + "\": {";
      for (size_t i = 0; i < groups_[c].size(); ++i) {
        if (i > 0) out += ", ";
        out += "\"" + groups_[c][i].first + "\": " + groups_[c][i].second;
      }
      out += "}";
    }
    return out + "}";
  }

 private:
  BenchRow& Add(int group, const std::string& name, JsonValue v) {
    groups_[group].emplace_back(name, v.text());
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> groups_[4];
};

/// The rows of one bench run, written as
/// `{"bench": NAME, "host_cores": N, "rows": [...]}`.
class BenchReport {
 public:
  explicit BenchReport(std::string bench) : bench_(std::move(bench)) {}

  /// The returned row stays valid across later AddRow calls.
  BenchRow& AddRow() { return rows_.emplace_back(); }

  /// Writes the report to `path`; on failure prints "cannot write PATH"
  /// and returns false.
  bool Write(const std::string& path) const {
    std::FILE* json = std::fopen(path.c_str(), "w");
    if (json == nullptr) {
      std::cerr << "cannot write " << path << "\n";
      return false;
    }
    std::fprintf(json, "{\n  \"bench\": \"%s\",\n  \"host_cores\": %u,\n",
                 bench_.c_str(), std::thread::hardware_concurrency());
    std::fprintf(json, "  \"rows\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(json, "    %s%s\n", rows_[i].ToJson().c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    if (std::fclose(json) != 0) {
      std::cerr << "cannot write " << path << "\n";
      return false;
    }
    std::cout << "baseline written to " << path << "\n";
    return true;
  }

 private:
  std::string bench_;
  std::deque<BenchRow> rows_;
};

}  // namespace nse::bench

#endif  // NSE_BENCH_BENCH_REPORT_H_
