// nse_check: black-box history classification from the command line.
//
//   nse_check [--window N] [--plane a,b --plane c ...] FILE.jsonl
//
// Reads a versioned JSON-lines history (docs/history-format.md), runs both
// the streaming windowed checker and the batch plane over it, asserting
// they agree on every plane's verdict and witness and on the aborted reads
// (the CLI is also a deployment of the differential contract), and prints
// the classification with witnesses in log-event coordinates.
//
// Exit codes: 0 = serializable and clean, 1 = violation (conflict cycle on
// any plane, or a committed dirty read), 2 = unreadable/malformed input or
// a disagreement between the two checkers.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/streaming_checker.h"
#include "history/batch_check.h"
#include "history/history.h"
#include "history/history_io.h"

namespace nse {
namespace {

int Usage() {
  std::cerr << "usage: nse_check [--window N] [--plane a,b]... FILE.jsonl\n";
  return 2;
}

/// Parses all of `text` as an unsigned decimal: no sign, no trailing
/// characters, no overflow.
bool ParseWindow(const char* text, size_t* window) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno == ERANGE || *end != '\0' ||
      value > std::numeric_limits<size_t>::max()) {
    return false;
  }
  *window = static_cast<size_t>(value);
  return true;
}

/// "a,b,c" → DataSet over the history's catalog.
bool ParsePlane(const Database& db, const std::string& spec, DataSet* plane) {
  std::stringstream names(spec);
  std::string name;
  while (std::getline(names, name, ',')) {
    if (name.empty()) continue;
    Result<ItemId> item = db.Find(name);
    if (!item.ok()) {
      std::cerr << "nse_check: unknown item '" << name << "' in plane '"
                << spec << "'\n";
      return false;
    }
    plane->Insert(*item);
  }
  if (plane->empty()) {
    std::cerr << "nse_check: empty plane '" << spec << "'\n";
    return false;
  }
  return true;
}

/// The differential contract: both checkers report the same verdict and
/// witness on every plane, and the same aborted reads.
bool CheckersAgree(const StreamingReport& streaming, const BatchReport& batch) {
  auto same = [](const StreamingPlaneReport& s, const BatchPlaneReport& b) {
    return s.ok == b.ok && s.violation == b.violation;
  };
  return same(streaming.full, batch.full) &&
         std::equal(streaming.planes.begin(), streaming.planes.end(),
                    batch.planes.begin(), batch.planes.end(), same) &&
         streaming.aborted_reads == batch.aborted_reads;
}

std::string DescribeViolation(const HistoryViolation& v) {
  std::ostringstream out;
  out << "conflict cycle ";
  for (size_t i = 0; i < v.cycle.size(); ++i) {
    if (i > 0) out << " -> ";
    out << "T" << v.cycle[i];
  }
  out << ", closed by edge T" << v.edge.first << " -> T" << v.edge.second
      << " at event " << v.event;
  return out.str();
}

std::string DescribePlane(const Database& db, const DataSet& plane) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (ItemId item : plane) {
    if (!first) out << ",";
    out << db.NameOf(item);
    first = false;
  }
  out << "}";
  return out.str();
}

int Run(int argc, char** argv) {
  size_t window = 64;
  std::vector<std::string> plane_specs;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      if (!ParseWindow(argv[++i], &window)) return Usage();
    } else if (std::strcmp(argv[i], "--plane") == 0 && i + 1 < argc) {
      plane_specs.push_back(argv[++i]);
    } else if (argv[i][0] == '-') {
      return Usage();
    } else if (path.empty()) {
      path = argv[i];
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();

  Result<History> parsed = ReadHistoryFile(path);
  if (!parsed.ok()) {
    std::cerr << "nse_check: " << path << ": " << parsed.status().ToString()
              << "\n";
    return 2;
  }
  const History& h = *parsed;

  StreamingOptions options;
  options.window = window;
  for (const std::string& spec : plane_specs) {
    DataSet plane;
    if (!ParsePlane(h.db, spec, &plane)) return 2;
    options.planes.push_back(plane);
  }

  StreamingReport report = CheckHistoryStreaming(h, options);
  BatchReport batch = CheckHistoryBatch(h, options.planes);
  // The CLI re-checks the differential contract on every invocation.
  if (!CheckersAgree(report, batch)) {
    std::cerr << "nse_check: internal error: streaming and batch checkers "
                 "disagree on " << path << "\n";
    return 2;
  }

  size_t txns = 0;
  for (const HistoryEvent& event : h.events) {
    if (event.type == HistoryEventType::kBegin) ++txns;
  }
  std::cout << path << ": " << h.events.size() << " events, " << txns
            << " txns, " << h.db.num_items() << " items\n";

  if (report.full.ok) {
    std::cout << "CSR: ok (committed projection is conflict serializable)\n";
  } else {
    std::cout << "CSR: VIOLATION — " << DescribeViolation(*report.full.violation)
              << "\n";
  }
  for (size_t p = 0; p < report.planes.size(); ++p) {
    std::cout << "plane " << DescribePlane(h.db, options.planes[p]) << ": ";
    if (report.planes[p].ok) {
      std::cout << "ok\n";
    } else {
      std::cout << "VIOLATION — "
                << DescribeViolation(*report.planes[p].violation) << "\n";
    }
  }
  if (!report.planes.empty()) {
    const bool pwsr = std::none_of(
        report.planes.begin(), report.planes.end(),
        [](const StreamingPlaneReport& p) { return !p.ok; });
    std::cout << "per-plane serializability: " << (pwsr ? "ok" : "VIOLATION")
              << "\n";
  }
  if (report.aborted_reads.empty()) {
    std::cout << "aborted reads: none\n";
  } else {
    std::cout << "aborted reads: events";
    for (size_t event : report.aborted_reads) std::cout << " " << event;
    std::cout << "\n";
  }
  std::cout << "verdict: " << (report.ok() ? "clean" : "violation") << "\n";
  return report.ok() ? 0 : 1;
}

}  // namespace
}  // namespace nse

int main(int argc, char** argv) { return nse::Run(argc, argv); }
