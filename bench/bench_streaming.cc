// The streaming checker's throughput/memory contract, measured: a
// million-op history is streamed through the windowed checker without ever
// being materialized, and the JSON rows pin (exactly — the stream is a
// pure function of the seed) how many transactions the window actually
// retains. The lane-structured stream is acyclic by construction — each
// lane runs its transactions serially over its own item block, and the
// only cross-lane conflicts are reads of a hot read-only set written once
// up front — so no plane ever latches a violation and every event pays
// full bookkeeping: the numbers are the checker's steady state, not the
// post-latch fast path. peak_retained must stay near window + lanes while
// the log holds hundreds of thousands of transactions; that inequality is
// NSE_CHECKed here and the exact counters are guarded by
// tools/check_bench_regression.py against BENCH_streaming.json.
//
// Two guarded ratios pin the retirement cost. `window_512_vs_64` is the
// window-512 row's ops/s over the window-64 row's: eviction pops a
// worklist, so a larger window costs only the extra edges it retains,
// not a rescan of the retained slots. `catalog_16k_vs_4k` compares two
// window-64 rows over 4,100 and 16,388 items: the access-index erase
// visits the retired transaction's items, not the catalog.
//
// The speedup row materializes a smaller lane log and times the streaming
// pass against the batch plane (CommittedProjection → AnalysisContext) on
// the same history, asserting verdict agreement first — the differential
// contract from the test suite, re-checked at bench scale. The
// parse_vs_stream row serializes that log, asserts ParseHistory gives it
// back event for event, and guards streaming wall ÷ parse wall: the share
// of an `nse_check` pass the parser costs next to the checker.
//
// --smoke runs tiny streams with all the asserts and no JSON; the full
// run writes BENCH_streaming.json (override the path with the last
// argument).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/streaming_checker.h"
#include "bench_report.h"
#include "common/logging.h"
#include "common/rng.h"
#include "history/batch_check.h"
#include "history/history.h"
#include "history/history_io.h"
#include "state/database.h"

namespace nse {
namespace {

struct LaneConfig {
  uint32_t lanes = 8;            ///< concurrent serial lanes
  /// Private block per lane. Sized so same-lane conflicts are sparse: the
  /// conflict-graph edge count of the WHOLE log grows ~quadratically in
  /// transactions over a fixed catalog (every item reuse is a conflict),
  /// so a tiny block would make any whole-log analysis — batch, or
  /// streaming with an unbounded window — inherently quadratic. The
  /// windowed checker only ever sees the retained neighborhood either
  /// way; the block size governs the batch side of the speedup row.
  uint32_t items_per_lane = 64;
  uint32_t hot_items = 4;        ///< read-only shared set
  uint32_t min_ops = 2;          ///< ops per transaction, uniform
  uint32_t max_ops = 6;
  double hot_read_fraction = 0.2;
  double write_fraction = 0.5;
  uint64_t target_ops = 1'000'000;
  uint64_t seed = 42;
};

Database LaneCatalog(const LaneConfig& config) {
  Database db;
  std::vector<std::string> names;
  for (uint32_t lane = 0; lane < config.lanes; ++lane) {
    for (uint32_t i = 0; i < config.items_per_lane; ++i) {
      names.push_back("l" + std::to_string(lane) + "_" + std::to_string(i));
    }
  }
  for (uint32_t h = 0; h < config.hot_items; ++h) {
    names.push_back("hot" + std::to_string(h));
  }
  NSE_CHECK(db.AddIntItems(names, 0, 1 << 20).ok());
  return db;
}

/// Deterministic lane-structured stream: lane transactions are serial
/// within a lane (conflict edges only flow forward along each lane) and
/// the hot set is written exactly once by the setup transaction before
/// any reader begins, so the full conflict graph is acyclic no matter how
/// the lanes interleave. `sink` receives every event; an optional
/// collector materializes the log for batch comparison.
template <typename Sink>
uint64_t EmitLaneStream(const LaneConfig& config, const Database& db,
                        Sink&& sink) {
  struct Lane {
    TxnId txn = 0;
    uint32_t ops_left = 0;
  };
  Rng rng(config.seed);
  const ItemId hot_base = config.lanes * config.items_per_lane;
  TxnId next_txn = 1;
  int64_t next_value = 1;
  uint64_t ops = 0;

  // Setup transaction: writes the hot set, commits before anyone reads.
  const TxnId setup = next_txn++;
  sink(HistoryEvent::Begin(setup));
  for (uint32_t h = 0; h < config.hot_items; ++h) {
    sink(HistoryEvent::Write(setup, hot_base + h, Value(next_value++)));
    ++ops;
  }
  sink(HistoryEvent::Commit(setup));

  std::vector<Lane> lanes(config.lanes);
  while (ops < config.target_ops) {
    Lane& lane = lanes[rng.NextBelow(config.lanes)];
    const uint32_t lane_index = static_cast<uint32_t>(&lane - lanes.data());
    if (lane.txn == 0) {
      lane.txn = next_txn++;
      lane.ops_left = static_cast<uint32_t>(
          rng.NextInt(config.min_ops, config.max_ops));
      sink(HistoryEvent::Begin(lane.txn));
      continue;
    }
    if (lane.ops_left == 0) {
      sink(HistoryEvent::Commit(lane.txn));
      lane.txn = 0;
      continue;
    }
    --lane.ops_left;
    ++ops;
    if (rng.NextBool(config.hot_read_fraction)) {
      const ItemId item = hot_base +
                          static_cast<ItemId>(rng.NextBelow(config.hot_items));
      sink(HistoryEvent::Read(lane.txn, item, Value(0), setup));
      continue;
    }
    const ItemId item =
        lane_index * config.items_per_lane +
        static_cast<ItemId>(rng.NextBelow(config.items_per_lane));
    if (rng.NextBool(config.write_fraction)) {
      sink(HistoryEvent::Write(lane.txn, item, Value(next_value++)));
    } else {
      sink(HistoryEvent::Read(lane.txn, item, Value(0)));
    }
  }
  for (Lane& lane : lanes) {
    if (lane.txn != 0) sink(HistoryEvent::Commit(lane.txn));
  }
  return ops;
}

struct StreamRow {
  std::string name;
  size_t items = 0;
  size_t window = 0;
  size_t planes = 0;
  StreamingStats stats;
  uint64_t violations = 0;
  size_t aborted_reads = 0;
  double wall_ms = 0;
  double ops_per_s = 0;
  /// Guarded ratio of this row, if any: the speedup against batch, or this
  /// row's ops/s against a sibling row's (a cliff's before/after figure).
  std::string ratio_name;
  double ratio = 0;
  double batch_ms = 0;  ///< only on the speedup row
};

/// Streams the lane log straight into the checker — nothing materialized.
StreamRow RunStreamRow(const std::string& name, const LaneConfig& config,
                       size_t window, size_t plane_count) {
  Database db = LaneCatalog(config);
  StreamingOptions options;
  options.window = window;
  if (plane_count > 1) {
    // Split the catalog into contiguous ranges.
    const ItemId per = static_cast<ItemId>(db.num_items() / plane_count);
    for (size_t p = 0; p < plane_count; ++p) {
      DataSet plane;
      const ItemId lo = static_cast<ItemId>(p * per);
      const ItemId hi = (p + 1 == plane_count)
                            ? static_cast<ItemId>(db.num_items())
                            : static_cast<ItemId>(lo + per);
      for (ItemId item = lo; item < hi; ++item) plane.Insert(item);
      options.planes.push_back(plane);
    }
  }
  StreamingChecker checker(db, options);
  const auto start = std::chrono::steady_clock::now();
  EmitLaneStream(config, db, [&](const HistoryEvent& event) {
    Status fed = checker.Feed(event);
    NSE_CHECK_MSG(fed.ok(), "%s", fed.ToString().c_str());
  });
  NSE_CHECK(!checker.violation_seen());  // acyclic by construction
  StreamingReport report = checker.Finish();
  const double wall_ms = bench::MsSince(start);
  NSE_CHECK(report.ok());
  // The memory contract: retention tracks the window plus the concurrent
  // lanes, not the log.
  NSE_CHECK_MSG(report.stats.peak_retained < window + config.lanes + 16,
                "peak_retained %zu exceeds window bound",
                report.stats.peak_retained);

  StreamRow row;
  row.name = name;
  row.items = db.num_items();
  row.window = window;
  row.planes = options.planes.size();
  row.stats = report.stats;
  row.violations = report.full.ok ? 0 : 1;
  row.aborted_reads = report.aborted_reads.size();
  row.wall_ms = wall_ms;
  row.ops_per_s = report.stats.ops / (wall_ms / 1e3);
  return row;
}

History LaneHistory(const LaneConfig& config) {
  History h;
  h.db = LaneCatalog(config);
  EmitLaneStream(config, h.db,
                 [&](const HistoryEvent& event) { h.events.push_back(event); });
  return h;
}

/// Times streaming vs the batch plane on the identical history, asserting
/// the differential contract first.
StreamRow RunSpeedupRow(const History& h, size_t window) {
  auto start = std::chrono::steady_clock::now();
  StreamingOptions options;
  options.window = window;
  StreamingReport streaming = CheckHistoryStreaming(h, options);
  const double streaming_ms = bench::MsSince(start);

  start = std::chrono::steady_clock::now();
  BatchReport batch = CheckHistoryBatch(h);
  const double batch_ms = bench::MsSince(start);

  NSE_CHECK(streaming.full.ok == batch.full.ok);
  NSE_CHECK(streaming.aborted_reads == batch.aborted_reads);
  NSE_CHECK(streaming.ok() && batch.ok());

  StreamRow row;
  row.name = "speedup_vs_batch";
  row.items = h.db.num_items();
  row.window = window;
  row.stats = streaming.stats;
  row.violations = streaming.full.ok ? 0 : 1;
  row.aborted_reads = streaming.aborted_reads.size();
  row.wall_ms = streaming_ms;
  row.ops_per_s = streaming.stats.ops / (streaming_ms / 1e3);
  row.ratio_name = "speedup_vs_batch";
  row.ratio = batch_ms / streaming_ms;
  row.batch_ms = batch_ms;
  return row;
}

struct ParseTimes {
  double parse_ms = 0;   ///< best of three ParseHistory walls
  double stream_ms = 0;  ///< best of three streaming passes
};

/// Serializes `h`, checks the parse reproduces it event for event (item
/// ids may differ: the parser numbers items by first appearance), then
/// times ParseHistory against a streaming pass over the same log.
ParseTimes RunParseRow(const History& h, size_t window) {
  const std::string text = SerializeHistory(h);
  Result<History> parsed = ParseHistory(text);
  NSE_CHECK_MSG(parsed.ok(), "%s", parsed.status().ToString().c_str());
  NSE_CHECK(parsed->events.size() == h.events.size());
  for (size_t i = 0; i < h.events.size(); ++i) {
    const HistoryEvent& a = h.events[i];
    const HistoryEvent& b = parsed->events[i];
    NSE_CHECK(a.type == b.type && a.txn == b.txn && a.value == b.value &&
              a.read_from == b.read_from);
    if (a.type == HistoryEventType::kRead ||
        a.type == HistoryEventType::kWrite) {
      NSE_CHECK(h.db.NameOf(a.item) == parsed->db.NameOf(b.item));
    }
  }

  ParseTimes row;
  StreamingOptions options;
  options.window = window;
  for (int rep = 0; rep < 3; ++rep) {
    auto start = std::chrono::steady_clock::now();
    NSE_CHECK(ParseHistory(text).ok());
    const double parse_ms = bench::MsSince(start);
    start = std::chrono::steady_clock::now();
    NSE_CHECK(CheckHistoryStreaming(h, options).ok());
    const double stream_ms = bench::MsSince(start);
    if (rep == 0 || parse_ms < row.parse_ms) row.parse_ms = parse_ms;
    if (rep == 0 || stream_ms < row.stream_ms) row.stream_ms = stream_ms;
  }
  return row;
}

void PrintRow(const StreamRow& row) {
  std::printf(
      "%-22s items %-5zu window %-5zu planes %zu | %9llu events %9llu ops "
      "%8.0f ops/s | retained peak %5zu evictions %8llu rebuilds %llu",
      row.name.c_str(), row.items, row.window, row.planes,
      static_cast<unsigned long long>(row.stats.events),
      static_cast<unsigned long long>(row.stats.ops), row.ops_per_s,
      row.stats.peak_retained,
      static_cast<unsigned long long>(row.stats.evictions),
      static_cast<unsigned long long>(row.stats.rebuilds));
  if (row.batch_ms > 0) {
    std::printf(" | %.2fx vs batch (%.1f ms vs %.1f ms)", row.ratio,
                row.wall_ms, row.batch_ms);
  } else if (!row.ratio_name.empty()) {
    std::printf(" | %s %.3f", row.ratio_name.c_str(), row.ratio);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace nse

int main(int argc, char** argv) {
  using namespace nse;
  const bench::BenchArgs args =
      bench::ParseBenchArgs(argc, argv, "BENCH_streaming.json");
  LaneConfig stream_config;
  LaneConfig speedup_config;
  speedup_config.target_ops = 50'000;
  speedup_config.seed = 7;
  speedup_config.items_per_lane = 512;  // keep the batch edge count sane
  LaneConfig catalog_config;  // the catalog pair: 512 vs 2048 items per lane
  catalog_config.target_ops = 200'000;
  if (args.smoke) {
    stream_config.target_ops = 4'000;
    speedup_config.target_ops = 4'000;
    catalog_config.target_ops = 4'000;
  }
  const auto relative_to = [](StreamRow& row, const char* name,
                              const StreamRow& base) {
    row.ratio_name = name;
    row.ratio = row.ops_per_s / base.ops_per_s;
  };

  std::vector<StreamRow> rows;
  const StreamRow window_64 =
      RunStreamRow("lane_stream", stream_config, 64, 0);
  rows.push_back(window_64);
  rows.push_back(RunStreamRow("lane_stream", stream_config, 512, 0));
  relative_to(rows.back(), "window_512_vs_64", window_64);
  rows.push_back(RunStreamRow("lane_stream_planes", stream_config, 64, 2));
  catalog_config.items_per_lane = 512;
  const StreamRow catalog_4k =
      RunStreamRow("lane_stream", catalog_config, 64, 0);
  rows.push_back(catalog_4k);
  catalog_config.items_per_lane = 2048;
  rows.push_back(RunStreamRow("lane_stream", catalog_config, 64, 0));
  relative_to(rows.back(), "catalog_16k_vs_4k", catalog_4k);
  const History speedup_log = LaneHistory(speedup_config);
  rows.push_back(RunSpeedupRow(speedup_log, 64));
  for (const StreamRow& row : rows) PrintRow(row);
  const ParseTimes parse = RunParseRow(speedup_log, 64);
  std::printf(
      "%-22s items %-5zu window %-5d          | %9zu events | parse %.1f ms "
      "stream %.1f ms | parse_vs_stream %.3f\n",
      "parse_vs_stream", speedup_log.db.num_items(), 64,
      speedup_log.events.size(), parse.parse_ms, parse.stream_ms,
      parse.stream_ms / parse.parse_ms);

  if (args.smoke) {
    std::printf("smoke ok\n");
    return 0;
  }

  bench::BenchReport report("streaming");
  for (const StreamRow& row : rows) {
    bench::BenchRow& out = report.AddRow()
                               .Key("case", row.name)
                               .Key("items", row.items)
                               .Key("window", row.window)
                               .Key("planes", row.planes)
                               .Exact("events", row.stats.events)
                               .Exact("ops", row.stats.ops)
                               .Exact("commits", row.stats.commits)
                               .Exact("evictions", row.stats.evictions)
                               .Exact("rebuilds", row.stats.rebuilds)
                               .Exact("peak_retained", row.stats.peak_retained)
                               .Exact("violations", row.violations)
                               .Exact("aborted_reads", row.aborted_reads);
    if (!row.ratio_name.empty()) out.Ratio(row.ratio_name, row.ratio);
    if (row.batch_ms > 0) out.Info("batch_ms", row.batch_ms);
    out.Info("ops_per_s", bench::JsonValue(row.ops_per_s, 0))
        .Info("wall_ms", row.wall_ms);
  }
  report.AddRow()
      .Key("case", "parse_vs_stream")
      .Key("items", speedup_log.db.num_items())
      .Key("window", 64)
      .Exact("events", speedup_log.events.size())
      .Ratio("parse_vs_stream", parse.stream_ms / parse.parse_ms)
      .Info("parse_ms", parse.parse_ms)
      .Info("stream_ms", parse.stream_ms);
  return report.Write(args.json_path) ? 0 : 1;
}
