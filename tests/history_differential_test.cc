// The black-box plane's differential fuzz harness: for K seeds the
// adversarial generator draws a history (anomaly gadgets seeded at random
// rates), and the streaming windowed checker must agree with the batch
// plane (CommittedProjection → AnalysisContext) field for field — verdict,
// witness edge, witness cycle, witness event position, dirty-read events —
// at every window size, including windows far smaller than the history.
// A prefix sweep separately pins the eviction-soundness property: a
// tiny-window streaming pass over any prefix equals batch re-analysis of
// that prefix, so eviction can never flip a verdict. Golden logs under
// tests/data/ (the paper's §2 examples among them) pin absolute verdicts
// rather than mere agreement, and the trace converters close the loop by
// feeding sim/engine output (ground truth: strict 2PL ⇒ CSR) through the
// serialized format into both checkers — after checking that every traced
// read carries the value of the write it read from, under strict 2PL and
// MVTO on both drivers.

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/streaming_checker.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "fuzz_env.h"
#include "history/batch_check.h"
#include "history/history.h"
#include "history/history_generator.h"
#include "history/history_io.h"
#include "history/trace_export.h"
#include "scheduler/mvto_policy.h"
#include "scheduler/sim.h"
#include "scheduler/two_phase_locking.h"
#include "scheduler/workload.h"

namespace nse {
namespace {

std::vector<uint64_t> FuzzSeeds() {
  std::vector<uint64_t> seeds;
  for (uint64_t s = 1; s <= FuzzSeedCount(10); ++s) seeds.push_back(s);
  return seeds;
}

/// Field-for-field agreement between the two planes' reports.
void ExpectAgreement(const StreamingReport& streaming, const BatchReport& batch,
                     const std::string& context) {
  EXPECT_EQ(streaming.full.ok, batch.full.ok) << context;
  ASSERT_EQ(streaming.full.violation.has_value(),
            batch.full.violation.has_value())
      << context;
  if (streaming.full.violation.has_value()) {
    EXPECT_EQ(streaming.full.violation->edge, batch.full.violation->edge)
        << context;
    EXPECT_EQ(streaming.full.violation->event, batch.full.violation->event)
        << context;
    EXPECT_EQ(streaming.full.violation->cycle, batch.full.violation->cycle)
        << context;
  }
  ASSERT_EQ(streaming.planes.size(), batch.planes.size()) << context;
  for (size_t p = 0; p < streaming.planes.size(); ++p) {
    const std::string plane_context = context + " plane " + std::to_string(p);
    EXPECT_EQ(streaming.planes[p].ok, batch.planes[p].ok) << plane_context;
    ASSERT_EQ(streaming.planes[p].violation.has_value(),
              batch.planes[p].violation.has_value())
        << plane_context;
    if (streaming.planes[p].violation.has_value()) {
      EXPECT_EQ(streaming.planes[p].violation->edge,
                batch.planes[p].violation->edge)
          << plane_context;
      EXPECT_EQ(streaming.planes[p].violation->event,
                batch.planes[p].violation->event)
          << plane_context;
      EXPECT_EQ(streaming.planes[p].violation->cycle,
                batch.planes[p].violation->cycle)
          << plane_context;
    }
  }
  EXPECT_EQ(streaming.aborted_reads, batch.aborted_reads) << context;
  EXPECT_EQ(streaming.ok(), batch.ok()) << context;
}

/// Splits the catalog into two planes (odd/even items) — overlap-free, so
/// the projected planes exercise the PWSR-style per-conjunct machinery.
std::vector<DataSet> HalvePlanes(const Database& db) {
  DataSet evens;
  DataSet odds;
  for (ItemId item = 0; item < db.num_items(); ++item) {
    if (item % 2 == 0) {
      evens.Insert(item);
    } else {
      odds.Insert(item);
    }
  }
  std::vector<DataSet> planes;
  if (!evens.empty()) planes.push_back(evens);
  if (!odds.empty()) planes.push_back(odds);
  return planes;
}

class HistoryDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistoryDifferentialFuzz, StreamingAgreesWithBatchAtEveryWindow) {
  const uint64_t seed = GetParam();
  History h = DrawHistory(seed);
  ASSERT_TRUE(ValidateHistory(h).ok()) << "seed " << seed;
  const std::vector<DataSet> planes = HalvePlanes(h.db);
  for (size_t window : {size_t{2}, size_t{8}, size_t{0}}) {
    const std::string context =
        "seed " + std::to_string(seed) + " window " + std::to_string(window);
    // Full plane only.
    StreamingOptions options;
    options.window = window;
    ExpectAgreement(CheckHistoryStreaming(h, options), CheckHistoryBatch(h),
                    context);
    // With projected planes.
    options.planes = planes;
    ExpectAgreement(CheckHistoryStreaming(h, options),
                    CheckHistoryBatch(h, planes), context + " planes");
  }
}

TEST_P(HistoryDifferentialFuzz, SerializedFormRoundTripsTheVerdict) {
  const uint64_t seed = GetParam();
  History h = DrawHistory(seed);
  Result<History> reparsed = ParseHistory(SerializeHistory(h));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  // Same verdict and witnesses whether checked in memory or after a trip
  // through the wire format (item ids may be renumbered; txn ids are not).
  ExpectAgreement(CheckHistoryStreaming(*reparsed), CheckHistoryBatch(h),
                  "seed " + std::to_string(seed));
}

// Eviction soundness: streaming with the tiniest useful window over any
// prefix of the log equals batch re-analysis of that prefix. In
// particular an eviction can never convert a violation into an ok.
TEST_P(HistoryDifferentialFuzz, TinyWindowPrefixesEqualBatchReanalysis) {
  const uint64_t seed = GetParam();
  History h = DrawHistory(seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  // Sample a handful of prefix boundaries (always including the full log).
  std::vector<size_t> cuts;
  for (int i = 0; i < 6; ++i) {
    cuts.push_back(rng.NextBelow(h.events.size() + 1));
  }
  cuts.push_back(h.events.size());
  for (size_t cut : cuts) {
    History prefix;
    prefix.db = h.db;
    prefix.events.assign(h.events.begin(), h.events.begin() + cut);
    StreamingOptions options;
    options.window = 2;
    ExpectAgreement(
        CheckHistoryStreaming(prefix, options), CheckHistoryBatch(prefix),
        "seed " + std::to_string(seed) + " cut " + std::to_string(cut));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistoryDifferentialFuzz,
                         ::testing::ValuesIn(FuzzSeeds()));

// The online verdict never lags: violation_seen() flips exactly when the
// batch verdict over the fed prefix first becomes a violation (cycle or
// committed dirty read).
TEST(HistoryDifferentialTest, OnlineVerdictMatchesBatchPrefixTransition) {
  HistoryGenOptions options;
  options.num_txns = 16;
  options.lost_update_fraction = 0.3;
  options.dirty_read_fraction = 0.2;
  History h = HistoryGenerator(options, 5).Generate();
  StreamingChecker checker(h.db);
  History prefix;
  prefix.db = h.db;
  for (size_t i = 0; i < h.events.size(); ++i) {
    ASSERT_TRUE(checker.Feed(h.events[i]).ok());
    prefix.events.push_back(h.events[i]);
    BatchReport batch = CheckHistoryBatch(prefix);
    EXPECT_EQ(checker.violation_seen(), !batch.ok()) << "event " << i;
  }
}

/// The value rule both drivers follow: a write traces its trace_seq and a
/// read the value it observed. Every traced read must therefore carry the
/// traced value of the write it read from — the preceding write of the
/// item under a single-version policy, the read_sources writer's latest
/// write of it under a multiversion one — or 0 for the initial state.
void ExpectReadsCarryWriterValues(
    const Schedule& schedule,
    const std::vector<std::optional<TxnId>>& read_sources,
    const std::string& context) {
  const OpSequence& ops = schedule.ops();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].is_read()) continue;
    const std::optional<TxnId> writer =
        read_sources.empty() ? std::nullopt : read_sources[i];
    Value expected(0);
    for (size_t j = i; j-- > 0;) {
      if (ops[j].is_write() && ops[j].entity == ops[i].entity &&
          (!writer.has_value() || ops[j].txn == *writer)) {
        expected = ops[j].value;
        break;
      }
    }
    EXPECT_EQ(ops[i].value, expected)
        << context << ": read at position " << i << " by T" << ops[i].txn;
  }
}

TEST(TraceDifferentialTest, SimTracesAgreeAndStrict2plStaysSerializable) {
  for (uint64_t seed = 1; seed <= FuzzSeedCount(4); ++seed) {
    PartitionedWorkloadConfig config;
    config.num_txns = 10;
    config.hotspot_probability = 0.4;
    config.seed = seed;
    Result<Workload> workload = MakePartitionedWorkload(config);
    ASSERT_TRUE(workload.ok()) << workload.status();
    StrictTwoPhaseLocking policy;
    Result<SimResult> run = RunSimulation(policy, workload->scripts);
    ASSERT_TRUE(run.ok()) << run.status();
    History h = HistoryFromSim(workload->db, *run);
    ASSERT_TRUE(ValidateHistory(h).ok());
    StreamingReport streaming = CheckHistoryStreaming(h);
    ExpectAgreement(streaming, CheckHistoryBatch(h),
                    "sim seed " + std::to_string(seed));
    // Ground truth: strict 2PL commits are conflict serializable and never
    // read aborted data.
    EXPECT_TRUE(streaming.ok()) << "sim seed " << seed;
    ExpectReadsCarryWriterValues(run->schedule, run->read_sources,
                                 "sim 2pl seed " + std::to_string(seed));

    MvtoPolicy mvto(workload->scripts.size());
    Result<SimResult> mv = RunSimulation(mvto, workload->scripts);
    ASSERT_TRUE(mv.ok()) << mv.status();
    ExpectReadsCarryWriterValues(mv->schedule, mv->read_sources,
                                 "sim mvto seed " + std::to_string(seed));
  }
}

TEST(TraceDifferentialTest, EngineTracesAgreeAndStaySerializable) {
  for (uint64_t seed = 1; seed <= FuzzSeedCount(3); ++seed) {
    PartitionedWorkloadConfig config;
    config.num_txns = 8;
    config.hotspot_probability = 0.4;
    config.seed = seed;
    Result<Workload> workload = MakePartitionedWorkload(config);
    ASSERT_TRUE(workload.ok()) << workload.status();
    EngineConfig engine;
    engine.threads = 4;
    engine.wait_timeout_micros = 100;
    StrictTwoPhaseLocking policy;
    Result<EngineResult> run = RunEngine(policy, workload->scripts, engine);
    ASSERT_TRUE(run.ok()) << run.status();
    History h = HistoryFromEngine(workload->db, *run);
    ASSERT_TRUE(ValidateHistory(h).ok());
    StreamingReport streaming = CheckHistoryStreaming(h);
    ExpectAgreement(streaming, CheckHistoryBatch(h),
                    "engine seed " + std::to_string(seed));
    EXPECT_TRUE(streaming.ok()) << "engine seed " << seed;
    ExpectReadsCarryWriterValues(run->schedule, run->read_sources,
                                 "engine 2pl seed " + std::to_string(seed));

    MvtoPolicy mvto(workload->scripts.size());
    Result<EngineResult> mv = RunEngine(mvto, workload->scripts, engine);
    ASSERT_TRUE(mv.ok()) << mv.status();
    ExpectReadsCarryWriterValues(mv->schedule, mv->read_sources,
                                 "engine mvto seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Golden logs: absolute pinned verdicts for checked-in files.

History LoadGolden(const std::string& name) {
  Result<History> h = ReadHistoryFile(std::string(NSE_TEST_DATA_DIR) + "/" +
                                      name);
  EXPECT_TRUE(h.ok()) << h.status();
  return std::move(h).value();
}

TEST(HistoryGoldenTest, PaperExample1IsSerializable) {
  // §2 Example 1: S = r1(a) r2(a) w2(d) r1(c) w1(b) — no conflicting pair,
  // hence trivially CSR.
  History h = LoadGolden("paper_example1.jsonl");
  StreamingReport report = CheckHistoryStreaming(h);
  ExpectAgreement(report, CheckHistoryBatch(h), "example1");
  EXPECT_TRUE(report.ok());
}

TEST(HistoryGoldenTest, PaperExample2ViolatesCsrButEveryPlaneIsOk) {
  // §2 Example 2: S = w1(a) r2(a) r2(b) w2(c) r1(c) — the w1→r2 and w2→r1
  // edges close a two-cycle, so S is not CSR; but projected onto the
  // conjunct planes {a,b} and {c} each projection is serializable (the
  // PWSR gap the paper's Definition 2 exploits).
  History h = LoadGolden("paper_example2.jsonl");
  StreamingOptions options;
  options.planes = {h.db.SetOf({"a", "b"}), h.db.SetOf({"c"})};
  StreamingReport report = CheckHistoryStreaming(h, options);
  ExpectAgreement(report, CheckHistoryBatch(h, options.planes), "example2");
  ASSERT_FALSE(report.full.ok);
  EXPECT_EQ(report.full.violation->edge, (std::pair<TxnId, TxnId>(2, 1)));
  EXPECT_EQ(report.full.violation->event, 6u);
  ASSERT_EQ(report.planes.size(), 2u);
  EXPECT_TRUE(report.planes[0].ok);
  EXPECT_TRUE(report.planes[1].ok);
  EXPECT_TRUE(report.aborted_reads.empty());
}

TEST(HistoryGoldenTest, LostUpdateWitnessIsPinned) {
  History h = LoadGolden("lost_update.jsonl");
  StreamingReport report = CheckHistoryStreaming(h);
  ExpectAgreement(report, CheckHistoryBatch(h), "lost_update");
  ASSERT_FALSE(report.full.ok);
  EXPECT_EQ(report.full.violation->edge, (std::pair<TxnId, TxnId>(1, 2)));
  EXPECT_EQ(report.full.violation->event, 5u);
}

TEST(HistoryGoldenTest, DirtyReadIsPinned) {
  History h = LoadGolden("dirty_read.jsonl");
  StreamingReport report = CheckHistoryStreaming(h);
  ExpectAgreement(report, CheckHistoryBatch(h), "dirty_read");
  EXPECT_TRUE(report.full.ok);
  EXPECT_EQ(report.aborted_reads, std::vector<size_t>{3});
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace nse
