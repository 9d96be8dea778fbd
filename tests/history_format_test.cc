// The history format's contracts: strict parsing (every malformed or
// protocol-violating text yields a typed Status, never a crash — the
// corpus runs under ASan/UBSan in CI), serialize→parse round-trips that
// reproduce the history event-for-event, the committed projection's
// position map, and the trace converters that let the sim double as a
// format producer.

#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fuzz_env.h"
#include "history/batch_check.h"
#include "history/history.h"
#include "history/history_generator.h"
#include "history/history_io.h"
#include "history/trace_export.h"
#include "scheduler/sim.h"
#include "scheduler/two_phase_locking.h"
#include "scheduler/workload.h"

namespace nse {
namespace {

History ParseOrDie(const std::string& text) {
  Result<History> parsed = ParseHistory(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return std::move(parsed).value();
}

/// Round-trip equality: the parser assigns item ids by first appearance
/// in the log, so a reparsed history is the same history up to item
/// renaming (and unused catalog entries). Compare ops through the names.
void ExpectSameHistory(const History& a, const History& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    const HistoryEvent& x = a.events[i];
    const HistoryEvent& y = b.events[i];
    ASSERT_EQ(x.type, y.type) << "event " << i;
    EXPECT_EQ(x.txn, y.txn) << "event " << i;
    EXPECT_EQ(x.value, y.value) << "event " << i;
    EXPECT_EQ(x.read_from, y.read_from) << "event " << i;
    if (x.type == HistoryEventType::kRead ||
        x.type == HistoryEventType::kWrite) {
      EXPECT_EQ(a.db.NameOf(x.item), b.db.NameOf(y.item)) << "event " << i;
    }
  }
}

TEST(HistoryParserTest, ParsesTheDocumentedExample) {
  History h = ParseOrDie(
      "{\"type\":\"history\",\"v\":1}\n"
      "{\"type\":\"begin\",\"txn\":1}\n"
      "{\"type\":\"begin\",\"txn\":2}\n"
      "{\"type\":\"write\",\"txn\":1,\"item\":\"a\",\"value\":1}\n"
      "{\"type\":\"read\",\"txn\":2,\"item\":\"a\",\"value\":1,\"from\":1}\n"
      "{\"type\":\"commit\",\"txn\":1}\n"
      "{\"type\":\"abort\",\"txn\":2}\n");
  ASSERT_EQ(h.events.size(), 6u);
  EXPECT_EQ(h.db.num_items(), 1u);
  EXPECT_EQ(h.db.NameOf(0), "a");
  EXPECT_EQ(h.events[3].type, HistoryEventType::kRead);
  EXPECT_EQ(h.events[3].read_from, std::optional<TxnId>(1));
  EXPECT_EQ(h.events[3].value, Value(1));
}

TEST(HistoryParserTest, AllowsBlankLinesAndWhitespace) {
  History h = ParseOrDie(
      "  {\"type\":\"history\",\"v\":1}\n\n"
      "  {\"type\":\"begin\", \"txn\": 3}\n\n\n"
      "{\"type\":\"commit\",\"txn\":3}\n");
  EXPECT_EQ(h.events.size(), 2u);
  EXPECT_EQ(h.events[0].txn, 3u);
}

TEST(HistoryParserTest, StringAndBoolValuesRoundTrip) {
  History h = ParseOrDie(
      "{\"type\":\"history\",\"v\":1}\n"
      "{\"type\":\"begin\",\"txn\":1}\n"
      "{\"type\":\"write\",\"txn\":1,\"item\":\"s\",\"value\":\"Ji\\\"m\"}\n"
      "{\"type\":\"write\",\"txn\":1,\"item\":\"b\",\"value\":true}\n"
      "{\"type\":\"commit\",\"txn\":1}\n");
  EXPECT_EQ(h.events[1].value, Value(std::string("Ji\"m")));
  EXPECT_EQ(h.events[2].value, Value(true));
  History again = ParseOrDie(SerializeHistory(h));
  EXPECT_EQ(again.events, h.events);
}

TEST(HistoryParserTest, RejectsEveryMalformedCorpusEntry) {
  const std::vector<std::string> corpus = MalformedHistoryCorpus();
  ASSERT_FALSE(corpus.empty());
  for (size_t i = 0; i < corpus.size(); ++i) {
    Result<History> parsed = ParseHistory(corpus[i]);
    EXPECT_FALSE(parsed.ok()) << "corpus entry " << i << " parsed:\n"
                              << corpus[i];
    if (!parsed.ok()) {
      EXPECT_NE(parsed.status().code(), StatusCode::kOk);
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST(HistoryParserTest, TypedErrorsForProtocolViolations) {
  const std::string header = "{\"type\":\"history\",\"v\":1}\n";
  // Out-of-order commit.
  Result<History> r = ParseHistory(header + "{\"type\":\"commit\",\"txn\":1}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  // Duplicate transaction id (begin after commit).
  r = ParseHistory(header +
                   "{\"type\":\"begin\",\"txn\":1}\n"
                   "{\"type\":\"commit\",\"txn\":1}\n"
                   "{\"type\":\"begin\",\"txn\":1}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  // Read of a never-written version.
  r = ParseHistory(header +
                   "{\"type\":\"begin\",\"txn\":1}\n"
                   "{\"type\":\"read\",\"txn\":1,\"item\":\"a\",\"from\":9}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  // Malformed JSON.
  r = ParseHistory(header + "{\"type\":\"begin\",\"txn\":}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Unsupported version.
  r = ParseHistory("{\"type\":\"history\",\"v\":2}\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);

  // Precedence: the version is judged before unknown keys, a duplicate
  // header before anything else on its line, a repeated key at scan time,
  // and a key legal only for another line type is unknown.
  const auto code_of = [](const std::string& text) {
    return ParseHistory(text).status().code();
  };
  EXPECT_EQ(code_of("{\"type\":\"history\",\"v\":2,\"zz\":1}\n"),
            StatusCode::kUnimplemented);
  EXPECT_EQ(code_of(header + "{\"type\":\"history\",\"v\":1,\"zz\":1}\n"),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(code_of(header +
                    "{\"type\":\"begin\",\"txn\":1,\"zz\":1,\"zz\":2}\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      code_of(header +
              "{\"type\":\"begin\",\"txn\":1}\n"
              "{\"type\":\"write\",\"txn\":1,\"item\":\"a\",\"from\":0}\n"),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(code_of(header + "{\"type\":\"begin\",\"txn\":1,\"item\":\"a\"}\n"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code_of("{\"type\":\"history\",\"v\":1,\"txn\":1}\n"),
            StatusCode::kInvalidArgument);
}

TEST(HistoryParserTest, UnreadablePathsAreNotFound) {
  EXPECT_EQ(ReadHistoryFile("no/such/history.jsonl").status().code(),
            StatusCode::kNotFound);
  // A directory opens as a stream but cannot be read.
  EXPECT_EQ(ReadHistoryFile(NSE_TEST_DATA_DIR).status().code(),
            StatusCode::kNotFound);
}

TEST(HistoryRoundTripTest, GeneratedHistoriesSurviveSerializeParse) {
  for (uint64_t seed = 1; seed <= FuzzSeedCount(20); ++seed) {
    History h = DrawHistory(seed);
    ASSERT_TRUE(ValidateHistory(h).ok()) << "seed " << seed;
    History again = ParseOrDie(SerializeHistory(h));
    ExpectSameHistory(again, h);
    // Reparsing the reparse is a fixed point: ids are now canonical.
    History thrice = ParseOrDie(SerializeHistory(again));
    EXPECT_EQ(thrice.events, again.events) << "seed " << seed;
    EXPECT_LE(again.db.num_items(), h.db.num_items());
  }
}

TEST(HistoryRoundTripTest, IncrementalGeneratorMatchesGenerate) {
  HistoryGenOptions options;
  options.num_txns = 10;
  options.lost_update_fraction = 0.2;
  HistoryGenerator streaming(options, 77);
  HistoryGenerator batch(options, 77);
  History whole = batch.Generate();
  size_t i = 0;
  while (std::optional<HistoryEvent> event = streaming.Next()) {
    ASSERT_LT(i, whole.events.size());
    EXPECT_EQ(*event, whole.events[i]) << "at event " << i;
    ++i;
  }
  EXPECT_EQ(i, whole.events.size());
}

TEST(CommittedProjectionTest, DropsAbortedAndIncompleteTransactions) {
  History h = ParseOrDie(
      "{\"type\":\"history\",\"v\":1}\n"
      "{\"type\":\"begin\",\"txn\":1}\n"
      "{\"type\":\"begin\",\"txn\":2}\n"
      "{\"type\":\"begin\",\"txn\":3}\n"
      "{\"type\":\"write\",\"txn\":1,\"item\":\"a\",\"value\":1}\n"
      "{\"type\":\"write\",\"txn\":2,\"item\":\"a\",\"value\":2}\n"
      "{\"type\":\"write\",\"txn\":3,\"item\":\"a\",\"value\":3}\n"
      "{\"type\":\"commit\",\"txn\":1}\n"
      "{\"type\":\"abort\",\"txn\":2}\n");
  CommittedProjection proj = CommittedProjectionOf(h);
  ASSERT_EQ(proj.schedule.ops().size(), 1u);
  EXPECT_EQ(proj.schedule.ops()[0].txn, 1u);
  EXPECT_EQ(proj.source_events, std::vector<size_t>{3});
  EXPECT_EQ(proj.FateOf(1), TxnFate::kCommitted);
  EXPECT_EQ(proj.FateOf(2), TxnFate::kAborted);
  EXPECT_EQ(proj.FateOf(3), TxnFate::kIncomplete);
  EXPECT_EQ(proj.FateOf(9), TxnFate::kIncomplete);
}

TEST(TraceExportTest, SimTraceBecomesAValidHistoryAndRoundTrips) {
  PartitionedWorkloadConfig config;
  config.num_txns = 8;
  config.seed = 11;
  Result<Workload> workload = MakePartitionedWorkload(config);
  ASSERT_TRUE(workload.ok()) << workload.status();
  StrictTwoPhaseLocking policy;
  Result<SimResult> run = RunSimulation(policy, workload->scripts);
  ASSERT_TRUE(run.ok()) << run.status();
  History h = HistoryFromTrace(workload->db, run->schedule, run->read_sources);
  EXPECT_TRUE(ValidateHistory(h).ok());
  History again = ParseOrDie(SerializeHistory(h));
  ExpectSameHistory(again, h);
  // The committed projection reproduces the trace exactly.
  CommittedProjection proj = CommittedProjectionOf(h);
  ASSERT_EQ(proj.schedule.ops().size(), run->schedule.ops().size());
  EXPECT_TRUE(proj.schedule.ops() == run->schedule.ops());
}

TEST(BatchCheckTest, PlanesAsConstraintCoversThePartition) {
  Database db;
  ASSERT_TRUE(db.AddIntItems({"a", "b", "c"}, -8, 8).ok());
  auto ic = PlanesAsConstraint(db, {db.SetOf({"a", "b"}), db.SetOf({"c"})});
  ASSERT_TRUE(ic.ok()) << ic.status();
  EXPECT_EQ(ic->num_conjuncts(), 2u);
  EXPECT_EQ(ic->data_set(0), db.SetOf({"a", "b"}));
  EXPECT_EQ(ic->data_set(1), db.SetOf({"c"}));
  EXPECT_TRUE(ic->disjoint());
  // Empty planes are rejected.
  EXPECT_FALSE(PlanesAsConstraint(db, {DataSet()}).ok());
}

}  // namespace
}  // namespace nse
