// Scenario tests of the streaming windowed checker: online detection at
// the completing commit, abort retraction dissolving cycles, PWSR-style
// projected planes, dirty-read tracking, window eviction (bounded
// retention without verdict changes), and the frozen-snapshot witness
// path that keeps streaming witnesses bit-identical to the batch plane
// even when the log-order-first cycle commits last.

#include <gtest/gtest.h>

#include "analysis/streaming_checker.h"
#include "history/batch_check.h"
#include "history/history.h"
#include "history/history_generator.h"
#include "history/history_io.h"

namespace nse {
namespace {

History FromText(const std::string& body) {
  Result<History> parsed =
      ParseHistory("{\"type\":\"history\",\"v\":1}\n" + body);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return std::move(parsed).value();
}

/// Streams `history` and checks the report agrees with the batch plane.
StreamingReport CheckAgainstBatch(const History& history,
                                  StreamingOptions options = {}) {
  std::vector<DataSet> planes = options.planes;
  StreamingReport streaming = CheckHistoryStreaming(history, options);
  BatchReport batch = CheckHistoryBatch(history, planes);
  EXPECT_EQ(streaming.full.ok, batch.full.ok);
  if (!streaming.full.ok && streaming.full.violation.has_value() &&
      batch.full.violation.has_value()) {
    EXPECT_EQ(streaming.full.violation->edge, batch.full.violation->edge);
    EXPECT_EQ(streaming.full.violation->event, batch.full.violation->event);
    EXPECT_EQ(streaming.full.violation->cycle, batch.full.violation->cycle);
  }
  EXPECT_EQ(streaming.planes.size(), batch.planes.size());
  for (size_t p = 0; p < streaming.planes.size(); ++p) {
    EXPECT_EQ(streaming.planes[p].ok, batch.planes[p].ok) << "plane " << p;
    if (!streaming.planes[p].ok &&
        streaming.planes[p].violation.has_value() &&
        batch.planes[p].violation.has_value()) {
      EXPECT_EQ(streaming.planes[p].violation->edge,
                batch.planes[p].violation->edge);
      EXPECT_EQ(streaming.planes[p].violation->event,
                batch.planes[p].violation->event);
      EXPECT_EQ(streaming.planes[p].violation->cycle,
                batch.planes[p].violation->cycle);
    }
  }
  EXPECT_EQ(streaming.aborted_reads, batch.aborted_reads);
  EXPECT_EQ(streaming.aborted_reads, AbortedReadEvents(history));
  return streaming;
}

TEST(StreamingCheckerTest, CleanSerialHistoryIsOk) {
  History h = FromText(
      "{\"type\":\"begin\",\"txn\":1}\n"
      "{\"type\":\"write\",\"txn\":1,\"item\":\"a\",\"value\":1}\n"
      "{\"type\":\"commit\",\"txn\":1}\n"
      "{\"type\":\"begin\",\"txn\":2}\n"
      "{\"type\":\"read\",\"txn\":2,\"item\":\"a\",\"value\":1,\"from\":1}\n"
      "{\"type\":\"commit\",\"txn\":2}\n");
  StreamingReport report = CheckAgainstBatch(h);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.full.ok);
  EXPECT_TRUE(report.aborted_reads.empty());
}

TEST(StreamingCheckerTest, LostUpdateCycleFiresAtTheCompletingCommit) {
  History h = FromText(
      "{\"type\":\"begin\",\"txn\":1}\n"
      "{\"type\":\"begin\",\"txn\":2}\n"
      "{\"type\":\"read\",\"txn\":1,\"item\":\"x\",\"value\":0}\n"
      "{\"type\":\"read\",\"txn\":2,\"item\":\"x\",\"value\":0}\n"
      "{\"type\":\"write\",\"txn\":1,\"item\":\"x\",\"value\":1}\n"
      "{\"type\":\"write\",\"txn\":2,\"item\":\"x\",\"value\":2}\n"
      "{\"type\":\"commit\",\"txn\":1}\n"
      "{\"type\":\"commit\",\"txn\":2}\n");
  StreamingChecker checker(h.db);
  for (size_t i = 0; i < h.events.size(); ++i) {
    ASSERT_TRUE(checker.Feed(h.events[i]).ok());
    // Online: the violation is seen exactly at the second commit (event
    // index 7), not before.
    EXPECT_EQ(checker.violation_seen(), i >= 7) << "event " << i;
  }
  StreamingReport report = checker.Finish();
  ASSERT_FALSE(report.full.ok);
  EXPECT_EQ(report.full.detected_at, std::optional<size_t>(7));
  CheckAgainstBatch(h);
}

TEST(StreamingCheckerTest, AbortDissolvesTheCycle) {
  History h = FromText(
      "{\"type\":\"begin\",\"txn\":1}\n"
      "{\"type\":\"begin\",\"txn\":2}\n"
      "{\"type\":\"read\",\"txn\":1,\"item\":\"x\",\"value\":0}\n"
      "{\"type\":\"read\",\"txn\":2,\"item\":\"x\",\"value\":0}\n"
      "{\"type\":\"write\",\"txn\":1,\"item\":\"x\",\"value\":1}\n"
      "{\"type\":\"write\",\"txn\":2,\"item\":\"x\",\"value\":2}\n"
      "{\"type\":\"commit\",\"txn\":1}\n"
      "{\"type\":\"abort\",\"txn\":2}\n");
  StreamingReport report = CheckAgainstBatch(h);
  EXPECT_TRUE(report.full.ok);
  EXPECT_TRUE(report.ok());
}

TEST(StreamingCheckerTest, WriteSkewViolatesFullPlaneButNotProjections) {
  History h = FromText(
      "{\"type\":\"begin\",\"txn\":1}\n"
      "{\"type\":\"begin\",\"txn\":2}\n"
      "{\"type\":\"read\",\"txn\":1,\"item\":\"a\",\"value\":0}\n"
      "{\"type\":\"read\",\"txn\":2,\"item\":\"b\",\"value\":0}\n"
      "{\"type\":\"write\",\"txn\":1,\"item\":\"b\",\"value\":1}\n"
      "{\"type\":\"write\",\"txn\":2,\"item\":\"a\",\"value\":1}\n"
      "{\"type\":\"commit\",\"txn\":1}\n"
      "{\"type\":\"commit\",\"txn\":2}\n");
  StreamingOptions options;
  options.planes = {h.db.SetOf({"a"}), h.db.SetOf({"b"})};
  StreamingReport report = CheckAgainstBatch(h, options);
  // The full schedule has the T1 -> T2 -> T1 cycle; each single-item
  // projection is serializable — the PWSR-vs-CSR gap of Definition 2.
  EXPECT_FALSE(report.full.ok);
  ASSERT_EQ(report.planes.size(), 2u);
  EXPECT_TRUE(report.planes[0].ok);
  EXPECT_TRUE(report.planes[1].ok);
}

TEST(StreamingCheckerTest, CommittedDirtyReadIsReported) {
  History h = FromText(
      "{\"type\":\"begin\",\"txn\":1}\n"
      "{\"type\":\"begin\",\"txn\":2}\n"
      "{\"type\":\"write\",\"txn\":1,\"item\":\"x\",\"value\":7}\n"
      "{\"type\":\"read\",\"txn\":2,\"item\":\"x\",\"value\":7,\"from\":1}\n"
      "{\"type\":\"commit\",\"txn\":2}\n"
      "{\"type\":\"abort\",\"txn\":1}\n");
  StreamingReport report = CheckAgainstBatch(h);
  EXPECT_TRUE(report.full.ok);  // CSR: the aborted write is projected away
  EXPECT_EQ(report.aborted_reads, std::vector<size_t>{3});
  EXPECT_FALSE(report.ok());
}

TEST(StreamingCheckerTest, ReadFromAlreadyAbortedWriterIsReported) {
  History h = FromText(
      "{\"type\":\"begin\",\"txn\":1}\n"
      "{\"type\":\"write\",\"txn\":1,\"item\":\"x\",\"value\":7}\n"
      "{\"type\":\"abort\",\"txn\":1}\n"
      "{\"type\":\"begin\",\"txn\":2}\n"
      "{\"type\":\"read\",\"txn\":2,\"item\":\"x\",\"value\":7,\"from\":1}\n"
      "{\"type\":\"commit\",\"txn\":2}\n");
  StreamingReport report = CheckAgainstBatch(h);
  EXPECT_EQ(report.aborted_reads, std::vector<size_t>{4});
}

TEST(StreamingCheckerTest, UncommittedReaderIsNotADirtyRead) {
  History h = FromText(
      "{\"type\":\"begin\",\"txn\":1}\n"
      "{\"type\":\"begin\",\"txn\":2}\n"
      "{\"type\":\"write\",\"txn\":1,\"item\":\"x\",\"value\":7}\n"
      "{\"type\":\"read\",\"txn\":2,\"item\":\"x\",\"value\":7,\"from\":1}\n"
      "{\"type\":\"abort\",\"txn\":1}\n"
      "{\"type\":\"abort\",\"txn\":2}\n");
  StreamingReport report = CheckAgainstBatch(h);
  EXPECT_TRUE(report.aborted_reads.empty());
  EXPECT_TRUE(report.ok());
}

TEST(StreamingCheckerTest, EvictionKeepsDetectionWithTinyWindow) {
  // 40 serial committed transactions (all evictable), then a lost-update
  // cycle: a window of 2 must still catch it, and must actually evict.
  History h;
  {
    Database db;
    ASSERT_TRUE(db.AddIntItems({"x", "y"}, -8, 8).ok());
    h.db = std::move(db);
  }
  TxnId next = 1;
  for (int i = 0; i < 40; ++i) {
    TxnId t = next++;
    h.events.push_back(HistoryEvent::Begin(t));
    h.events.push_back(HistoryEvent::Write(t, 0, Value(i)));
    h.events.push_back(HistoryEvent::Commit(t));
  }
  TxnId t1 = next++;
  TxnId t2 = next++;
  h.events.push_back(HistoryEvent::Begin(t1));
  h.events.push_back(HistoryEvent::Begin(t2));
  h.events.push_back(HistoryEvent::Read(t1, 1, Value(0)));
  h.events.push_back(HistoryEvent::Read(t2, 1, Value(0)));
  h.events.push_back(HistoryEvent::Write(t1, 1, Value(1)));
  h.events.push_back(HistoryEvent::Write(t2, 1, Value(2)));
  h.events.push_back(HistoryEvent::Commit(t1));
  h.events.push_back(HistoryEvent::Commit(t2));
  ASSERT_TRUE(ValidateHistory(h).ok());

  StreamingOptions options;
  options.window = 2;
  StreamingReport report = CheckAgainstBatch(h, options);
  EXPECT_FALSE(report.full.ok);
  EXPECT_GT(report.stats.evictions, 30u);
  // Retention stays near the window + the two concurrent transactions,
  // nowhere near the 42 transactions of the log.
  EXPECT_LE(report.stats.peak_retained, 8u);
}

TEST(StreamingCheckerTest, AbortOfPinningPredecessorMakesSlotEvictable) {
  // T2 commits while pinned by an in-edge from the active T1. T1's abort
  // removes that edge, which is the only moment T2 becomes evictable, so
  // T3's commit past the window of 1 must evict T2, and T4's commit then
  // T3 (freed by T2's retirement).
  History h = FromText(
      "{\"type\":\"begin\",\"txn\":1}\n"
      "{\"type\":\"write\",\"txn\":1,\"item\":\"x\",\"value\":1}\n"
      "{\"type\":\"begin\",\"txn\":2}\n"
      "{\"type\":\"read\",\"txn\":2,\"item\":\"x\",\"value\":1}\n"
      "{\"type\":\"commit\",\"txn\":2}\n"
      "{\"type\":\"abort\",\"txn\":1}\n"
      "{\"type\":\"begin\",\"txn\":3}\n"
      "{\"type\":\"write\",\"txn\":3,\"item\":\"x\",\"value\":3}\n"
      "{\"type\":\"commit\",\"txn\":3}\n"
      "{\"type\":\"begin\",\"txn\":4}\n"
      "{\"type\":\"write\",\"txn\":4,\"item\":\"x\",\"value\":4}\n"
      "{\"type\":\"commit\",\"txn\":4}\n");
  StreamingOptions options;
  options.window = 1;
  StreamingReport report = CheckAgainstBatch(h, options);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.stats.evictions, 2u);
  EXPECT_EQ(report.stats.peak_retained, 2u);
  EXPECT_EQ(report.stats.retained, 1u);
}

TEST(StreamingCheckerTest, WitnessMatchesBatchWhenEarlierCycleCommitsLast) {
  // T1/T2 build the log-order-first cycle on x but commit LAST; T3/T4
  // cycle on y and commit first. Streaming latches at T4's commit, but
  // the final witness must be the batch one: the T1/T2 edge created at
  // event 7 — the frozen-snapshot replay contract.
  History h = FromText(
      "{\"type\":\"begin\",\"txn\":1}\n"
      "{\"type\":\"begin\",\"txn\":2}\n"
      "{\"type\":\"read\",\"txn\":1,\"item\":\"x\",\"value\":0}\n"
      "{\"type\":\"read\",\"txn\":2,\"item\":\"x\",\"value\":0}\n"
      "{\"type\":\"write\",\"txn\":1,\"item\":\"x\",\"value\":1}\n"
      "{\"type\":\"write\",\"txn\":2,\"item\":\"x\",\"value\":2}\n"
      "{\"type\":\"begin\",\"txn\":3}\n"
      "{\"type\":\"begin\",\"txn\":4}\n"
      "{\"type\":\"read\",\"txn\":3,\"item\":\"y\",\"value\":0}\n"
      "{\"type\":\"read\",\"txn\":4,\"item\":\"y\",\"value\":0}\n"
      "{\"type\":\"write\",\"txn\":3,\"item\":\"y\",\"value\":1}\n"
      "{\"type\":\"write\",\"txn\":4,\"item\":\"y\",\"value\":2}\n"
      "{\"type\":\"commit\",\"txn\":3}\n"
      "{\"type\":\"commit\",\"txn\":4}\n"
      "{\"type\":\"commit\",\"txn\":1}\n"
      "{\"type\":\"commit\",\"txn\":2}\n");
  StreamingReport streaming = CheckHistoryStreaming(h);
  BatchReport batch = CheckHistoryBatch(h);
  ASSERT_FALSE(streaming.full.ok);
  ASSERT_FALSE(batch.full.ok);
  // Latched online at T4's commit (event 13)...
  EXPECT_EQ(streaming.full.detected_at, std::optional<size_t>(13));
  // ...but the authoritative witness is the batch one.
  ASSERT_TRUE(streaming.full.violation.has_value());
  ASSERT_TRUE(batch.full.violation.has_value());
  EXPECT_EQ(streaming.full.violation->edge, batch.full.violation->edge);
  EXPECT_EQ(streaming.full.violation->event, batch.full.violation->event);
  EXPECT_EQ(streaming.full.violation->cycle, batch.full.violation->cycle);
}

TEST(StreamingCheckerTest, FeedRejectsProtocolViolations) {
  Database db;
  ASSERT_TRUE(db.AddIntItems({"x"}, -8, 8).ok());
  StreamingChecker checker(db);
  EXPECT_EQ(checker.Feed(HistoryEvent::Begin(0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(checker.Feed(HistoryEvent::Write(1, 0, Value(1))).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(checker.Feed(HistoryEvent::Commit(1)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(checker.Feed(HistoryEvent::Begin(1)).ok());
  EXPECT_EQ(checker.Feed(HistoryEvent::Begin(1)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(checker.Feed(HistoryEvent::Write(1, 9, Value(1))).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(checker.Feed(HistoryEvent::Abort(1)).ok());
  EXPECT_EQ(checker.Feed(HistoryEvent::Begin(1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(StreamingCheckerTest, SlotCapacityGrowsPastInitialSize) {
  // More than 64 concurrently live transactions force a slot-capacity
  // doubling (the graph grows in place).
  History h;
  {
    Database db;
    ASSERT_TRUE(db.AddIntItems({"x"}, -8, 8).ok());
    h.db = std::move(db);
  }
  const int kTxns = 100;
  for (TxnId t = 1; t <= kTxns; ++t) {
    h.events.push_back(HistoryEvent::Begin(t));
    h.events.push_back(HistoryEvent::Write(t, 0, Value(int64_t{t})));
  }
  for (TxnId t = 1; t <= kTxns; ++t) {
    h.events.push_back(HistoryEvent::Commit(t));
  }
  ASSERT_TRUE(ValidateHistory(h).ok());
  StreamingReport report = CheckAgainstBatch(h);
  EXPECT_TRUE(report.full.ok);  // writes in txn order: a chain, no cycle
  EXPECT_GE(report.stats.rebuilds, 1u);
  EXPECT_GE(report.stats.peak_retained, 100u);
}

TEST(StreamingCheckerTest, SlotGrowthKeepsACycleAmongActiveTransactions) {
  // T1 and T2 close a lost-update cycle on x while both are still active;
  // 70 more live transactions then push the plane past its 64 initial
  // slots. The graph grows in place with the cycle recorded, so the
  // eviction sweeps stay off and the verdict and witness still equal the
  // batch plane's — whether T2 commits (violation) or aborts (the cycle
  // dissolves after the growth).
  for (bool abort_t2 : {false, true}) {
    History h;
    {
      Database db;
      ASSERT_TRUE(db.AddIntItems({"x", "y"}, -8, 8).ok());
      h.db = std::move(db);
    }
    h.events = {HistoryEvent::Begin(1),
                HistoryEvent::Begin(2),
                HistoryEvent::Read(1, 0, Value(int64_t{0})),
                HistoryEvent::Read(2, 0, Value(int64_t{0})),
                HistoryEvent::Write(1, 0, Value(int64_t{1})),
                HistoryEvent::Write(2, 0, Value(int64_t{2}))};
    const TxnId kLast = 72;
    for (TxnId t = 3; t <= kLast; ++t) {
      h.events.push_back(HistoryEvent::Begin(t));
      h.events.push_back(HistoryEvent::Write(t, 1, Value(int64_t{1})));
    }
    for (TxnId t = 3; t <= kLast; ++t) {
      h.events.push_back(HistoryEvent::Commit(t));
    }
    h.events.push_back(HistoryEvent::Commit(1));
    h.events.push_back(abort_t2 ? HistoryEvent::Abort(2)
                                : HistoryEvent::Commit(2));
    ASSERT_TRUE(ValidateHistory(h).ok());
    StreamingReport report = CheckAgainstBatch(h);
    EXPECT_EQ(report.full.ok, abort_t2);
    EXPECT_EQ(report.stats.rebuilds, 1u);
    EXPECT_EQ(report.stats.peak_retained, size_t{kLast});
    if (!abort_t2) {
      ASSERT_TRUE(report.full.violation.has_value());
      EXPECT_EQ(report.full.violation->edge, std::make_pair(TxnId{1}, TxnId{2}));
      EXPECT_EQ(report.full.violation->event, 5u);
    }
  }
}

}  // namespace
}  // namespace nse
