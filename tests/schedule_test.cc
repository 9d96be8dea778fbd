#include "txn/schedule.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace nse {
namespace {

class ScheduleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.AddIntItems({"a", "b", "c", "d"}, -32, 32).ok());
  }

  /// The paper's Example 1 schedule:
  /// S: r1(a,0), r2(a,0), w2(d,0), r1(c,5), w1(b,5).
  Schedule Example1Schedule() {
    ScheduleBuilder sb(db_);
    sb.R(1, "a", Value(0))
        .R(2, "a", Value(0))
        .W(2, "d", Value(0))
        .R(1, "c", Value(5))
        .W(1, "b", Value(5));
    return sb.Build();
  }

  Database db_;
};

TEST_F(ScheduleTest, BasicAccessors) {
  Schedule s = Example1Schedule();
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.txn_ids(), (std::vector<TxnId>{1, 2}));
  EXPECT_EQ(s.at(2).ToString(db_), "w2(d, 0)");
  EXPECT_EQ(s.depth(2), 2u);
  EXPECT_EQ(s.ToString(db_),
            "r1(a, 0), r2(a, 0), w2(d, 0), r1(c, 5), w1(b, 5)");
}

TEST_F(ScheduleTest, TransactionExtraction) {
  Schedule s = Example1Schedule();
  Transaction t1 = s.TransactionOf(1);
  Transaction t2 = s.TransactionOf(2);
  EXPECT_EQ(t1.ToString(db_), "T1: r1(a, 0), r1(c, 5), w1(b, 5)");
  EXPECT_EQ(t2.ToString(db_), "T2: r2(a, 0), w2(d, 0)");
  EXPECT_TRUE(s.TransactionOf(9).empty());
  EXPECT_EQ(s.Transactions().size(), 2u);
}

TEST_F(ScheduleTest, ProjectionMatchesPaper) {
  // S^{a,c} = r1(a,0), r2(a,0), r1(c,5).
  Schedule proj = Example1Schedule().Project(db_.SetOf({"a", "c"}));
  EXPECT_EQ(proj.ToString(db_), "r1(a, 0), r2(a, 0), r1(c, 5)");
}

TEST_F(ScheduleTest, BeforeAfterSemantics) {
  Schedule s = Example1Schedule();
  // p = w2(d, 0) at position 2.
  size_t p = 2;
  // before(T2, p, S) includes p itself (p ∈ T2): r2(a,0), w2(d,0).
  EXPECT_EQ(OpsToString(db_, s.BeforeOfTxn(2, p)), "r2(a, 0), w2(d, 0)");
  // before(T1, p, S) excludes p (p ∉ T1): r1(a,0).
  EXPECT_EQ(OpsToString(db_, s.BeforeOfTxn(1, p)), "r1(a, 0)");
  // after(T1, p, S) = r1(c,5), w1(b,5) — the paper's example.
  EXPECT_EQ(OpsToString(db_, s.AfterOfTxn(1, p)), "r1(c, 5), w1(b, 5)");
  // after(T2, p, S) = ε.
  EXPECT_TRUE(s.AfterOfTxn(2, p).empty());
  // Schedule prefix through p.
  EXPECT_EQ(s.BeforeAll(p).size(), 3u);
}

TEST_F(ScheduleTest, CompletionTracking) {
  Schedule s = Example1Schedule();
  EXPECT_EQ(s.LastOpIndexOf(1), 4u);
  EXPECT_EQ(s.LastOpIndexOf(2), 2u);
  EXPECT_EQ(s.LastOpIndexOf(9), std::nullopt);
  EXPECT_TRUE(s.CompletedBy(2, 2));
  EXPECT_FALSE(s.CompletedBy(1, 2));
  EXPECT_TRUE(s.CompletedBy(1, 4));
  EXPECT_TRUE(s.CompletedBy(9, 0));  // absent txn is vacuously complete
}

TEST_F(ScheduleTest, IndexesSparseOutOfOrderIds) {
  // Ids need not be dense or arrive in order, and a transaction may come
  // back after others ran: T7's ops form three separate runs.
  const TxnId big = 4000000000u;
  ScheduleBuilder sb(db_);
  sb.R(7, "a", Value(0))    // 0
      .W(big, "b", Value(1))  // 1
      .W(big, "c", Value(2))  // 2
      .R(7, "b", Value(1))    // 3
      .W(3, "d", Value(4))    // 4
      .W(7, "a", Value(5))    // 5
      .R(7, "d", Value(4))    // 6
      .R(3, "a", Value(5));   // 7
  Schedule s = sb.Build();
  EXPECT_EQ(s.txn_ids(), (std::vector<TxnId>{3, 7, big}));
  EXPECT_EQ(s.LastOpIndexOf(3), 7u);
  EXPECT_EQ(s.LastOpIndexOf(7), 6u);
  EXPECT_EQ(s.LastOpIndexOf(big), 2u);
  EXPECT_EQ(s.LastOpIndexOf(4), std::nullopt);
  EXPECT_EQ(s.LastOpIndexOf(4000000001u), std::nullopt);
  EXPECT_FALSE(s.CompletedBy(7, 3));
  EXPECT_FALSE(s.CompletedBy(7, 5));
  EXPECT_TRUE(s.CompletedBy(7, 6));
  EXPECT_FALSE(s.CompletedBy(big, 1));
  EXPECT_TRUE(s.CompletedBy(big, 2));
  EXPECT_FALSE(s.CompletedBy(3, 6));
  EXPECT_TRUE(s.CompletedBy(3, 7));
  EXPECT_EQ(s.TransactionOf(7).size(), 4u);
}

TEST_F(ScheduleTest, ExecuteAppliesWritesAndChecksReads) {
  Schedule s = Example1Schedule();
  DbState ds1 = DbState::OfNamed(db_, {{"a", Value(0)},
                                       {"b", Value(10)},
                                       {"c", Value(5)},
                                       {"d", Value(10)}});
  auto result = s.Execute(ds1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->reads_consistent());
  EXPECT_EQ(result->final_state,
            DbState::OfNamed(db_, {{"a", Value(0)},
                                   {"b", Value(5)},
                                   {"c", Value(5)},
                                   {"d", Value(0)}}));
}

TEST_F(ScheduleTest, ExecuteFlagsReadMismatches) {
  Schedule s = Example1Schedule();
  DbState wrong = DbState::OfNamed(db_, {{"a", Value(7)},
                                         {"b", Value(10)},
                                         {"c", Value(5)},
                                         {"d", Value(10)}});
  auto result = s.Execute(wrong);
  ASSERT_TRUE(result.ok());
  // Both reads of a (positions 0 and 1) see 7, not the recorded 0.
  EXPECT_EQ(result->read_mismatches, (std::vector<size_t>{0, 1}));
}

TEST_F(ScheduleTest, ExecuteFailsOnUnassignedRead) {
  Schedule s = Example1Schedule();
  DbState partial = DbState::OfNamed(db_, {{"a", Value(0)}});
  auto result = s.Execute(partial);
  EXPECT_FALSE(result.ok());
}

TEST_F(ScheduleTest, ReadOfOwnWritePassesValidation) {
  ScheduleBuilder sb(db_);
  sb.W(1, "a", Value(3)).R(2, "a", Value(3));
  auto result = sb.Build().Execute(DbState::OfNamed(db_, {{"a", Value(0)}}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->reads_consistent());
}

TEST_F(ScheduleTest, PinnedInitialReads) {
  // First op per item pins it only if it is a read.
  Schedule s = Example1Schedule();
  DbState pinned = s.PinnedInitialReads();
  // a first touched by r1(a,0): pinned to 0. c pinned to 5.
  // d first touched by w2: free. b first touched by w1: free.
  EXPECT_EQ(pinned,
            DbState::OfNamed(db_, {{"a", Value(0)}, {"c", Value(5)}}));
}

TEST_F(ScheduleTest, FromOpsValidatesDerivedTransactions) {
  OpSequence bad{Operation::Read(1, db_.MustFind("a"), Value(0)),
                 Operation::Read(1, db_.MustFind("a"), Value(0))};
  EXPECT_FALSE(Schedule::FromOps(bad).ok());
  OpSequence good{Operation::Read(1, db_.MustFind("a"), Value(0)),
                  Operation::Read(2, db_.MustFind("a"), Value(0))};
  EXPECT_TRUE(Schedule::FromOps(good).ok());
}

TEST_F(ScheduleTest, EmptySchedule) {
  Schedule s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.txn_ids().empty());
  auto result = s.Execute(DbState());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->final_state.empty());
  EXPECT_TRUE(s.AccessedItems().empty());
}

TEST_F(ScheduleTest, SingleOpSchedule) {
  ScheduleBuilder sb(db_);
  sb.W(5, "c", Value(1));
  Schedule s = sb.Build();
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.txn_ids(), (std::vector<TxnId>{5}));
  EXPECT_EQ(s.LastOpIndexOf(5), 0u);
  EXPECT_TRUE(s.CompletedBy(5, 0));
  EXPECT_TRUE(s.CompletedBy(1, 0));
}

// Transactions() groups the operations in one pass; each group must be
// exactly the per-id slice TransactionOf takes, on sparse ids and
// interleavings of every shape.
TEST_F(ScheduleTest, TransactionsMatchTransactionOfOnRandomSchedules) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 389 + 1);
    const size_t num_txns = 1 + rng.NextBelow(12);
    const size_t num_ops = rng.NextBelow(80);
    OpSequence ops;
    for (size_t i = 0; i < num_ops; ++i) {
      const TxnId txn = static_cast<TxnId>(5 * rng.NextBelow(num_txns) + 3);
      const ItemId item = static_cast<ItemId>(rng.NextBelow(db_.num_items()));
      const Value value(static_cast<int64_t>(i));
      ops.push_back(rng.NextBool(0.5) ? Operation::Write(txn, item, value)
                                      : Operation::Read(txn, item, value));
    }
    Schedule s(std::move(ops));
    const std::vector<Transaction> txns = s.Transactions();
    ASSERT_EQ(txns.size(), s.txn_ids().size()) << "seed " << seed;
    for (size_t i = 0; i < txns.size(); ++i) {
      const Transaction expected = s.TransactionOf(s.txn_ids()[i]);
      EXPECT_EQ(txns[i].id(), expected.id()) << "seed " << seed;
      EXPECT_EQ(txns[i].ops(), expected.ops()) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace nse
