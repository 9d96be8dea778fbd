// Schedule: a finite set of transactions plus a total order on all their
// operations (§2.2). Operations are addressed by their position (index) in
// the schedule; depth(p, S) is exactly that index.
//
// Includes the paper's slicing operators before(seq, p, S) / after(seq, p, S)
// for seq = a transaction of S or S itself, projections S^d, and execution
// semantics [DS1] S [DS2].

#ifndef NSE_TXN_SCHEDULE_H_
#define NSE_TXN_SCHEDULE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "state/database.h"
#include "state/db_state.h"
#include "txn/transaction.h"

namespace nse {

/// Result of executing a schedule from an initial state.
struct ExecutionResult {
  /// The final database state DS2 (initial state overridden by writes).
  DbState final_state;
  /// Positions of read operations whose recorded value differs from the
  /// value actually visible at that point of the execution. Empty iff the
  /// schedule is an execution from the given initial state.
  std::vector<size_t> read_mismatches;

  /// True iff every read saw exactly its recorded value.
  bool reads_consistent() const { return read_mismatches.empty(); }
};

struct ScheduleProjection;

/// An ordered sequence of operations from a set of transactions.
class Schedule {
 public:
  Schedule() = default;

  /// Wraps `ops` as a schedule. Transaction membership is derived from the
  /// operations' txn fields.
  explicit Schedule(OpSequence ops);

  /// Like the constructor but additionally validates that every derived
  /// transaction obeys the access discipline of §2.2.
  static Result<Schedule> FromOps(OpSequence ops);

  /// The operations in schedule order.
  const OpSequence& ops() const { return ops_; }

  /// Number of operations.
  size_t size() const { return ops_.size(); }
  /// True iff the schedule has no operations.
  bool empty() const { return ops_.empty(); }

  /// The operation at position `p` (aborts if out of range).
  const Operation& at(size_t p) const;

  /// depth(p, S): number of operations preceding position p — i.e. p itself.
  size_t depth(size_t p) const { return p; }

  /// Distinct transaction ids, ascending.
  const std::vector<TxnId>& txn_ids() const { return txn_ids_; }

  /// The transaction with id `txn` (empty transaction if absent).
  Transaction TransactionOf(TxnId txn) const;

  /// All transactions, in txn-id order; each equals TransactionOf(id).
  /// One pass over the operations, O(ops · log txns).
  std::vector<Transaction> Transactions() const;

  /// S^d: the schedule restricted to operations on items in d.
  Schedule Project(const DataSet& d) const;

  /// S^d together with the original position of each projected operation —
  /// the handle analysis layers use to map witnesses found in a projection
  /// back to positions of the full schedule.
  ScheduleProjection ProjectWithPositions(const DataSet& d) const;

  /// before(T_txn, p, S): operations of transaction `txn` strictly before
  /// position p, plus the operation at p itself when it belongs to `txn`.
  OpSequence BeforeOfTxn(TxnId txn, size_t p) const;

  /// after(T_txn, p, S): operations of `txn` not in before(T_txn, p, S).
  OpSequence AfterOfTxn(TxnId txn, size_t p) const;

  /// before(S, p, S): prefix of the schedule through position p.
  OpSequence BeforeAll(size_t p) const;

  /// Position of the last operation of `txn`, or nullopt if absent.
  std::optional<size_t> LastOpIndexOf(TxnId txn) const;

  /// True iff transaction `txn` has no operation after position p — the
  /// paper's "after(T, p, S) = ε" (transaction completed by p).
  bool CompletedBy(TxnId txn, size_t p) const;

  /// Executes the schedule from `initial`: writes override the state in
  /// order; each read is checked against the visible value and mismatches
  /// are reported (a mismatch means S is not an execution from `initial`).
  /// Fails if a read references an item unassigned in `initial`.
  Result<ExecutionResult> Execute(const DbState& initial) const;

  /// The constraints `initial` must satisfy for S to be executable from it:
  /// for each item, its first operation in S pins the item's initial value
  /// if that operation is a read (writes leave it free).
  DbState PinnedInitialReads() const;

  /// write(S): the cumulative effect of the schedule's writes (last write
  /// per item wins).
  DbState WriteMap() const { return WriteMapOf(ops_); }

  /// Items accessed anywhere in the schedule.
  DataSet AccessedItems() const;

  /// Renders "r1(a, 0), w2(d, 0), ..." using catalog names.
  std::string ToString(const Database& db) const;

 private:
  OpSequence ops_;
  std::vector<TxnId> txn_ids_;
  /// Position of the last operation of txn_ids_[k], parallel to txn_ids_;
  /// precomputed so CompletedBy / LastOpIndexOf avoid a full scan.
  std::vector<size_t> last_op_index_;
};

/// A projection handle: S^d plus where each projected operation sits in S.
struct ScheduleProjection {
  Schedule schedule;                     ///< the projected schedule S^d
  std::vector<size_t> source_positions;  ///< projected index → position in S
};

/// Fluent construction of schedules for tests and examples:
///   ScheduleBuilder b(db);
///   b.R(1, "a", 0).W(2, "d", 0).R(1, "c", 5).W(1, "b", 5);
///   Schedule s = b.Build();
class ScheduleBuilder {
 public:
  explicit ScheduleBuilder(const Database& db) : db_(db) {}

  /// Appends r_txn(item, value).
  ScheduleBuilder& R(TxnId txn, std::string_view item, Value value);
  /// Appends w_txn(item, value).
  ScheduleBuilder& W(TxnId txn, std::string_view item, Value value);

  /// Finishes construction.
  Schedule Build() const { return Schedule(ops_); }

 private:
  const Database& db_;
  OpSequence ops_;
};

}  // namespace nse

#endif  // NSE_TXN_SCHEDULE_H_
