#include "txn/schedule.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace nse {

Schedule::Schedule(OpSequence ops) : ops_(std::move(ops)) {
  // (txn, pos) at the end of each run of same-txn ops; sorted, the last
  // entry per txn holds that transaction's last operation.
  std::vector<std::pair<TxnId, size_t>> ends;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (i + 1 == ops_.size() || ops_[i + 1].txn != ops_[i].txn) {
      ends.emplace_back(ops_[i].txn, i);
    }
  }
  std::sort(ends.begin(), ends.end());
  for (size_t k = 0; k < ends.size(); ++k) {
    if (k + 1 < ends.size() && ends[k + 1].first == ends[k].first) continue;
    txn_ids_.push_back(ends[k].first);
    last_op_index_.push_back(ends[k].second);
  }
}

Result<Schedule> Schedule::FromOps(OpSequence ops) {
  Schedule schedule(std::move(ops));
  for (const Transaction& txn : schedule.Transactions()) {
    NSE_RETURN_IF_ERROR(txn.ValidateAccessDiscipline());
  }
  return schedule;
}

const Operation& Schedule::at(size_t p) const {
  NSE_CHECK_MSG(p < ops_.size(), "schedule position %zu out of range %zu", p,
                ops_.size());
  return ops_[p];
}

Transaction Schedule::TransactionOf(TxnId txn) const {
  return Transaction(txn, OpsOfTxn(ops_, txn));
}

std::vector<Transaction> Schedule::Transactions() const {
  // One pass groups the operations by transaction index, in schedule order;
  // a count pass first sizes each group exactly.
  auto index_of = [this](TxnId txn) {
    return static_cast<size_t>(
        std::lower_bound(txn_ids_.begin(), txn_ids_.end(), txn) -
        txn_ids_.begin());
  };
  std::vector<size_t> counts(txn_ids_.size(), 0);
  for (const Operation& op : ops_) ++counts[index_of(op.txn)];
  std::vector<OpSequence> grouped(txn_ids_.size());
  for (size_t i = 0; i < grouped.size(); ++i) grouped[i].reserve(counts[i]);
  for (const Operation& op : ops_) grouped[index_of(op.txn)].push_back(op);
  std::vector<Transaction> out;
  out.reserve(txn_ids_.size());
  for (size_t i = 0; i < grouped.size(); ++i) {
    out.emplace_back(txn_ids_[i], std::move(grouped[i]));
  }
  return out;
}

Schedule Schedule::Project(const DataSet& d) const {
  return Schedule(ProjectOps(ops_, d));
}

ScheduleProjection Schedule::ProjectWithPositions(const DataSet& d) const {
  OpSequence ops;
  std::vector<size_t> positions;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (d.Contains(ops_[i].entity)) {
      ops.push_back(ops_[i]);
      positions.push_back(i);
    }
  }
  return ScheduleProjection{Schedule(std::move(ops)), std::move(positions)};
}

OpSequence Schedule::BeforeOfTxn(TxnId txn, size_t p) const {
  OpSequence out;
  for (size_t i = 0; i < ops_.size() && i <= p; ++i) {
    if (ops_[i].txn != txn) continue;
    if (i < p || (i == p && ops_[p].txn == txn)) out.push_back(ops_[i]);
  }
  return out;
}

OpSequence Schedule::AfterOfTxn(TxnId txn, size_t p) const {
  OpSequence out;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (ops_[i].txn != txn) continue;
    if (i > p) out.push_back(ops_[i]);
  }
  return out;
}

OpSequence Schedule::BeforeAll(size_t p) const {
  OpSequence out;
  for (size_t i = 0; i < ops_.size() && i <= p; ++i) out.push_back(ops_[i]);
  return out;
}

std::optional<size_t> Schedule::LastOpIndexOf(TxnId txn) const {
  auto it = std::lower_bound(txn_ids_.begin(), txn_ids_.end(), txn);
  if (it == txn_ids_.end() || *it != txn) return std::nullopt;
  return last_op_index_[static_cast<size_t>(it - txn_ids_.begin())];
}

bool Schedule::CompletedBy(TxnId txn, size_t p) const {
  auto last = LastOpIndexOf(txn);
  if (!last.has_value()) return true;
  return *last <= p;
}

Result<ExecutionResult> Schedule::Execute(const DbState& initial) const {
  ExecutionResult result;
  DbState state = initial;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Operation& op = ops_[i];
    if (op.is_write()) {
      state.Set(op.entity, op.value);
      continue;
    }
    auto visible = state.Get(op.entity);
    if (!visible.has_value()) {
      return Status::FailedPrecondition(
          StrCat("read of item #", op.entity,
                 " which is unassigned in the initial state"));
    }
    if (*visible != op.value) result.read_mismatches.push_back(i);
  }
  result.final_state = std::move(state);
  return result;
}

DbState Schedule::PinnedInitialReads() const {
  DbState pinned;
  DataSet touched;
  for (const Operation& op : ops_) {
    if (touched.Contains(op.entity)) continue;
    touched.Insert(op.entity);
    if (op.is_read()) pinned.Set(op.entity, op.value);
  }
  return pinned;
}

DataSet Schedule::AccessedItems() const {
  DataSet out;
  for (const Operation& op : ops_) out.Insert(op.entity);
  return out;
}

std::string Schedule::ToString(const Database& db) const {
  return OpsToString(db, ops_);
}

ScheduleBuilder& ScheduleBuilder::R(TxnId txn, std::string_view item,
                                    Value value) {
  ops_.push_back(Operation::Read(txn, db_.MustFind(item), std::move(value)));
  return *this;
}

ScheduleBuilder& ScheduleBuilder::W(TxnId txn, std::string_view item,
                                    Value value) {
  ops_.push_back(Operation::Write(txn, db_.MustFind(item), std::move(value)));
  return *this;
}

}  // namespace nse
