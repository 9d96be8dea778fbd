#include "history/trace_export.h"

#include <unordered_set>

#include "common/logging.h"

namespace nse {

History HistoryFromTrace(
    const Database& db, const Schedule& schedule,
    const std::vector<std::optional<TxnId>>& read_sources) {
  NSE_CHECK(read_sources.empty() ||
            read_sources.size() == schedule.ops().size());
  History history;
  history.db = db;
  history.events.reserve(schedule.size() + 2 * schedule.txn_ids().size());
  std::unordered_set<TxnId> begun;
  for (size_t i = 0; i < schedule.ops().size(); ++i) {
    const Operation& op = schedule.ops()[i];
    if (begun.insert(op.txn).second) {
      history.events.push_back(HistoryEvent::Begin(op.txn));
    }
    if (op.is_read()) {
      std::optional<TxnId> from =
          read_sources.empty() ? std::nullopt : read_sources[i];
      history.events.push_back(
          HistoryEvent::Read(op.txn, op.entity, op.value, from));
    } else {
      history.events.push_back(
          HistoryEvent::Write(op.txn, op.entity, op.value));
    }
    // A transaction commits right after its last trace operation.
    if (schedule.LastOpIndexOf(op.txn) == i) {
      history.events.push_back(HistoryEvent::Commit(op.txn));
    }
  }
  return history;
}

History HistoryFromSim(const Database& db, const SimResult& result) {
  return HistoryFromTrace(db, result.schedule, result.read_sources);
}

History HistoryFromEngine(const Database& db, const EngineResult& result) {
  return HistoryFromTrace(db, result.schedule, result.read_sources);
}

}  // namespace nse
