#include "common/logging.h"
#include "common/string_util.h"
#include "oracles/oracles.h"

namespace nse {
namespace oracles {

namespace {

/// One fresh execution of a choice prefix: a stepper per program over a
/// shared state, built from scratch at every tree node.
struct PrefixReplay {
  DbState state;
  std::vector<ProgramExecution> execs;
  OpSequence ops;

  PrefixReplay(const Database& db,
               const std::vector<const TransactionProgram*>& programs,
               const DbState& initial)
      : state(initial) {
    for (size_t i = 0; i < programs.size(); ++i) {
      execs.emplace_back(&db, programs[i], static_cast<TxnId>(i + 1));
    }
  }

  /// Performs program `index`'s next operation; false iff it was finished.
  Result<bool> Step(const Database& db, size_t index) {
    ReadEnv env = [this, &db](ItemId item) -> Result<Value> {
      std::optional<Value> value = state.Get(item);
      if (!value.has_value()) {
        return Status::FailedPrecondition(
            StrCat("item ", db.NameOf(item),
                   " is unassigned in the shared state"));
      }
      return *value;
    };
    NSE_ASSIGN_OR_RETURN(std::optional<Operation> op, execs[index].Step(env));
    if (!op.has_value()) return false;
    if (op->is_write()) state.Set(op->entity, op->value);
    ops.push_back(*op);
    return true;
  }
};

Status EnumerateRec(const Database& db,
                    const std::vector<const TransactionProgram*>& programs,
                    const DbState& initial, std::vector<size_t>& prefix,
                    uint64_t limit, uint64_t& visited, bool& stop,
                    bool& truncated, const InterleavingVisitor& visit) {
  if (stop) return Status::Ok();
  if (visited >= limit) {
    truncated = true;
    return Status::Ok();
  }
  PrefixReplay replay(db, programs, initial);
  for (size_t index : prefix) {
    NSE_ASSIGN_OR_RETURN(bool stepped, replay.Step(db, index));
    NSE_CHECK(stepped);
  }
  bool all_done = true;
  for (ProgramExecution& exec : replay.execs) {
    NSE_ASSIGN_OR_RETURN(bool done, exec.ProbeFinished());
    if (!done) {
      all_done = false;
      break;
    }
  }
  if (all_done) {
    ++visited;
    InterleaveResult result{Schedule(replay.ops), replay.state, true};
    if (!visit(result, prefix)) stop = true;
    return Status::Ok();
  }
  for (size_t i = 0; i < programs.size(); ++i) {
    if (stop) break;
    NSE_ASSIGN_OR_RETURN(bool done, replay.execs[i].ProbeFinished());
    if (done) continue;
    if (visited >= limit) {
      truncated = true;
      break;
    }
    prefix.push_back(i);
    NSE_RETURN_IF_ERROR(EnumerateRec(db, programs, initial, prefix, limit,
                                     visited, stop, truncated, visit));
    prefix.pop_back();
  }
  return Status::Ok();
}

}  // namespace

Result<EnumerationOutcome> EnumerateInterleavingsFromReference(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, const std::vector<size_t>& prefix, uint64_t limit,
    const InterleavingVisitor& visit) {
  std::vector<size_t> seeded = prefix;
  EnumerationOutcome outcome;
  bool stop = false;
  bool truncated = false;
  NSE_RETURN_IF_ERROR(EnumerateRec(db, programs, initial, seeded, limit,
                                   outcome.visited, stop, truncated, visit));
  outcome.exhausted = !truncated;
  return outcome;
}

}  // namespace oracles
}  // namespace nse
