#include "txn/interleaver.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace nse {

namespace {

/// Shared execution context: live state + one stepper per program.
struct Arena {
  DbState state;
  std::vector<ProgramExecution> execs;
  OpSequence ops;

  Arena(const Database& db,
        const std::vector<const TransactionProgram*>& programs,
        const DbState& initial)
      : state(initial) {
    execs.reserve(programs.size());
    for (size_t i = 0; i < programs.size(); ++i) {
      execs.emplace_back(&db, programs[i],
                         static_cast<TxnId>(i + 1));  // 1-based ids
    }
  }

  /// True iff no program has a remaining operation (probes by replay).
  Result<bool> ProbeAllFinished() {
    for (auto& exec : execs) {
      NSE_ASSIGN_OR_RETURN(bool done, exec.ProbeFinished());
      if (!done) return false;
    }
    return true;
  }

  /// Steps program `index`; appends the op and applies writes.
  /// Returns true if an op was performed, false if the program was finished.
  Result<bool> StepOne(const Database& db, size_t index) {
    StepUndo ignored;
    return StepOneUndoable(db, index, ignored);
  }

  /// What UndoStep needs to rewind one performed operation.
  struct StepUndo {
    size_t index = 0;               ///< program that stepped
    bool wrote = false;             ///< whether the op was a write
    ItemId entity = 0;              ///< written item (wrote only)
    std::optional<Value> old_value; ///< its prior binding (wrote only)
  };

  /// StepOne recording enough to rewind: the DFS enumerator steps into a
  /// child, recurses, and undoes, so the whole choice tree is walked with
  /// one persistent arena instead of a fresh prefix replay per node.
  Result<bool> StepOneUndoable(const Database& db, size_t index,
                               StepUndo& undo) {
    ProgramExecution& exec = execs[index];
    ReadEnv env = [this, &db](ItemId item) -> Result<Value> {
      auto value = state.Get(item);
      if (!value.has_value()) {
        return Status::FailedPrecondition(
            StrCat("item ", db.NameOf(item),
                   " is unassigned in the shared state"));
      }
      return *value;
    };
    NSE_ASSIGN_OR_RETURN(std::optional<Operation> op, exec.Step(env));
    if (!op.has_value()) return false;
    undo.index = index;
    undo.wrote = op->is_write();
    if (undo.wrote) {
      undo.entity = op->entity;
      undo.old_value = state.Get(op->entity);
      state.Set(op->entity, op->value);
    }
    ops.push_back(*op);
    return true;
  }

  /// Rewinds the step recorded in `undo` (strictly LIFO).
  void UndoStep(const StepUndo& undo) {
    ops.pop_back();
    if (undo.wrote) {
      if (undo.old_value.has_value()) {
        state.Set(undo.entity, *undo.old_value);
      } else {
        state.Unset(undo.entity);
      }
    }
    execs[undo.index].UndoLastOp();
  }
};

}  // namespace

Result<InterleaveResult> Interleave(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, const std::vector<size_t>& choices,
    bool require_complete) {
  Arena arena(db, programs, initial);
  for (size_t k = 0; k < choices.size(); ++k) {
    size_t index = choices[k];
    if (index >= programs.size()) {
      return Status::InvalidArgument(
          StrCat("choice ", k, " names program ", index, " of ",
                 programs.size()));
    }
    NSE_ASSIGN_OR_RETURN(bool stepped, arena.StepOne(db, index));
    if (!stepped) {
      return Status::InvalidArgument(
          StrCat("choice ", k, " names finished program ", index));
    }
  }
  NSE_ASSIGN_OR_RETURN(bool complete, arena.ProbeAllFinished());
  if (require_complete && !complete) {
    return Status::FailedPrecondition(
        "choice sequence does not run every program to completion");
  }
  return InterleaveResult{Schedule(std::move(arena.ops)),
                          std::move(arena.state), complete};
}

Result<InterleaveResult> ExecuteSerially(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, const std::vector<size_t>& order) {
  if (order.size() != programs.size()) {
    return Status::InvalidArgument("order must list every program once");
  }
  Arena arena(db, programs, initial);
  for (size_t index : order) {
    if (index >= programs.size()) {
      return Status::InvalidArgument(StrCat("bad program index ", index));
    }
    while (true) {
      NSE_ASSIGN_OR_RETURN(bool stepped, arena.StepOne(db, index));
      if (!stepped) break;
    }
  }
  NSE_ASSIGN_OR_RETURN(bool complete, arena.ProbeAllFinished());
  NSE_CHECK(complete);
  return InterleaveResult{Schedule(std::move(arena.ops)),
                          std::move(arena.state), true};
}

Result<std::vector<size_t>> RandomChoices(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, Rng& rng) {
  Arena arena(db, programs, initial);
  std::vector<size_t> choices;
  while (true) {
    std::vector<size_t> live;
    for (size_t i = 0; i < arena.execs.size(); ++i) {
      NSE_ASSIGN_OR_RETURN(bool done, arena.execs[i].ProbeFinished());
      if (!done) live.push_back(i);
    }
    if (live.empty()) break;
    size_t index = live[rng.NextBelow(live.size())];
    NSE_ASSIGN_OR_RETURN(bool stepped, arena.StepOne(db, index));
    NSE_CHECK(stepped);
    choices.push_back(index);
  }
  return choices;
}

Result<std::vector<size_t>> NearSerialChoices(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, Rng& rng, size_t swaps) {
  std::vector<size_t> order(programs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);

  Arena arena(db, programs, initial);
  std::vector<size_t> choices;
  for (size_t index : order) {
    while (true) {
      NSE_ASSIGN_OR_RETURN(bool stepped, arena.StepOne(db, index));
      if (!stepped) break;
      choices.push_back(index);
    }
  }
  if (choices.size() < 2) return choices;
  for (size_t s = 0; s < swaps; ++s) {
    size_t i = rng.NextBelow(choices.size() - 1);
    if (choices[i] != choices[i + 1]) std::swap(choices[i], choices[i + 1]);
  }
  return choices;
}

namespace {

/// Incremental DFS over the choice tree: one persistent Arena, stepping
/// into a child and rewinding on the way back (StepOneUndoable/UndoStep),
/// so each tree edge costs one program step instead of a full prefix
/// replay. Liveness is discovered by *attempting* the step — a program is
/// finished exactly when Step yields nothing — which also replaces the
/// per-node ProbeAllFinished pass: a node is a leaf iff no child stepped.
/// Visit order, visited counts, and the truncated flag are identical to
/// the replay-per-node reference enumerator in tests/oracles
/// (differential-fuzzed in interleaver_test.cc).
Status EnumerateRec(const Database& db, Arena& arena,
                    std::vector<size_t>& prefix, uint64_t limit,
                    uint64_t& visited, bool& stop, bool& truncated,
                    const InterleavingVisitor& visit) {
  if (stop) return Status::Ok();
  if (visited >= limit) {
    // Reached only when unexplored work remains (callers recurse solely
    // below the limit): the limit — not the visitor — ended the search.
    truncated = true;
    return Status::Ok();
  }
  bool any_live = false;
  for (size_t i = 0; i < arena.execs.size(); ++i) {
    if (stop) break;
    Arena::StepUndo undo;
    NSE_ASSIGN_OR_RETURN(bool stepped, arena.StepOneUndoable(db, i, undo));
    if (!stepped) continue;
    any_live = true;
    if (visited >= limit) {
      // An unfinished program means at least one more complete interleaving
      // exists along this branch.
      arena.UndoStep(undo);
      truncated = true;
      break;
    }
    prefix.push_back(i);
    Status status = EnumerateRec(db, arena, prefix, limit, visited, stop,
                                 truncated, visit);
    prefix.pop_back();
    arena.UndoStep(undo);
    NSE_RETURN_IF_ERROR(status);
  }
  if (!any_live) {
    ++visited;
    InterleaveResult result{Schedule(arena.ops), arena.state, true};
    if (!visit(result, prefix)) stop = true;
  }
  return Status::Ok();
}

/// Shared driver: seeds the arena with `prefix` (pinning the subtree; the
/// recursion pushes/pops strictly above the seed) and runs the incremental
/// enumeration.
Result<EnumerationOutcome> EnumerateFromImpl(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, const std::vector<size_t>& prefix, uint64_t limit,
    const InterleavingVisitor& visit) {
  Arena arena(db, programs, initial);
  for (size_t index : prefix) {
    NSE_ASSIGN_OR_RETURN(bool stepped, arena.StepOne(db, index));
    NSE_CHECK(stepped);
  }
  std::vector<size_t> seeded = prefix;
  EnumerationOutcome outcome;
  bool stop = false;
  bool truncated = false;
  NSE_RETURN_IF_ERROR(EnumerateRec(db, arena, seeded, limit, outcome.visited,
                                   stop, truncated, visit));
  outcome.exhausted = !truncated;
  return outcome;
}

}  // namespace

Result<EnumerationOutcome> EnumerateInterleavings(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, uint64_t limit, const InterleavingVisitor& visit) {
  return EnumerateFromImpl(db, programs, initial, {}, limit, visit);
}

Result<EnumerationOutcome> EnumerateInterleavingsFrom(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, const std::vector<size_t>& prefix, uint64_t limit,
    const InterleavingVisitor& visit) {
  return EnumerateFromImpl(db, programs, initial, prefix, limit, visit);
}

Result<std::vector<size_t>> LiveFirstChoices(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial) {
  Arena arena(db, programs, initial);
  std::vector<size_t> live;
  for (size_t i = 0; i < arena.execs.size(); ++i) {
    NSE_ASSIGN_OR_RETURN(bool done, arena.execs[i].ProbeFinished());
    if (!done) live.push_back(i);
  }
  return live;
}

}  // namespace nse
