// Interleaver: builds schedules by executing transaction programs
// concurrently against a shared database state (§2.2). The caller controls
// the interleaving with a *choice sequence*: choices[k] = index of the
// program that performs its next operation at step k. Each read sees the
// shared state at its moment of execution; each write updates it — this is
// what gives schedule operations their value attributes.
//
// Also provides serial execution, random interleavings, and exhaustive
// enumeration of all interleavings (a tiny model checker used to *search*
// for strong-correctness violations in small scenarios).

#ifndef NSE_TXN_INTERLEAVER_H_
#define NSE_TXN_INTERLEAVER_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "txn/program.h"
#include "txn/schedule.h"

namespace nse {

/// Outcome of one interleaved execution [DS1] S [DS2].
struct InterleaveResult {
  Schedule schedule;    ///< S, with value attributes
  DbState final_state;  ///< DS2
  bool complete;        ///< true iff every program ran to completion
};

/// Executes `programs` concurrently from `initial` under `choices`.
/// Transaction ids are 1-based: programs[i] runs as T_{i+1}.
/// A choice naming a finished program is an InvalidArgument error.
/// If `require_complete` is true, all programs must be finished after the
/// last choice; otherwise the result may be a prefix schedule.
Result<InterleaveResult> Interleave(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, const std::vector<size_t>& choices,
    bool require_complete = true);

/// Serial execution in the given order of program indices (a special choice
/// sequence); the baseline the paper compares against.
Result<InterleaveResult> ExecuteSerially(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, const std::vector<size_t>& order);

/// A uniformly random *complete* choice sequence for `programs` executing
/// from `initial` (programs are stepped to discover their lengths).
Result<std::vector<size_t>> RandomChoices(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, Rng& rng);

/// A *near-serial* choice sequence: the programs run serially in a random
/// order, then `swaps` random adjacent transpositions (between different
/// programs) partially interleave the sequence. With few swaps the
/// resulting executions usually stay PWSR/DR — the regime the theorems
/// quantify over — whereas uniformly random choices almost never do once
/// several transactions conflict.
///
/// Note: the returned sequence is valid for the *serial* execution; because
/// program lengths may depend on interleaving (non-fixed-structure
/// programs), replaying a swapped sequence can fail — callers should treat
/// Interleave errors as a discarded sample.
Result<std::vector<size_t>> NearSerialChoices(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, Rng& rng, size_t swaps);

/// Callback for EnumerateInterleavings; return false to stop enumeration.
using InterleavingVisitor = std::function<bool(const InterleaveResult&,
                                               const std::vector<size_t>&)>;

/// How an interleaving enumeration ended.
struct EnumerationOutcome {
  uint64_t visited = 0;  ///< complete interleavings passed to the visitor
  /// True iff every complete interleaving was visited (or the visitor
  /// stopped the enumeration itself); false iff `limit` cut it off with
  /// unexplored interleavings remaining. The distinction matters to
  /// consumers like ExhaustiveViolationSearch, where "no violation found"
  /// is only evidence when the enumeration was exhaustive.
  bool exhausted = true;
};

/// Enumerates every complete interleaving of `programs` from `initial`
/// (depth-first over the choice tree), invoking `visit` for each. Stops
/// early when `visit` returns false or after `limit` interleavings.
///
/// The number of interleavings is the multinomial (Σn_i)! / Π(n_i!) — keep
/// programs tiny. Program lengths may be state-dependent; the enumeration
/// follows actual execution, so it is exact even for non-fixed-structure
/// programs.
Result<EnumerationOutcome> EnumerateInterleavings(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, uint64_t limit, const InterleavingVisitor& visit);

/// Enumerates the complete interleavings whose choice sequences extend the
/// fixed `prefix`, in the same depth-first order EnumerateInterleavings
/// would visit them. The visitor receives full choice sequences (prefix
/// included); `visited` counts only this subtree. This is the unit of work
/// for the parallel exhaustive search: the root tree partitions exactly
/// into the subtrees under each live first choice, so enumerating them
/// independently and concatenating in ascending first-choice order
/// reproduces the sequential enumeration.
Result<EnumerationOutcome> EnumerateInterleavingsFrom(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, const std::vector<size_t>& prefix, uint64_t limit,
    const InterleavingVisitor& visit);

/// The program indices that can perform an operation first from `initial`,
/// in ascending order — i.e. the valid first choices of any complete
/// interleaving. Empty iff every program is already finished, in which case
/// the only complete interleaving is the empty one.
Result<std::vector<size_t>> LiveFirstChoices(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial);

}  // namespace nse

#endif  // NSE_TXN_INTERLEAVER_H_
