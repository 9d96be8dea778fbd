// Reference implementations ("oracles") of the analysis core's fast paths
// and of the history parser.
// Each is the straightforward version of an optimized production routine,
// written over the public library API only, and kept outside libnse: the
// differential tests compare production against them, and the benches
// measure production speedups against them. Production builds never link
// this library.

#ifndef NSE_TESTS_ORACLES_ORACLES_H_
#define NSE_TESTS_ORACLES_ORACLES_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/conflict_graph.h"
#include "analysis/violation_search.h"
#include "constraints/integrity_constraint.h"
#include "history/history.h"
#include "txn/interleaver.h"

namespace nse {
namespace oracles {

/// ConflictGraph::Build over the vector-scan sweep: per-item reader/writer
/// histories (ConflictAccessIndex) emit every candidate conflict pair at
/// every position and AddEdgeByIndexAt dedupes them. The dense bitset sweep
/// behind Build must yield the bit-identical graph — same edges inserted in
/// the same order, hence the same cycle witnesses.
ConflictGraph BuildReference(const Schedule& schedule,
                             CycleMode mode = CycleMode::kBatch);

/// DataAccessGraph::Build per transaction: materializes
/// schedule.Transactions(), builds each one's read and write DataSet, and
/// tests them against every conjunct's data set — edge i → j (i ≠ j) when
/// the reads meet d_i and the writes meet d_j. Returns the edges ordered by
/// (from, to), as DataAccessGraph::Edges does. The production builder walks
/// the schedule once over the IC's item → conjuncts table and must yield
/// the same edges.
std::vector<std::pair<size_t, size_t>> DataAccessGraphReference(
    const Schedule& schedule, const IntegrityConstraint& ic);

/// EnumerateInterleavingsFrom by replay-per-node: every tree node builds
/// fresh ProgramExecution steppers and replays its whole choice prefix
/// (O(depth^2) program steps per path). The production enumerator walks
/// the same tree with one persistent arena and step/undo per edge; the two
/// must agree on visit order, visited counts and truncation.
Result<EnumerationOutcome> EnumerateInterleavingsFromReference(
    const Database& db, const std::vector<const TransactionProgram*>& programs,
    const DbState& initial, const std::vector<size_t>& prefix, uint64_t limit,
    const InterleavingVisitor& visit);

/// ExhaustiveViolationSearch the sequential way: for each initial state in
/// order, one root enumeration (EnumerateInterleavingsFromReference, budget
/// `interleaving_limit`) whose visitor filters and checks each execution
/// through its own AnalysisContext and CheckExecution, with no solver cache
/// and no subtree units or merge. The production engine must return the
/// same counts, truncation, first violation index and counterexample at
/// any thread count.
Result<SearchOutcome> ReferenceExhaustiveSearch(
    const Database& db, const IntegrityConstraint& ic,
    const std::vector<const TransactionProgram*>& programs,
    const std::vector<DbState>& initial_states, const HypothesisFilter& filter,
    uint64_t interleaving_limit, bool stop_at_first);

/// ParseHistory over a generic JSON-object layer: each line becomes a
/// vector of (key, value) pairs, looked up by name through a wrapper that
/// records consumed keys and rejects the leftovers. The production parser
/// decodes straight into one slot per format key; on every input the two
/// must agree on ok-ness and StatusCode, and on success on the events and
/// the item catalog.
Result<History> ParseHistoryReference(std::string_view text);

}  // namespace oracles
}  // namespace nse

#endif  // NSE_TESTS_ORACLES_ORACLES_H_
