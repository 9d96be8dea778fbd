// IntegrityConstraint: IC = C1 ∧ C2 ∧ ... ∧ Cl with each conjunct Ce defined
// over a data set d_e. The paper's standing assumption — d_e ∩ d_f = ∅ for
// e ≠ f — is verified at construction; Example 5 shows the theorems fail
// without it, so overlapping conjuncts require an explicit opt-in and are
// flagged on every checker result.

#ifndef NSE_CONSTRAINTS_INTEGRITY_CONSTRAINT_H_
#define NSE_CONSTRAINTS_INTEGRITY_CONSTRAINT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "constraints/ast.h"
#include "state/database.h"

namespace nse {

/// Whether overlapping conjunct data sets are permitted.
enum class ConjunctOverlap {
  kReject,  ///< Enforce the paper's disjointness assumption (default).
  kAllow,   ///< Permit overlap (only for studying its failure modes).
};

/// A partitioned integrity constraint.
class IntegrityConstraint {
 public:
  /// Builds an IC from explicit conjuncts. Fails with InvalidArgument if two
  /// conjuncts share a data item and `overlap` is kReject, or if a conjunct
  /// references no data item.
  static Result<IntegrityConstraint> FromConjuncts(
      const Database& db, std::vector<Formula> conjuncts,
      ConjunctOverlap overlap = ConjunctOverlap::kReject);

  /// Splits `formula` on top-level ∧ and delegates to FromConjuncts.
  static Result<IntegrityConstraint> FromFormula(
      const Database& db, const Formula& formula,
      ConjunctOverlap overlap = ConjunctOverlap::kReject);

  /// Parses the textual syntax (see parser.h) and splits on top-level '&'.
  static Result<IntegrityConstraint> Parse(
      const Database& db, std::string_view text,
      ConjunctOverlap overlap = ConjunctOverlap::kReject);

  /// Number of conjuncts l.
  size_t num_conjuncts() const { return conjuncts_.size(); }

  /// The e-th conjunct formula Ce (0-based).
  const Formula& conjunct(size_t e) const { return conjuncts_[e]; }

  /// The e-th conjunct's data set d_e.
  const DataSet& data_set(size_t e) const { return data_sets_[e]; }

  /// All conjunct data sets.
  const std::vector<DataSet>& data_sets() const { return data_sets_; }

  /// Union of all conjunct data sets (items mentioned by some conjunct).
  const DataSet& constrained_items() const { return constrained_items_; }

  /// Index of the conjunct whose data set contains `item`, or nullopt if the
  /// item is unconstrained. With overlapping conjuncts, the lowest index.
  std::optional<size_t> ConjunctOf(ItemId item) const;

  /// One conjunct whose data set holds an item, and the item's index in
  /// that data set (data_set(conjunct).items()[slot] is the item).
  struct ConjunctSlot {
    size_t conjunct;
    ItemId slot;
  };

  /// Every conjunct whose data set holds `item`, ascending by conjunct
  /// (more than one only for overlapping conjuncts); empty for an
  /// unconstrained item. O(1): the item → conjuncts table is built once,
  /// at construction, for the analyses that walk a schedule and route each
  /// access to its conjuncts (the conjunct conflict graphs, DAG(S, IC)).
  const std::vector<ConjunctSlot>& SlotsOf(ItemId item) const;

  /// True iff the conjunct data sets are pairwise disjoint.
  bool disjoint() const { return disjoint_; }

  /// The conjunction C1 ∧ ... ∧ Cl as a single formula.
  Formula AsFormula() const;

  /// Renders e.g. "C1: a > 0 -> b > 0 over {a, b}; C2: c > 0 over {c}".
  std::string ToString(const Database& db) const;

 private:
  IntegrityConstraint() = default;

  std::vector<Formula> conjuncts_;
  std::vector<DataSet> data_sets_;
  DataSet constrained_items_;
  std::vector<std::vector<ConjunctSlot>> slots_;  // by item id
  bool disjoint_ = true;
};

}  // namespace nse

#endif  // NSE_CONSTRAINTS_INTEGRITY_CONSTRAINT_H_
