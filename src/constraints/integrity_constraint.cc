#include "constraints/integrity_constraint.h"

#include "common/string_util.h"
#include "constraints/parser.h"

namespace nse {

Result<IntegrityConstraint> IntegrityConstraint::FromConjuncts(
    const Database& db, std::vector<Formula> conjuncts,
    ConjunctOverlap overlap) {
  if (conjuncts.empty()) {
    return Status::InvalidArgument("an IC needs at least one conjunct");
  }
  IntegrityConstraint ic;
  ic.conjuncts_ = std::move(conjuncts);
  for (size_t e = 0; e < ic.conjuncts_.size(); ++e) {
    if (ic.conjuncts_[e] == nullptr) {
      return Status::InvalidArgument(StrCat("conjunct ", e, " is null"));
    }
    DataSet items = ItemsOf(ic.conjuncts_[e]);
    if (items.empty()) {
      return Status::InvalidArgument(
          StrCat("conjunct ", e, " references no data item: ",
                 FormulaToString(db, ic.conjuncts_[e])));
    }
    for (ItemId item : items) {
      if (item >= db.num_items()) {
        return Status::InvalidArgument(
            StrCat("conjunct ", e, " references unknown item id ", item));
      }
    }
    ic.data_sets_.push_back(std::move(items));
  }
  ic.disjoint_ = true;
  for (size_t e = 0; e < ic.data_sets_.size() && ic.disjoint_; ++e) {
    for (size_t f = e + 1; f < ic.data_sets_.size(); ++f) {
      if (!DataSet::Disjoint(ic.data_sets_[e], ic.data_sets_[f])) {
        ic.disjoint_ = false;
        if (overlap == ConjunctOverlap::kReject) {
          return Status::InvalidArgument(StrCat(
              "conjuncts ", e, " and ", f, " share data items ",
              db.DataSetToString(
                  DataSet::Intersect(ic.data_sets_[e], ic.data_sets_[f])),
              "; the paper's theorems require disjoint conjuncts "
              "(see Example 5). Pass ConjunctOverlap::kAllow to study this."));
        }
        break;
      }
    }
  }
  DataSet all;
  for (const DataSet& d : ic.data_sets_) all = DataSet::Union(all, d);
  ic.constrained_items_ = std::move(all);
  for (size_t e = 0; e < ic.data_sets_.size(); ++e) {
    const std::vector<ItemId>& items = ic.data_sets_[e].items();
    for (ItemId slot = 0; slot < items.size(); ++slot) {
      if (items[slot] >= ic.slots_.size()) ic.slots_.resize(items[slot] + 1);
      ic.slots_[items[slot]].push_back({e, slot});
    }
  }
  return ic;
}

Result<IntegrityConstraint> IntegrityConstraint::FromFormula(
    const Database& db, const Formula& formula, ConjunctOverlap overlap) {
  if (formula == nullptr) {
    return Status::InvalidArgument("null formula");
  }
  return FromConjuncts(db, TopLevelConjuncts(formula), overlap);
}

Result<IntegrityConstraint> IntegrityConstraint::Parse(
    const Database& db, std::string_view text, ConjunctOverlap overlap) {
  NSE_ASSIGN_OR_RETURN(Formula formula, ParseFormula(db, text));
  return FromFormula(db, formula, overlap);
}

std::optional<size_t> IntegrityConstraint::ConjunctOf(ItemId item) const {
  const std::vector<ConjunctSlot>& slots = SlotsOf(item);
  if (slots.empty()) return std::nullopt;
  return slots.front().conjunct;
}

const std::vector<IntegrityConstraint::ConjunctSlot>&
IntegrityConstraint::SlotsOf(ItemId item) const {
  static const std::vector<ConjunctSlot> kUnconstrained;
  return item < slots_.size() ? slots_[item] : kUnconstrained;
}

Formula IntegrityConstraint::AsFormula() const { return And(conjuncts_); }

std::string IntegrityConstraint::ToString(const Database& db) const {
  std::vector<std::string> parts;
  for (size_t e = 0; e < conjuncts_.size(); ++e) {
    parts.push_back(StrCat("C", e + 1, ": ",
                           FormulaToString(db, conjuncts_[e]), " over ",
                           db.DataSetToString(data_sets_[e])));
  }
  return StrJoin(parts, "; ");
}

}  // namespace nse
