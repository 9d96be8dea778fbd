#include "analysis/analysis_context.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace nse {

namespace {

/// The conflict graph of every conjunct projection S^{d_e}, in one walk
/// over S. Conflicts are same-item, so the graph of S^{d_e} is the sweep of
/// S restricted to the items of d_e: each access feeds one ConflictBitSweep
/// per conjunct holding its item (IntegrityConstraint::SlotsOf), in that
/// conjunct's local txn indices, and every emitted edge goes into that
/// conjunct's emission log at its full-schedule position. No projected
/// schedule is materialized, and an item shared by overlapping conjuncts
/// feeds each of them. Each graph is then filled from its log
/// (ConflictGraph::FromLog); only a cyclic one replays the log to record
/// its first cycle.
std::vector<ConflictGraph> BuildConjunctGraphs(const Schedule& schedule,
                                               const IntegrityConstraint& ic) {
  const size_t num_conjuncts = ic.num_conjuncts();
  const std::vector<TxnId>& txn_ids = schedule.txn_ids();
  const OpSequence& ops = schedule.ops();
  auto index_of = [&txn_ids](TxnId txn) {
    return static_cast<uint32_t>(
        std::lower_bound(txn_ids.begin(), txn_ids.end(), txn) -
        txn_ids.begin());
  };

  // Pre-pass: the nodes of S^{d_e} are the txns with an operation on d_e,
  // numbered in ascending id order; local[e * n + idx] maps txn index idx
  // to that number.
  const size_t n = txn_ids.size();
  constexpr uint32_t kAbsent = UINT32_MAX;
  std::vector<uint32_t> local(num_conjuncts * n, kAbsent);
  for (const Operation& op : ops) {
    const std::vector<IntegrityConstraint::ConjunctSlot>& slots =
        ic.SlotsOf(op.entity);
    if (slots.empty()) continue;
    const uint32_t idx = index_of(op.txn);
    for (const IntegrityConstraint::ConjunctSlot& at : slots) {
      local[at.conjunct * n + idx] = 0;
    }
  }
  std::vector<std::vector<TxnId>> nodes(num_conjuncts);
  std::vector<internal::ConflictBitSweep> sweeps;
  std::vector<internal::EmissionLog> logs(num_conjuncts);
  sweeps.reserve(num_conjuncts);
  for (size_t e = 0; e < num_conjuncts; ++e) {
    for (size_t idx = 0; idx < n; ++idx) {
      uint32_t& local_idx = local[e * n + idx];
      if (local_idx == kAbsent) continue;
      local_idx = static_cast<uint32_t>(nodes[e].size());
      nodes[e].push_back(txn_ids[idx]);
    }
    sweeps.emplace_back(static_cast<uint32_t>(nodes[e].size()));
  }

  for (size_t pos = 0; pos < ops.size(); ++pos) {
    const Operation& op = ops[pos];
    const std::vector<IntegrityConstraint::ConjunctSlot>& slots =
        ic.SlotsOf(op.entity);
    if (slots.empty()) continue;
    const uint32_t idx = index_of(op.txn);
    for (const IntegrityConstraint::ConjunctSlot& at : slots) {
      const uint32_t to = local[at.conjunct * n + idx];
      internal::EmissionLog& log = logs[at.conjunct];
      sweeps[at.conjunct].Access(
          to, op.is_write(), at.slot,
          [&log, to, pos](uint32_t from) { log.Append(from, to, pos); });
    }
  }
  sweeps.clear();  // frees the emitted bitsets before the adjacency fills

  std::vector<ConflictGraph> graphs;
  graphs.reserve(num_conjuncts);
  for (size_t e = 0; e < num_conjuncts; ++e) {
    graphs.push_back(ConflictGraph::FromLog(std::move(nodes[e]), logs[e]));
    logs[e] = internal::EmissionLog();
  }
  return graphs;
}

}  // namespace

AnalysisContext::AnalysisContext(const Database* db,
                                 const IntegrityConstraint* ic,
                                 const Schedule* schedule,
                                 AnalysisOptions options)
    : db_(db), ic_(ic), schedule_(schedule), options_(options) {
  if (ic_ != nullptr) projections_.resize(ic_->num_conjuncts());
}

AnalysisContext::AnalysisContext(const Database& db,
                                 const IntegrityConstraint& ic,
                                 const Schedule& schedule,
                                 AnalysisOptions options)
    : AnalysisContext(&db, &ic, &schedule, options) {}

AnalysisContext::AnalysisContext(const Database& db,
                                 const IntegrityConstraint& ic,
                                 Schedule&& schedule_owned,
                                 AnalysisOptions options)
    : AnalysisContext(&db, &ic, nullptr, options) {
  owned_schedule_ = std::move(schedule_owned);
  schedule_ = &*owned_schedule_;
}

AnalysisContext::AnalysisContext(const IntegrityConstraint& ic,
                                 const Schedule& schedule,
                                 AnalysisOptions options)
    : AnalysisContext(nullptr, &ic, &schedule, options) {}

AnalysisContext::AnalysisContext(const Schedule& schedule,
                                 AnalysisOptions options)
    : AnalysisContext(nullptr, nullptr, &schedule, options) {}

const Database& AnalysisContext::db() const {
  NSE_CHECK_MSG(db_ != nullptr, "analysis context has no database");
  return *db_;
}

const IntegrityConstraint& AnalysisContext::ic() const {
  NSE_CHECK_MSG(ic_ != nullptr, "analysis context has no integrity constraint");
  return *ic_;
}

const ConflictGraph& AnalysisContext::conflict_graph() {
  if (!conflict_graph_.has_value()) {
    conflict_graph_ = ConflictGraph::Build(*schedule_);
    ++stats_.conflict_graph_builds;
  }
  return *conflict_graph_;
}

const std::vector<ReadsFromEdge>& AnalysisContext::reads_from() {
  if (!reads_from_.has_value()) {
    reads_from_ = ReadsFromPairs(*schedule_);
    ++stats_.reads_from_builds;
  }
  return *reads_from_;
}

const ScheduleProjection& AnalysisContext::projection(size_t e) {
  NSE_CHECK_MSG(e < projections_.size(), "conjunct index %zu out of range %zu",
                e, projections_.size());
  if (!projections_[e].has_value()) {
    projections_[e] = schedule_->ProjectWithPositions(ic().data_set(e));
    ++stats_.projection_builds;
  }
  return *projections_[e];
}

const ConflictGraph& AnalysisContext::projection_graph(size_t e) {
  NSE_CHECK_MSG(e < projections_.size(), "conjunct index %zu out of range %zu",
                e, projections_.size());
  if (!projection_graphs_.has_value()) {
    projection_graphs_ = BuildConjunctGraphs(*schedule_, ic());
    stats_.projection_graph_builds += projection_graphs_->size();
  }
  return (*projection_graphs_)[e];
}

const DataAccessGraph& AnalysisContext::access_graph() {
  if (!access_graph_.has_value()) {
    access_graph_ = DataAccessGraph::Build(*schedule_, ic());
    ++stats_.access_graph_builds;
  }
  return *access_graph_;
}

const ConsistencyChecker& AnalysisContext::consistency_checker() {
  if (!solver_.has_value()) {
    solver_.emplace(db(), ic(), options_.solver_cache);
    ++stats_.solver_builds;
  }
  return *solver_;
}

const CsrReport& AnalysisContext::csr_report() {
  if (!csr_.has_value()) {
    csr_ = CsrReportFromGraph(conflict_graph());
    ++stats_.csr_builds;
  }
  return *csr_;
}

const PwsrReport& AnalysisContext::pwsr_report() {
  if (!pwsr_.has_value()) {
    PwsrReport report;
    report.conjuncts_disjoint = ic().disjoint();
    report.is_pwsr = true;
    for (size_t e = 0; e < ic().num_conjuncts(); ++e) {
      ConjunctSerializability entry;
      entry.conjunct = e;
      entry.csr = CsrReportFromGraph(projection_graph(e));
      if (!entry.csr.serializable) report.is_pwsr = false;
      report.per_conjunct.push_back(std::move(entry));
    }
    pwsr_ = std::move(report);
    ++stats_.pwsr_builds;
  }
  return *pwsr_;
}

const std::optional<DrViolation>& AnalysisContext::dr_violation() {
  if (!dr_violation_.has_value()) {
    std::optional<DrViolation> violation;
    for (const ReadsFromEdge& edge : reads_from()) {
      TxnId writer = schedule_->at(edge.writer_pos).txn;
      TxnId reader = schedule_->at(edge.reader_pos).txn;
      if (writer == reader) continue;  // cannot occur under the access rules
      if (!schedule_->CompletedBy(writer, edge.reader_pos)) {
        violation = DrViolation{edge.reader_pos, edge.writer_pos, writer};
        break;
      }
    }
    dr_violation_ = std::move(violation);
    ++stats_.dr_builds;
  }
  return *dr_violation_;
}

const std::optional<DrViolation>& AnalysisContext::strict_violation() {
  if (!strict_violation_.has_value()) {
    strict_violation_ = FindStrictViolation(*schedule_);
    ++stats_.strict_builds;
  }
  return *strict_violation_;
}

const Result<StrongCorrectnessReport>& AnalysisContext::strong_correctness() {
  if (!strong_.has_value()) {
    strong_ = CheckScheduleOverInitialStates(consistency_checker(), *schedule_,
                                             options_.initial_state_limit);
    ++stats_.strong_correctness_builds;
  }
  return *strong_;
}

}  // namespace nse
