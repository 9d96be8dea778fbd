#include "scheduler/metrics.h"

#include <algorithm>
#include <cstdio>

#include "analysis/analysis_context.h"
#include "common/string_util.h"
#include "scheduler/sim.h"

namespace nse {

TraceClassification ClassifyTrace(AnalysisContext& ctx) {
  TraceClassification out;
  // The context's cyclic conflict graphs carry their first cycle (replayed
  // up to it after the batch build), so a non-CSR verdict arrives with the
  // cycle-closing edge's trace position already recorded — no extra DFS
  // here.
  const CsrReport& csr = ctx.csr_report();
  out.csr = csr.serializable;
  if (!out.csr) out.csr_cycle_op_pos = csr.cycle_op_pos;
  if (ctx.has_ic()) out.pwsr = ctx.pwsr_report().is_pwsr;
  out.delayed_read = ctx.delayed_read();
  out.strict = ctx.strict();
  return out;
}

std::string TraceClassification::ToString() const {
  auto yn = [](bool b) { return b ? "yes" : "no"; };
  std::string out =
      StrCat("CSR ", yn(csr), ", PWSR ",
             pwsr.has_value() ? yn(*pwsr) : "n/a", ", DR ",
             yn(delayed_read), ", strict ", yn(strict));
  if (csr_cycle_op_pos.has_value()) {
    out += StrCat(", cycle closed at op ", *csr_cycle_op_pos);
  }
  return out;
}

std::string SimSummary(const SimResult& result) {
  std::string out =
      StrCat("makespan ", result.makespan, ", completed ", result.completed,
             ", aborts ", result.aborts, ", restarts ", result.restarts,
             ", wounds ", result.wounds, ", vetoes ", result.vetoes,
             ", wait_ticks ", result.total_wait_ticks, ", throughput ",
             FormatDouble(result.throughput, 3));
  if (result.skipped_ops > 0) {
    out += StrCat(", skipped ", result.skipped_ops);
  }
  if (result.fault_aborts > 0) {
    out += StrCat(", fault_aborts ", result.fault_aborts);
  }
  if (result.crashes > 0) out += StrCat(", crashes ", result.crashes);
  if (result.shed > 0) out += StrCat(", shed ", result.shed);
  if (result.boosts > 0) out += StrCat(", boosts ", result.boosts);
  if (result.backoff_ticks > 0) {
    out += StrCat(", backoff_ticks ", result.backoff_ticks);
  }
  if (result.max_txn_restarts > 0) {
    out += StrCat(", max_txn_restarts ", result.max_txn_restarts);
  }
  return out;
}

void SeriesSummary::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  sum_ += x;
  ++count_;
}

double SeriesSummary::mean() const {
  return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Render() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      line += cell;
      line.append(widths[c] - cell.size() + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    line += '\n';
    return line;
  };
  std::string out = render_row(headers_);
  std::string rule;
  for (size_t c = 0; c < widths.size(); ++c) {
    rule.append(widths[c], '-');
    rule.append(2, ' ');
  }
  while (!rule.empty() && rule.back() == ' ') rule.pop_back();
  out += rule + '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

std::string FormatDouble(double x, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, x);
  return buf;
}

}  // namespace nse
