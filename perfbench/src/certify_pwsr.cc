// certify_pwsr: the paper's decision end to end. Predicatewise 2PL
// schedules partitioned scripts on the deterministic tick simulator, and
// one AnalysisContext over the committed trace then decides CSR, PWSR,
// delayed-read, DAG(S, IC) and which theorem certifies the execution.
//
// Arrivals are spread 16 ticks per transaction: with every arrival on
// tick 0 the simulator spends the run in deadlock aborts (a cliff kept out
// of this workload, see README.md).

#include <algorithm>
#include <optional>

#include "analysis/analysis_context.h"
#include "analysis/theorems.h"
#include "common/logging.h"
#include "checks.h"
#include "common/string_util.h"
#include "history/trace_export.h"
#include "observer.h"
#include "scheduler/pw_two_phase_locking.h"
#include "scheduler/sim.h"
#include "scheduler/workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kArrivalTicksPerTxn = 16;

nse::PartitionedWorkloadConfig CertifyConfig(const RunOptions& options) {
  nse::PartitionedWorkloadConfig cfg;
  cfg.num_partitions = 48;
  cfg.items_per_partition = 2;
  cfg.num_txns = options.tiny ? 200 : 1500;
  cfg.partitions_per_txn = 3;
  cfg.cross_read_probability = 0.2;
  cfg.hotspot_probability = 0.2;
  cfg.arrival_spread = kArrivalTicksPerTxn * cfg.num_txns;
  cfg.seed = options.seed;
  return cfg;
}

/// FNV-1a over the committed trace's (txn, action, item) sequence.
uint64_t TraceHash(const nse::Schedule& schedule) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const nse::Operation& op : schedule.ops()) {
    mix(op.txn);
    mix(static_cast<uint64_t>(op.action));
    mix(op.entity);
  }
  return h;
}

double Ms(uint64_t from, uint64_t to) {
  return static_cast<double>(to - from) * 1e-6;
}

}  // namespace

Report RunCertifyPwsr(const RunOptions& options) {
  Report report;
  report.unit = "txn";
  report.rate_name = "certified_txn_per_s";
  const nse::PartitionedWorkloadConfig cfg = CertifyConfig(options);
  nse::Workload workload = TimedSetup<nse::Workload>(report, [&] {
    nse::Result<nse::Workload> made = nse::MakePartitionedWorkload(cfg);
    NSE_CHECK_MSG(made.ok(), "%s", made.status().ToString().c_str());
    return std::move(made).value();
  });
  const size_t n = workload.scripts.size();
  const std::vector<const nse::TransactionProgram*> programs =
      workload.ProgramPtrs();
  report.facts["scripts"] = nse::StrCat(n);

  RunPasses(options, report, [&](Report& out, bool traced, uint64_t index) {
    nse::PredicatewiseTwoPhaseLocking policy(&*workload.ic);
    std::optional<ObservedPolicy> observer;
    if (traced) observer.emplace(policy, n);
    nse::SchedulerPolicy& driven =
        traced ? static_cast<nse::SchedulerPolicy&>(*observer) : policy;

    const uint64_t start = NowNs();
    nse::Result<nse::SimResult> sim =
        nse::RunSimulation(driven, workload.scripts);
    const uint64_t sim_end = NowNs();
    out.attempted += n;
    if (!sim.ok()) {
      out.failed += n;
      out.errors.push_back(sim.status().ToString());
      return;
    }
    nse::AnalysisOptions analysis_options;
    analysis_options.programs = &programs;
    nse::AnalysisContext ctx(workload.db, *workload.ic, sim->schedule,
                             analysis_options);
    const bool csr = ctx.csr_report().serializable;
    const uint64_t csr_end = NowNs();
    const bool pwsr = ctx.pwsr_report().is_pwsr;
    const uint64_t pwsr_end = NowNs();
    const bool dr = ctx.delayed_read();
    const uint64_t dr_end = NowNs();
    const bool dag_acyclic = ctx.access_graph().IsAcyclic();
    const uint64_t dag_end = NowNs();
    const nse::TheoremCertificate cert = nse::Certify(ctx);
    const uint64_t end = NowNs();
    const double wall_s = static_cast<double>(end - start) * 1e-9;

    // Facts must read the same in every pass, traced or not: the
    // simulator is deterministic and the observer only watches.
    out.facts["trace_hash"] = nse::StrCat(TraceHash(sim->schedule));
    out.facts["csr"] = csr ? "true" : "false";
    out.facts["dr"] = dr ? "true" : "false";
    out.facts["dag_acyclic"] = dag_acyclic ? "true" : "false";
    out.Gate(sim->completed == n,
             nse::StrCat("pass ", index, ": committed ", sim->completed,
                         " of ", n, " scripts"));
    out.Gate(csr == StreamingCsr(nse::HistoryFromSim(workload.db, *sim)),
             nse::StrCat("pass ", index,
                         ": CSR verdict disagrees with the streaming "
                         "checker"));
    out.Gate(pwsr, nse::StrCat("pass ", index, ": trace is not PWSR"));
    out.Gate(cert.theorem1_applies,
             nse::StrCat("pass ", index, ": Theorem 1 does not apply"));
    if (!traced) {
      out.untraced_wall_s.push_back(wall_s);
      out.rates.push_back(static_cast<double>(sim->completed) / wall_s);
      return;
    }
    out.traced_wall_s.push_back(wall_s);
    for (const std::string& miss : observer->Reconcile(*sim)) {
      out.Gate(false, nse::StrCat("pass ", index, ": ", miss));
    }
    LayerSample sample;
    for (const auto& [name, value] : observer->Sample(1, start, sim_end)) {
      if (name.rfind("scheduler.", 0) == 0) sample[name] = value;
    }
    const uint64_t ticks = std::max<uint64_t>(sim->makespan, 1);
    sample["sim.run_ms"] = Ms(start, sim_end);
    sample["sim.ns_per_tick"] =
        static_cast<double>(sim_end - start) / static_cast<double>(ticks);
    sample["sim.ticks"] = static_cast<double>(sim->makespan);
    sample["sim.rollbacks"] =
        static_cast<double>(sim->aborts + sim->restarts + sim->wounds);
    sample["sim.wait_ticks"] = static_cast<double>(sim->total_wait_ticks);
    sample["analysis.csr_ms"] = Ms(sim_end, csr_end);
    sample["analysis.pwsr_ms"] = Ms(csr_end, pwsr_end);
    sample["analysis.dr_ms"] = Ms(pwsr_end, dr_end);
    sample["analysis.dag_ms"] = Ms(dr_end, dag_end);
    sample["analysis.certify_ms"] = Ms(dag_end, end);
    sample["analysis.conflict_edges"] =
        static_cast<double>(ctx.conflict_graph().num_edges());
    sample["analysis.share"] = static_cast<double>(end - sim_end) /
                               static_cast<double>(end - start);
    out.layer_samples.push_back(std::move(sample));

    const uint64_t pass_span = out.spans.Add("pass", 0, index, start, end);
    const uint64_t sim_span =
        out.spans.Add("sim.run", pass_span, index, start, sim_end);
    observer->AppendSpans(out.spans, sim_span);
    out.spans.Add("analysis.csr", pass_span, index, sim_end, csr_end);
    out.spans.Add("analysis.pwsr", pass_span, index, csr_end, pwsr_end);
    out.spans.Add("analysis.dr", pass_span, index, pwsr_end, dr_end);
    out.spans.Add("analysis.dag", pass_span, index, dr_end, dag_end);
    out.spans.Add("analysis.certify", pass_span, index, dag_end, end);
  });
  return report;
}

}  // namespace perfbench
