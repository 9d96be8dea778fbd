// The policy zoo on contended workloads: strict/priority 2PL vs the
// optimistic schedulers. The optimistic bet is that most conflicts order
// cleanly and only genuine would-be cycles cost anything, so on hot-spot
// workloads SGT should beat strict 2PL's makespan/throughput while paying
// in restarts instead of lock waits; timestamp ordering pays the same
// currency without ever blocking; wound-wait keeps 2PL's locks but trades
// deadlock detection for priority wounds; victim-choice SGT spends the
// fewest rollback operations of the SGT family. Every CSR-promising trace
// is differentially checked against the independent CSR checker, and every
// row carries the abort/restart/wound/veto economics next to the wait
// ticks.
//
// Simulated time (makespan, throughput = completed / makespan) is fully
// deterministic per seed, so the throughput ratio SGT/2PL is a stable
// regression-guard field ("speedup"), and the outcome counters of every
// policy (completed, aborts, restarts, wounds, vetoes) are guarded
// exactly. Wall-clock columns are informational only. --smoke runs tiny
// configurations (differential asserts, no JSON); the full run writes
// BENCH_sgt.json (override the path with the last argument).

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/serializability.h"
#include "bench_report.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "scheduler/fault_injection.h"
#include "scheduler/metrics.h"
#include "scheduler/priority_locking.h"
#include "scheduler/pw_two_phase_locking.h"
#include "scheduler/sgt_policy.h"
#include "scheduler/sgt_victim_policy.h"
#include "scheduler/sim.h"
#include "scheduler/timestamp_ordering.h"
#include "scheduler/two_phase_locking.h"
#include "scheduler/workload.h"

namespace nse {
namespace {

struct BenchCase {
  std::string name;
  PartitionedWorkloadConfig config;
  bool contended = false;  // rows where SGT is expected to beat 2PL
};

struct PolicyOutcome {
  SimResult result;
  double wall_ms = 0;
};

PolicyOutcome RunPolicy(SchedulerPolicy& policy, const Workload& workload) {
  const auto start = std::chrono::steady_clock::now();
  auto result = RunSimulation(policy, workload.scripts);
  const double wall_ms = bench::MsSince(start);
  NSE_CHECK_MSG(result.ok(), "simulation failed under %s: %s",
                policy.name().c_str(), result.status().ToString().c_str());
  NSE_CHECK_MSG(result->completed == workload.scripts.size(),
                "%s completed %llu of %zu txns", policy.name().c_str(),
                static_cast<unsigned long long>(result->completed),
                workload.scripts.size());
  PolicyOutcome outcome;
  outcome.result = std::move(result).value();
  outcome.wall_ms = wall_ms;
  return outcome;
}

/// A policy run under an injected fault plan: the run may legitimately
/// lose transactions to crashes or admission shedding, so the forward-
/// progress ledger (completed + crashes + shed == population) replaces the
/// everything-commits check, and the committed trace must still pass the
/// independent CSR checker.
PolicyOutcome RunPolicyFaulted(SchedulerPolicy& policy,
                               const Workload& workload,
                               const EngineConfig& sim_config) {
  const auto start = std::chrono::steady_clock::now();
  auto result = RunSimulation(policy, workload.scripts, sim_config);
  const double wall_ms = bench::MsSince(start);
  NSE_CHECK_MSG(result.ok(), "faulted simulation failed under %s: %s",
                policy.name().c_str(), result.status().ToString().c_str());
  NSE_CHECK_MSG(
      result->completed + result->crashes + result->shed ==
          workload.scripts.size(),
      "%s forward-progress ledger broke: %llu completed + %llu crashed + "
      "%llu shed != %zu txns",
      policy.name().c_str(),
      static_cast<unsigned long long>(result->completed),
      static_cast<unsigned long long>(result->crashes),
      static_cast<unsigned long long>(result->shed),
      workload.scripts.size());
  NSE_CHECK_MSG(IsConflictSerializable(result->schedule),
                "%s emitted a non-CSR trace under faults",
                policy.name().c_str());
  PolicyOutcome outcome;
  outcome.result = std::move(result).value();
  outcome.wall_ms = wall_ms;
  return outcome;
}

struct Row {
  std::string workload;
  size_t txns = 0;
  bool contended = false;
  PolicyOutcome strict_2pl;
  PolicyOutcome pw_2pl;
  PolicyOutcome wound_wait;
  PolicyOutcome to;
  PolicyOutcome sgt;
  PolicyOutcome sgt_victim;
  PolicyOutcome sgt_victim_pred;  // predictive victim-cost scoring
  double speedup = 0;  // SGT throughput / strict-2PL throughput
};

}  // namespace
}  // namespace nse

int main(int argc, char** argv) {
  using namespace nse;
  const bench::BenchArgs args =
      bench::ParseBenchArgs(argc, argv, "BENCH_sgt.json");
  const bool smoke = args.smoke;

  auto make_case = [&](std::string name, size_t txns, size_t partitions,
                       size_t per_txn, double hotspot, uint64_t seed,
                       bool contended) {
    BenchCase c;
    c.name = std::move(name);
    c.config.num_partitions = partitions;
    c.config.items_per_partition = 2;
    c.config.num_txns = smoke ? std::min<size_t>(txns, 8) : txns;
    c.config.partitions_per_txn = per_txn;
    c.config.cross_read_probability = 0.3;
    c.config.hotspot_probability = hotspot;
    c.config.seed = seed;
    c.contended = contended;
    return c;
  };

  // Sweep the contention axis. Even the "uniform" row is moderately
  // contended (32 txns x 2 partitions over 16 partitions — ~4 txns share
  // each partition), so SGT wins everywhere; the hot-spot rows crank the
  // sharing further. Only the hot rows feed the beats-2PL acceptance
  // check, since they are the regime the ISSUE names.
  // The two hotspot_100 rows are the extreme-hotspot regime the predictive
  // victim rule targets: with every access on the hot partition, the
  // sunk-cost rule's cheapest participant is usually whichever transaction
  // it knocked down last round (a fresh restart has zero sunk work).
  std::vector<BenchCase> cases = {
      make_case("uniform", 32, 16, 2, 0.0, 7, /*contended=*/false),
      make_case("hotspot_50", 32, 16, 2, 0.5, 7, /*contended=*/true),
      make_case("hotspot_90", 32, 16, 2, 0.9, 7, /*contended=*/true),
      make_case("hotspot_long_txns", 16, 12, 4, 0.8, 11, /*contended=*/true),
      make_case("hotspot_100", 32, 16, 2, 1.0, 7, /*contended=*/true),
      make_case("hotspot_100_long_txns", 16, 12, 4, 1.0, 11,
                /*contended=*/true),
  };

  TablePrinter table({"workload", "txns", "policy", "makespan", "waits",
                      "aborts", "restarts", "wounds", "vetoes",
                      "throughput"});
  std::vector<Row> rows;
  bool sgt_beat_2pl_when_contended = false;

  for (const BenchCase& c : cases) {
    auto workload = MakePartitionedWorkload(c.config);
    NSE_CHECK_MSG(workload.ok(), "workload generation failed: %s",
                  workload.status().ToString().c_str());

    Row row;
    row.workload = c.name;
    row.txns = workload->scripts.size();
    row.contended = c.contended;
    {
      StrictTwoPhaseLocking policy;
      row.strict_2pl = RunPolicy(policy, *workload);
    }
    {
      PredicatewiseTwoPhaseLocking policy(&*workload->ic);
      row.pw_2pl = RunPolicy(policy, *workload);
    }
    {
      WoundWaitPolicy policy(workload->scripts.size());
      row.wound_wait = RunPolicy(policy, *workload);
      // Deadlock-free by construction: priority waits cannot cycle, so
      // the victim machinery must never have fired.
      NSE_CHECK_MSG(row.wound_wait.result.aborts == 0,
                    "wound-wait hit a deadlock on %s", c.name.c_str());
      NSE_CHECK_MSG(IsConflictSerializable(row.wound_wait.result.schedule),
                    "wound-wait emitted a non-CSR trace on %s",
                    c.name.c_str());
    }
    {
      TimestampOrderingPolicy policy(workload->scripts.size());
      row.to = RunPolicy(policy, *workload);
      // TO never blocks: its entire cost is rejections-turned-restarts.
      NSE_CHECK_MSG(row.to.result.total_wait_ticks == 0,
                    "TO waited on %s", c.name.c_str());
      NSE_CHECK_MSG(row.to.result.aborts == 0, "TO deadlocked on %s",
                    c.name.c_str());
      NSE_CHECK_MSG(IsConflictSerializable(row.to.result.schedule),
                    "TO emitted a non-CSR trace on %s", c.name.c_str());
    }
    {
      SgtPolicy policy(workload->scripts.size());
      row.sgt = RunPolicy(policy, *workload);
      // Differential contract: the committed SGT trace must pass the
      // independent CSR checker, and the policy's live graph must be the
      // committed trace's conflict graph (no residual edges).
      NSE_CHECK_MSG(IsConflictSerializable(row.sgt.result.schedule),
                    "SGT emitted a non-CSR trace on %s", c.name.c_str());
      NSE_CHECK_MSG(
          policy.graph().Edges() ==
              ConflictGraph::Build(row.sgt.result.schedule).Edges(),
          "SGT left residual graph edges on %s", c.name.c_str());
    }
    {
      SgtVictimPolicy policy(workload->scripts.size());
      row.sgt_victim = RunPolicy(policy, *workload);
      NSE_CHECK_MSG(IsConflictSerializable(row.sgt_victim.result.schedule),
                    "SGT-victim emitted a non-CSR trace on %s",
                    c.name.c_str());
      NSE_CHECK_MSG(
          policy.graph().Edges() ==
              ConflictGraph::Build(row.sgt_victim.result.schedule).Edges(),
          "SGT-victim left residual graph edges on %s", c.name.c_str());
    }
    {
      SgtPolicy::Options options;
      options.victim_cost = SgtPolicy::Options::VictimCost::kPredictive;
      SgtVictimPolicy policy(workload->scripts.size(), options);
      row.sgt_victim_pred = RunPolicy(policy, *workload);
      NSE_CHECK_MSG(
          IsConflictSerializable(row.sgt_victim_pred.result.schedule),
          "predictive SGT-victim emitted a non-CSR trace on %s",
          c.name.c_str());
      NSE_CHECK_MSG(
          policy.graph().Edges() ==
              ConflictGraph::Build(row.sgt_victim_pred.result.schedule)
                  .Edges(),
          "predictive SGT-victim left residual graph edges on %s",
          c.name.c_str());
    }
    row.speedup = row.strict_2pl.result.throughput == 0
                      ? 0
                      : row.sgt.result.throughput /
                            row.strict_2pl.result.throughput;
    if (c.contended && row.speedup > 1.0) sgt_beat_2pl_when_contended = true;
    rows.push_back(row);

    auto add = [&](const char* policy, const PolicyOutcome& o) {
      table.AddRow({row.workload, StrCat(row.txns), policy,
                    StrCat(o.result.makespan),
                    StrCat(o.result.total_wait_ticks),
                    StrCat(o.result.aborts), StrCat(o.result.restarts),
                    StrCat(o.result.wounds), StrCat(o.result.vetoes),
                    FormatDouble(o.result.throughput, 3)});
    };
    add("strict-2pl", row.strict_2pl);
    add("pw-2pl", row.pw_2pl);
    add("wound-wait", row.wound_wait);
    add("to", row.to);
    add("sgt", row.sgt);
    add("sgt-victim", row.sgt_victim);
    add("sgt-victim-pred", row.sgt_victim_pred);
  }

  std::cout << "\n=== Policy zoo (lock-based, priority, optimistic) on the "
               "contention sweep ===\n"
            << table.Render()
            << "(makespan/throughput are simulated ticks — deterministic "
               "per seed; the optimistic rows pay restarts/wounds+vetoes "
               "instead of lock waits)\n";

  NSE_CHECK_MSG(sgt_beat_2pl_when_contended,
                "SGT did not beat strict 2PL throughput on any contended "
                "workload — the optimistic bet regressed");

  // Victim-choice economics, reported for the record: the cross-run
  // rollback comparison is an aggregate property of the *randomized*
  // differential-harness distribution (where PolicyInvariantFuzz pins it
  // with prefix dominance); on these four curated hot-spot rows it can go
  // either way per row, so here the per-row counters are exact-guarded in
  // the JSON instead of inequality-asserted.
  uint64_t victim_rollbacks = 0, sgt_rollbacks = 0, pred_rollbacks = 0;
  for (const Row& row : rows) {
    victim_rollbacks += row.sgt_victim.result.restarts +
                        row.sgt_victim.result.wounds +
                        row.sgt_victim.result.aborts;
    pred_rollbacks += row.sgt_victim_pred.result.restarts +
                      row.sgt_victim_pred.result.wounds +
                      row.sgt_victim_pred.result.aborts;
    sgt_rollbacks += row.sgt.result.restarts + row.sgt.result.aborts;
  }
  std::cout << "sgt-victim rollbacks " << victim_rollbacks
            << " (predictive " << pred_rollbacks << ") vs baseline sgt "
            << sgt_rollbacks << " across the sweep\n";

  // === Fault-injection rows: the same engine under injected adversity ===
  // An abort-rate x backoff sweep plus a crash/latency row and an
  // admission-gate row, on the hotspot_90 workload under the pessimistic
  // (strict 2PL), non-blocking (TO) and optimistic (SGT) corners of the
  // zoo. Every counter is a pure function of the seeds, so the JSON guards
  // them exactly: a drift means the fault / backoff / admission machinery
  // changed behavior, not that the hardware was slow.
  struct FaultBench {
    std::string name;
    FaultPlanConfig faults;
    RestartPolicy restart;
  };
  auto abort_plan = [](uint64_t seed, double p) {
    FaultPlanConfig fc;
    fc.seed = seed;
    fc.client_abort_probability = p;
    return fc;
  };
  RestartPolicy expo;
  expo.backoff = RestartPolicy::Backoff::kExponential;
  expo.base = 2;
  expo.cap = 64;
  expo.jitter = 3;
  expo.jitter_seed = 29;
  std::vector<FaultBench> fault_cases = {
      {"faults_abort30_linear", abort_plan(101, 0.3), RestartPolicy{}},
      {"faults_abort70_linear", abort_plan(102, 0.7), RestartPolicy{}},
      {"faults_abort30_expo", abort_plan(103, 0.3), expo},
      {"faults_abort70_expo", abort_plan(104, 0.7), expo},
  };
  {
    FaultPlanConfig fc;
    fc.seed = 105;
    fc.crash_probability = 0.25;
    fc.latency_spike_probability = 0.3;
    fc.max_latency_spike_ticks = 6;
    fc.max_arrival_delay = 4;
    fault_cases.push_back({"faults_crash_latency", fc, RestartPolicy{}});
  }
  {
    RestartPolicy gate = expo;
    gate.max_restarts_before_boost = 8;
    gate.max_live_txns = 4;
    gate.overflow = RestartPolicy::Overflow::kQueue;
    fault_cases.push_back({"faults_admission_q4", abort_plan(106, 0.4), gate});
  }

  struct FaultRow {
    std::string name;
    size_t txns = 0;
    PolicyOutcome strict_2pl;
    PolicyOutcome to;
    PolicyOutcome sgt;
  };
  std::vector<FaultRow> fault_rows;
  TablePrinter fault_table({"workload", "policy", "completed", "crashes",
                            "fault_aborts", "boosts", "shed",
                            "backoff_ticks", "max_restarts", "makespan"});
  BenchCase fault_case =
      make_case("hotspot_90", 32, 16, 2, 0.9, 7, /*contended=*/true);
  auto fault_workload = MakePartitionedWorkload(fault_case.config);
  NSE_CHECK_MSG(fault_workload.ok(), "fault workload generation failed: %s",
                fault_workload.status().ToString().c_str());
  for (const FaultBench& fb : fault_cases) {
    FaultPlan plan(fb.faults);
    EngineConfig sim_config;
    sim_config.faults = &plan;
    sim_config.restart = fb.restart;

    FaultRow frow;
    frow.name = fb.name;
    frow.txns = fault_workload->scripts.size();
    {
      StrictTwoPhaseLocking policy;
      frow.strict_2pl = RunPolicyFaulted(policy, *fault_workload, sim_config);
      NSE_CHECK_MSG(policy.held_locks() == 0,
                    "strict 2PL left residual locks on %s", fb.name.c_str());
    }
    {
      TimestampOrderingPolicy policy(fault_workload->scripts.size());
      frow.to = RunPolicyFaulted(policy, *fault_workload, sim_config);
      NSE_CHECK_MSG(policy.active_stamp_entries() == 0,
                    "TO left residual stamp entries on %s", fb.name.c_str());
    }
    {
      SgtPolicy policy(fault_workload->scripts.size());
      frow.sgt = RunPolicyFaulted(policy, *fault_workload, sim_config);
      NSE_CHECK_MSG(policy.graph().Edges() ==
                        ConflictGraph::Build(frow.sgt.result.schedule).Edges(),
                    "SGT left residual graph edges on %s", fb.name.c_str());
    }
    auto add_fault = [&](const char* policy, const PolicyOutcome& o) {
      fault_table.AddRow(
          {frow.name, policy, StrCat(o.result.completed),
           StrCat(o.result.crashes), StrCat(o.result.fault_aborts),
           StrCat(o.result.boosts), StrCat(o.result.shed),
           StrCat(o.result.backoff_ticks), StrCat(o.result.max_txn_restarts),
           StrCat(o.result.makespan)});
    };
    add_fault("strict-2pl", frow.strict_2pl);
    add_fault("to", frow.to);
    add_fault("sgt", frow.sgt);
    fault_rows.push_back(frow);
  }
  std::cout << "\n=== Fault injection (client aborts / crashes / latency / "
               "admission) on hotspot_90 ===\n"
            << fault_table.Render()
            << "(every counter is deterministic per seed; crashed and shed "
               "transactions never commit, everything else must)\n";

  if (smoke) {
    std::cout << "smoke mode: CSR differential + residual-edge + "
                 "no-deadlock + no-wait checks passed, no baseline "
                 "written\n";
    return 0;
  }

  bench::BenchReport report("sgt");
  for (const Row& row : rows) {
    const SimResult& r2pl = row.strict_2pl.result;
    const SimResult& rpw = row.pw_2pl.result;
    const SimResult& rww = row.wound_wait.result;
    const SimResult& rto = row.to.result;
    const SimResult& rsgt = row.sgt.result;
    const SimResult& rvic = row.sgt_victim.result;
    const SimResult& rpred = row.sgt_victim_pred.result;
    auto tput = [](const SimResult& r) {
      return bench::JsonValue(r.throughput, 4);
    };
    report.AddRow()
        .Key("workload", row.workload)
        .Key("txns", row.txns)
        .Ratio("speedup", row.speedup)
        .Exact("completed", rsgt.completed)
        .Exact("aborts", rsgt.aborts)
        .Exact("restarts", rsgt.restarts)
        .Exact("vetoes", rsgt.vetoes)
        .Exact("restarts_to", rto.restarts)
        .Exact("aborts_ww", rww.aborts)
        .Exact("wounds_ww", rww.wounds)
        .Exact("restarts_victim", rvic.restarts)
        .Exact("wounds_victim", rvic.wounds)
        .Exact("aborts_victim", rvic.aborts)
        .Exact("restarts_victim_pred", rpred.restarts)
        .Exact("wounds_victim_pred", rpred.wounds)
        .Exact("aborts_victim_pred", rpred.aborts)
        .Info("makespan_2pl", r2pl.makespan)
        .Info("makespan_pw2pl", rpw.makespan)
        .Info("makespan_sgt", rsgt.makespan)
        .Info("makespan_ww", rww.makespan)
        .Info("makespan_to", rto.makespan)
        .Info("makespan_victim", rvic.makespan)
        .Info("makespan_victim_pred", rpred.makespan)
        .Info("wait_ticks_2pl", r2pl.total_wait_ticks)
        .Info("wait_ticks_sgt", rsgt.total_wait_ticks)
        .Info("throughput_2pl", tput(r2pl))
        .Info("throughput_pw2pl", tput(rpw))
        .Info("throughput_sgt", tput(rsgt))
        .Info("throughput_ww", tput(rww))
        .Info("throughput_to", tput(rto))
        .Info("throughput_victim", tput(rvic))
        .Info("throughput_victim_pred", tput(rpred))
        .Info("wall_ms", row.sgt.wall_ms);
  }
  for (const FaultRow& frow : fault_rows) {
    bench::BenchRow& row =
        report.AddRow().Key("workload", frow.name).Key("txns", frow.txns);
    const std::pair<const char*, const SimResult*> policies[] = {
        {"2pl", &frow.strict_2pl.result},
        {"to", &frow.to.result},
        {"sgt", &frow.sgt.result}};
    for (const auto& [suffix, r] : policies) {
      const std::string s = suffix;
      row.Exact("completed_" + s, r->completed)
          .Exact("crashes_" + s, r->crashes)
          .Exact("fault_aborts_" + s, r->fault_aborts)
          .Exact("boosts_" + s, r->boosts)
          .Exact("shed_" + s, r->shed)
          .Exact("backoff_ticks_" + s, r->backoff_ticks)
          .Exact("max_restarts_" + s, r->max_txn_restarts)
          .Info("makespan_" + s, r->makespan);
    }
    row.Info("wall_ms", frow.sgt.wall_ms);
  }
  return report.Write(args.json_path) ? 0 : 1;
}
