// oltp_2pl: a closed loop of CPU-bound scripted transactions under strict
// 2PL on the multithreaded engine. The only workload where threads contend
// on the policy's lock stripes, its WaitHub and the engine's timeout-driven
// deadlock detection.
//
// Two workers, not four: at four workers a pass is bimodal (about 0.8 s,
// or about 10 s in an abort storm) and which mode a pass lands in follows
// the host's CPU availability, so no run-to-run figure is steady there.
// README.md lists that cliff, and the false stall below.

#include <iterator>
#include <optional>
#include <vector>

#include "checks.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "engine/engine.h"
#include "history/trace_export.h"
#include "observer.h"
#include "scheduler/two_phase_locking.h"
#include "scheduler/workload.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kWorkers = 2;

/// Timed-out waits without progress before the engine declares a stall:
/// about 1 s at the default 200 us wait. At the default 64 (about 13 ms)
/// one pass in ~190 failed with "engine stalled: blocked transactions but
/// no waits-for cycle", which strict 2PL cannot produce on its own.
constexpr uint64_t kStallPatience = 5000;

/// The scripts are generated in chunks, each chunk with its own seed, and
/// each chunk's programs are dropped once its scripts are taken: 100k
/// programs at once would dominate the run's memory, and the engine runs
/// scripts only. Every chunk has the same catalog.
constexpr size_t kChunks = 10;

nse::PartitionedWorkloadConfig OltpChunkConfig(const RunOptions& options,
                                               size_t chunk) {
  nse::PartitionedWorkloadConfig cfg;
  cfg.num_partitions = 64;
  cfg.items_per_partition = 2;
  cfg.num_txns = (options.tiny ? 2000 : 100000) / kChunks;
  cfg.partitions_per_txn = 3;
  cfg.cross_read_probability = 0.2;
  cfg.hotspot_probability = 0.2;
  cfg.seed = options.seed * kChunks + chunk;
  return cfg;
}

struct OltpInput {
  nse::Database db;
  std::vector<nse::TxnScript> scripts;
};

OltpInput MakeOltpInput(const RunOptions& options) {
  OltpInput input;
  for (size_t chunk = 0; chunk < kChunks; ++chunk) {
    nse::Result<nse::Workload> made =
        nse::MakePartitionedWorkload(OltpChunkConfig(options, chunk));
    NSE_CHECK_MSG(made.ok(), "%s", made.status().ToString().c_str());
    if (chunk == 0) input.db = made->db;
    input.scripts.insert(input.scripts.end(),
                         std::make_move_iterator(made->scripts.begin()),
                         std::make_move_iterator(made->scripts.end()));
  }
  return input;
}

}  // namespace

Report RunOltp2pl(const RunOptions& options) {
  Report report;
  report.unit = "txn";
  report.rate_name = "txn_per_s";
  OltpInput workload = TimedSetup<OltpInput>(
      report, [&] { return MakeOltpInput(options); });
  const size_t n = workload.scripts.size();
  nse::EngineConfig config;
  config.threads = ClampThreads(kWorkers);
  config.stall_patience = kStallPatience;
  report.facts["threads"] = nse::StrCat(config.threads);
  report.facts["scripts"] = nse::StrCat(n);

  RunPasses(options, report, [&](Report& out, bool traced, uint64_t index) {
    nse::StrictTwoPhaseLocking policy;
    std::optional<ObservedPolicy> observer;
    if (traced) observer.emplace(policy, n);
    nse::SchedulerPolicy& driven =
        traced ? static_cast<nse::SchedulerPolicy&>(*observer) : policy;

    const uint64_t start = NowNs();
    nse::Result<nse::EngineResult> result =
        nse::RunEngine(driven, workload.scripts, config);
    const uint64_t end = NowNs();
    const double wall_s = static_cast<double>(end - start) * 1e-9;

    out.attempted += n;
    if (!result.ok()) {
      out.failed += n;
      out.errors.push_back(result.status().ToString());
      return;
    }
    out.Gate(result->completed == n,
             nse::StrCat("pass ", index, ": committed ", result->completed,
                         " of ", n, " scripts"));
    // The streaming CSR check costs more than a pass; it runs on the
    // warm-up pass and on every traced one.
    if (index == 0 || traced) {
      out.Gate(StreamingCsr(nse::HistoryFromEngine(workload.db, *result)),
               nse::StrCat("pass ", index, ": trace is not CSR"));
    }
    if (!traced) {
      out.untraced_wall_s.push_back(wall_s);
      out.rates.push_back(static_cast<double>(result->completed) / wall_s);
      return;
    }
    out.traced_wall_s.push_back(wall_s);
    for (const std::string& miss : observer->Reconcile(*result)) {
      out.Gate(false, nse::StrCat("pass ", index, ": ", miss));
    }
    LayerSample sample = observer->Sample(config.threads, start, end);
    sample["engine.max_txn_restarts"] =
        static_cast<double>(result->max_txn_restarts);
    out.layer_samples.push_back(std::move(sample));
    const uint64_t pass_span = out.spans.Add("pass", 0, index, start, end);
    const uint64_t run_span =
        out.spans.Add("engine.run", pass_span, index, start, end);
    observer->AppendSpans(out.spans, run_span);
  });
  return report;
}

}  // namespace perfbench
