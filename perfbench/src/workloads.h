// The benchmark's workloads. Each builds its inputs from the seed, runs
// timed passes through the library's public functions, checks every
// output, and fills a Report. See perfbench/README.md for why each exists.

#ifndef NSE_PERFBENCH_WORKLOADS_H_
#define NSE_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Strict 2PL on the multithreaded engine, closed loop, CPU-bound.
Report RunOltp2pl(const RunOptions& options);

/// PW-2PL on the tick simulator, then CSR/PWSR/DR/DAG/Certify on one
/// AnalysisContext — the paper's decision end to end.
Report RunCertifyPwsr(const RunOptions& options);

/// Parse a serialized log and stream-check it — the auditor path.
Report RunAuditLog(const RunOptions& options);

/// Parallel violation search under Theorem 1's filter plus a control.
Report RunTheoremSearch(const RunOptions& options);

}  // namespace perfbench

#endif  // NSE_PERFBENCH_WORKLOADS_H_
