// Output checks shared by the workloads.

#ifndef NSE_PERFBENCH_CHECKS_H_
#define NSE_PERFBENCH_CHECKS_H_

#include "history/history.h"

namespace perfbench {

/// Runs `history` through the windowed streaming checker: true iff every
/// event is accepted and the committed projection is conflict
/// serializable. An implementation independent of the batch conflict graph
/// AnalysisContext builds.
bool StreamingCsr(const nse::History& history);

}  // namespace perfbench

#endif  // NSE_PERFBENCH_CHECKS_H_
