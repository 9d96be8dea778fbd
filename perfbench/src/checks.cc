#include "checks.h"

#include "analysis/streaming_checker.h"

namespace perfbench {

bool StreamingCsr(const nse::History& history) {
  nse::StreamingOptions options;
  options.window = 64;
  nse::StreamingChecker checker(history.db, options);
  for (const nse::HistoryEvent& event : history.events) {
    if (!checker.Feed(event).ok()) return false;
  }
  return checker.Finish().full.ok;
}

}  // namespace perfbench
