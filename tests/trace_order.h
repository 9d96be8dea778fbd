// Shared check of how both drivers linearize a run's committed trace: a
// write traces its policy-issued trace_seq (TxnRunner::Execute, single-
// and multiversion policies alike) and the trace is placed by seq, so
// along a driver's schedule the write values strictly increase.

#ifndef NSE_TESTS_TRACE_ORDER_H_
#define NSE_TESTS_TRACE_ORDER_H_

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "txn/schedule.h"

namespace nse {

/// Expects the writes of a driver's schedule to carry strictly increasing
/// values. Returns true when the trace skips a seq: the ops at positions
/// 0..i hold distinct seqs from 1 up, so a write at position i carries a
/// seq above i + 1 exactly when a smaller seq went to an operation that
/// never committed (an aborted incarnation's grant).
inline bool ExpectWritesInSeqOrder(const Schedule& schedule,
                                   const std::string& context) {
  const OpSequence& ops = schedule.ops();
  int64_t previous = 0;
  bool gap = false;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].is_write()) continue;
    const int64_t seq = ops[i].value.AsInt();
    EXPECT_GT(seq, previous) << context << ": write at position " << i
                             << " by T" << ops[i].txn;
    gap = gap || seq > static_cast<int64_t>(i + 1);
    previous = seq;
  }
  return gap;
}

}  // namespace nse

#endif  // NSE_TESTS_TRACE_ORDER_H_
