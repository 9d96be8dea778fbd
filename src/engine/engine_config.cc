#include "engine/engine_config.h"

#include <algorithm>

#include "common/rng.h"

namespace nse {

Status EngineConfig::Validate() const {
  if (max_ticks == 0) {
    return Status::InvalidArgument("max_ticks must be positive");
  }
  if (threads == 0) {
    return Status::InvalidArgument("threads must be positive");
  }
  if (wait_timeout_micros == 0) {
    return Status::InvalidArgument(
        "wait_timeout_micros must be positive (blocked workers would never "
        "re-check their condemned flag)");
  }
  if (max_wall_micros == 0) {
    return Status::InvalidArgument("max_wall_micros must be positive");
  }
  const RestartPolicy& rp = restart;
  if (rp.backoff != RestartPolicy::Backoff::kImmediate && rp.cap < rp.base) {
    return Status::InvalidArgument(
        "restart backoff cap below base: the cap silently rewrites the "
        "first-restart delay");
  }
  if (rp.backoff == RestartPolicy::Backoff::kExponential && rp.base == 0) {
    return Status::InvalidArgument(
        "exponential backoff with base 0 never backs off (0 << n == 0)");
  }
  if (rp.jitter > 0 && rp.jitter_seed == 0) {
    return Status::InvalidArgument(
        "jitter requested with jitter_seed 0 (the reserved unseeded value)");
  }
  if (rp.overflow == RestartPolicy::Overflow::kShed && rp.max_live_txns == 0) {
    return Status::InvalidArgument(
        "shed overflow without an admission gate (max_live_txns == 0 never "
        "sheds; pick a gate or drop the overflow mode)");
  }
  return Status::Ok();
}

uint64_t RestartBackoffDelay(const RestartPolicy& rp, TxnId txn, uint64_t n) {
  uint64_t delay = 0;
  switch (rp.backoff) {
    case RestartPolicy::Backoff::kImmediate:
      delay = 0;
      break;
    case RestartPolicy::Backoff::kFixed:
      delay = std::min(rp.base, rp.cap);
      break;
    case RestartPolicy::Backoff::kLinear:
      delay = std::min(rp.base + rp.step * n, rp.cap);
      break;
    case RestartPolicy::Backoff::kExponential: {
      delay = rp.base;
      for (uint64_t i = 1; i < n && delay < rp.cap; ++i) delay <<= 1;
      delay = std::min(delay, rp.cap);
      break;
    }
  }
  if (rp.jitter > 0) {
    delay += Rng(rp.jitter_seed).Split(txn).Split(n).NextBelow(rp.jitter + 1);
  }
  return delay;
}

}  // namespace nse
