#include "engine/engine_config.h"

#include <algorithm>
#include <chrono>

#include "common/rng.h"
#include "common/string_util.h"

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
  // The engine sleeps delay * backoff_unit_micros, and the cap bounds the
  // delay's shape: a product past the longest sleep the clock can express
  // would wrap to a short (or negative, hence no) sleep.
  const uint64_t max_sleep =
      static_cast<uint64_t>(std::chrono::microseconds::max().count());
  if (rp.backoff != RestartPolicy::Backoff::kImmediate &&
      backoff_unit_micros != 0 && rp.cap > max_sleep / backoff_unit_micros) {
    return Status::InvalidArgument(
        StrCat("restart backoff cap ", rp.cap, " times backoff_unit_micros ",
               backoff_unit_micros, " overflows the engine's sleep (max ",
               max_sleep, " us)"));
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
    case RestartPolicy::Backoff::kLinear: {
      // base + step * n, saturating at the cap instead of wrapping.
      const uint64_t room = rp.cap - std::min(rp.base, rp.cap);
      delay = rp.step != 0 && n > room / rp.step
                  ? rp.cap
                  : std::min(rp.base + rp.step * n, rp.cap);
      break;
    }
    case RestartPolicy::Backoff::kExponential: {
      // Doubling saturates at the cap: a shift past it would wrap to 0.
      delay = std::min(rp.base, rp.cap);
      for (uint64_t i = 1; i < n && delay < rp.cap; ++i) {
        delay = delay > rp.cap / 2 ? rp.cap : delay << 1;
      }
      break;
    }
  }
  if (rp.jitter > 0) {
    // Draw from [0, jitter]; jitter == UINT64_MAX is the whole range (its
    // bound jitter + 1 would wrap to 0). The sum saturates.
    Rng rng = Rng(rp.jitter_seed).Split(txn).Split(n);
    const uint64_t draw =
        rp.jitter == UINT64_MAX ? rng.Next() : rng.NextBelow(rp.jitter + 1);
    delay = draw > UINT64_MAX - delay ? UINT64_MAX : delay + draw;
  }
  return delay;
}

}  // namespace nse
