// Lock-free value plane of both scheduler drivers: one atomic cell per
// item. The scheduler layer (policy + TxnRunner) decides *whether* an
// access may happen; this store only performs it. Cells are atomics so a
// policy bug that lets two workers race on an item is a scheduling bug
// visible to the analysis checkers, never undefined behavior under TSan.
//
// The accessors return Status / Result<T> envelopes, not sentinel values:
// an out-of-range item is a malformed request (OutOfRange), while a read
// of a never-written cell is a normal answer (0) — mirroring the repo-wide
// rule that errors are envelopes and domain answers are values.

#ifndef NSE_ENGINE_SHARDED_STORE_H_
#define NSE_ENGINE_SHARDED_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "txn/operation.h"

namespace nse {

/// Fixed-size array of independently-atomic value cells, item-addressed.
/// All cells start at 0. Thread-safe: any number of readers and writers
/// may touch any cells concurrently.
class ShardedValueStore {
 public:
  /// A store for items [0, num_items).
  explicit ShardedValueStore(size_t num_items)
      : size_(num_items),
        cells_(std::make_unique<std::atomic<int64_t>[]>(num_items)) {}

  /// The current value of `item`, or OutOfRange for an unknown item.
  Result<int64_t> Read(ItemId item) const {
    if (item >= size_) {
      return Status::OutOfRange("read of item outside the store");
    }
    return cells_[item].load(std::memory_order_acquire);
  }

  /// Sets `item` to `value` and returns the value it replaced, or
  /// OutOfRange for an unknown item.
  Result<int64_t> Write(ItemId item, int64_t value) {
    if (item >= size_) {
      return Status::OutOfRange("write of item outside the store");
    }
    return cells_[item].exchange(value, std::memory_order_acq_rel);
  }

  /// Undoes a Write of `written` that replaced `prior`, unless a later
  /// write already replaced `written` (then that write stands). `item`
  /// must be in range.
  void Undo(ItemId item, int64_t written, int64_t prior) {
    cells_[item].compare_exchange_strong(written, prior,
                                         std::memory_order_acq_rel);
  }

 private:
  size_t size_;
  std::unique_ptr<std::atomic<int64_t>[]> cells_;
};

}  // namespace nse

#endif  // NSE_ENGINE_SHARDED_STORE_H_
