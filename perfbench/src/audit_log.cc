// audit_log: the black-box auditor path (what nse_check does). Set-up
// writes a seeded JSON-lines log; each timed pass parses it and feeds
// every event through the windowed streaming checker, then finishes it.
//
// The log is generated here rather than by HistoryGenerator because the
// full plane must stay conflict serializable over the whole log: a plane
// that latches a violation freezes, and its later events measure nothing.
// Serializability holds by construction — committed transactions touch an
// item only while no other active transaction holds it, so conflicts
// between committed transactions follow commit order. The one exception
// is deliberate: a transaction may read an item held by an active writer
// that is going to abort (a dirty read, annotated with that writer), which
// feeds the aborted-read tracking without creating committed conflicts.

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "analysis/streaming_checker.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "history/batch_check.h"
#include "history/history_io.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct AuditShape {
  size_t events = 0;        ///< log length (events, approximate)
  uint32_t catalog = 0;     ///< items
  uint32_t concurrency = 0; ///< transactions active at once
  size_t window = 0;        ///< streaming checker window
};

constexpr double kAbortFraction = 0.10;
constexpr double kWriteFraction = 0.5;
constexpr double kAnnotateFraction = 0.5;
/// Share of reads that deliberately target an item held by an aborting
/// writer, when one exists.
constexpr double kDirtyReadFraction = 0.02;
constexpr uint32_t kMaxOpsPerTxn = 6;

AuditShape ShapeFor(const RunOptions& options) {
  if (options.tiny) return AuditShape{20000, 256, 8, 512};
  return AuditShape{200000, 4096, 8, 512};
}

/// The serialized log plus what the generator knows about it.
struct AuditLog {
  std::string text;
  size_t events = 0;
  size_t committed_dirty_reads = 0;
};

class AuditLogGenerator {
 public:
  AuditLogGenerator(const AuditShape& shape, uint64_t seed)
      : shape_(shape),
        rng_(seed),
        holder_(shape.catalog, 0),
        holder_wrote_(shape.catalog, false),
        holder_value_(shape.catalog, 0),
        dirty_readers_(shape.catalog, 0),
        committed_writer_(shape.catalog, 0),
        committed_value_(shape.catalog, 0) {
    for (uint32_t i = 0; i < shape.catalog; ++i) {
      NSE_CHECK(history_.db.AddItem(nse::StrCat("x", i), nse::Domain()).ok());
    }
  }

  AuditLog Generate() {
    for (uint32_t i = 0; i < shape_.concurrency; ++i) Start();
    while (history_.events.size() < shape_.events) {
      Txn& txn = active_[rng_.NextBelow(active_.size())];
      if (txn.ops_left > 0) {
        --txn.ops_left;
        EmitOp(txn);
      } else {
        Finish(txn);
        Start(&txn);
      }
    }
    for (Txn& txn : active_) Finish(txn);
    AuditLog log;
    log.events = history_.events.size();
    log.committed_dirty_reads = committed_dirty_reads_;
    log.text = nse::SerializeHistory(history_);
    return log;
  }

 private:
  struct Txn {
    nse::TxnId id = 0;
    uint32_t ops_left = 0;
    bool will_abort = false;
    uint32_t dirty_reads = 0;
    std::vector<nse::ItemId> held;        ///< items held exclusively
    std::vector<nse::ItemId> dirty_held;  ///< read from an aborting holder
  };

  /// Begins a new transaction in `slot` (or a new slot).
  void Start(Txn* slot = nullptr) {
    Txn txn;
    txn.id = next_txn_++;
    txn.ops_left = 1 + static_cast<uint32_t>(rng_.NextBelow(kMaxOpsPerTxn));
    txn.will_abort = rng_.NextBool(kAbortFraction);
    history_.events.push_back(nse::HistoryEvent::Begin(txn.id));
    if (slot != nullptr) {
      *slot = std::move(txn);
    } else {
      active_.push_back(std::move(txn));
    }
  }

  static bool Has(const std::vector<nse::ItemId>& items, nse::ItemId item) {
    return std::find(items.begin(), items.end(), item) != items.end();
  }

  /// An active writer that will abort, other than `txn`, and an item it
  /// wrote — the target of a deliberate dirty read.
  std::optional<nse::ItemId> DirtyTarget(const Txn& txn) {
    for (const Txn& other : active_) {
      if (other.id == txn.id || !other.will_abort) continue;
      for (nse::ItemId item : other.held) {
        if (holder_wrote_[item] && !Has(txn.dirty_held, item)) return item;
      }
    }
    return std::nullopt;
  }

  void EmitOp(Txn& txn) {
    const bool write = rng_.NextBool(kWriteFraction);
    if (!write && rng_.NextBool(kDirtyReadFraction)) {
      if (std::optional<nse::ItemId> item = DirtyTarget(txn)) {
        DirtyRead(txn, *item);
        return;
      }
    }
    for (int attempt = 0; attempt < 16; ++attempt) {
      const nse::ItemId item =
          static_cast<nse::ItemId>(rng_.NextBelow(shape_.catalog));
      if (holder_[item] != txn.id) {
        if (holder_[item] != 0 || dirty_readers_[item] != 0) continue;
        holder_[item] = txn.id;
        holder_wrote_[item] = false;
        txn.held.push_back(item);
      }
      if (write) {
        const int64_t value = next_value_++;
        holder_wrote_[item] = true;
        holder_value_[item] = value;
        history_.events.push_back(
            nse::HistoryEvent::Write(txn.id, item, nse::Value(value)));
      } else {
        const bool own = holder_wrote_[item];
        const nse::TxnId from = own ? txn.id : committed_writer_[item];
        const int64_t value =
            own ? holder_value_[item] : committed_value_[item];
        std::optional<nse::TxnId> annotation;
        if (rng_.NextBool(kAnnotateFraction)) annotation = from;
        history_.events.push_back(nse::HistoryEvent::Read(
            txn.id, item, nse::Value(value), annotation));
      }
      return;
    }
  }

  void DirtyRead(Txn& txn, nse::ItemId item) {
    ++dirty_readers_[item];
    txn.dirty_held.push_back(item);
    ++txn.dirty_reads;
    history_.events.push_back(nse::HistoryEvent::Read(
        txn.id, item, nse::Value(holder_value_[item]), holder_[item]));
  }

  void Finish(Txn& txn) {
    if (txn.will_abort) {
      history_.events.push_back(nse::HistoryEvent::Abort(txn.id));
    } else {
      history_.events.push_back(nse::HistoryEvent::Commit(txn.id));
      for (nse::ItemId item : txn.held) {
        if (holder_wrote_[item]) {
          committed_writer_[item] = txn.id;
          committed_value_[item] = holder_value_[item];
        }
      }
      committed_dirty_reads_ += txn.dirty_reads;
    }
    for (nse::ItemId item : txn.held) {
      holder_[item] = 0;
      holder_wrote_[item] = false;
    }
    for (nse::ItemId item : txn.dirty_held) --dirty_readers_[item];
    txn.held.clear();
    txn.dirty_held.clear();
  }

  const AuditShape shape_;
  nse::Rng rng_;
  nse::History history_;
  std::vector<Txn> active_;
  nse::TxnId next_txn_ = 1;
  int64_t next_value_ = 1;
  std::vector<nse::TxnId> holder_;     ///< 0 = free
  std::vector<bool> holder_wrote_;     ///< the holder wrote the item
  std::vector<int64_t> holder_value_;  ///< the holder's latest write
  std::vector<uint32_t> dirty_readers_;
  std::vector<nse::TxnId> committed_writer_;  ///< 0 = initial state
  std::vector<int64_t> committed_value_;
  size_t committed_dirty_reads_ = 0;
};

}  // namespace

Report RunAuditLog(const RunOptions& options) {
  Report report;
  report.unit = "events";
  report.rate_name = "events_per_s";
  const AuditShape shape = ShapeFor(options);
  AuditLog log = TimedSetup<AuditLog>(report, [&] {
    return AuditLogGenerator(shape, options.seed).Generate();
  });
  report.facts["events"] = nse::StrCat(log.events);
  report.facts["bytes"] = nse::StrCat(log.text.size());
  report.facts["committed_dirty_reads"] =
      nse::StrCat(log.committed_dirty_reads);

  nse::StreamingOptions stream_options;
  stream_options.window = shape.window;

  RunPasses(options, report, [&](Report& out, bool traced, uint64_t index) {
    std::vector<double> feed_ns;
    if (traced) feed_ns.reserve(log.events);
    const uint64_t start = NowNs();
    nse::Result<nse::History> history = nse::ParseHistory(log.text);
    const uint64_t parse_end = NowNs();
    out.attempted += log.events;
    if (!history.ok()) {
      out.failed += log.events;
      out.errors.push_back(history.status().ToString());
      return;
    }
    nse::StreamingChecker checker(history->db, stream_options);
    uint64_t rejected = 0;
    for (const nse::HistoryEvent& event : history->events) {
      if (traced) {
        const uint64_t t0 = NowNs();
        if (!checker.Feed(event).ok()) ++rejected;
        feed_ns.push_back(static_cast<double>(NowNs() - t0));
      } else if (!checker.Feed(event).ok()) {
        ++rejected;
      }
    }
    const uint64_t feed_end = NowNs();
    const nse::StreamingReport verdict = checker.Finish();
    const uint64_t end = NowNs();
    const double wall_s = static_cast<double>(end - start) * 1e-9;
    out.failed += rejected;

    out.Gate(history->events.size() == log.events,
             nse::StrCat("pass ", index, ": parsed ",
                         history->events.size(), " of ", log.events,
                         " events"));
    out.Gate(verdict.full.ok,
             nse::StrCat("pass ", index, ": full plane not CSR"));
    out.Gate(verdict.aborted_reads == nse::AbortedReadEvents(*history),
             nse::StrCat("pass ", index,
                         ": aborted reads differ from the log scan"));
    out.Gate(verdict.aborted_reads.size() == log.committed_dirty_reads,
             nse::StrCat("pass ", index, ": ",
                         verdict.aborted_reads.size(),
                         " aborted reads, generator wrote ",
                         log.committed_dirty_reads));
    if (!traced) {
      out.untraced_wall_s.push_back(wall_s);
      out.rates.push_back(static_cast<double>(log.events) / wall_s);
      return;
    }
    out.traced_wall_s.push_back(wall_s);
    const double events = static_cast<double>(log.events);
    const nse::StreamingStats& stats = verdict.stats;
    LayerSample sample;
    sample["history.parse_ms"] =
        static_cast<double>(parse_end - start) * 1e-6;
    sample["history.parse_ns_per_event"] =
        static_cast<double>(parse_end - start) / events;
    sample["history.bytes"] = static_cast<double>(log.text.size());
    sample["stream.feed_ns_p50"] = Percentile(feed_ns, 0.50);
    sample["stream.feed_ns_p99"] = Percentile(feed_ns, 0.99);
    sample["stream.feed_ns_max"] = Percentile(feed_ns, 1.0);
    sample["stream.ns_per_event"] =
        static_cast<double>(end - parse_end) / events;
    sample["stream.finish_ms"] = static_cast<double>(end - feed_end) * 1e-6;
    sample["stream.evictions_per_commit"] =
        stats.commits == 0 ? 0
                           : static_cast<double>(stats.evictions) /
                                 static_cast<double>(stats.commits);
    sample["stream.peak_retained"] = static_cast<double>(stats.peak_retained);
    sample["stream.rebuilds"] = static_cast<double>(stats.rebuilds);
    out.layer_samples.push_back(std::move(sample));

    const uint64_t pass_span = out.spans.Add("pass", 0, index, start, end);
    out.spans.Add("history.parse", pass_span, index, start, parse_end);
    out.spans.Add("stream.feed", pass_span, index, parse_end, feed_end);
    out.spans.Add("stream.finish", pass_span, index, feed_end, end);
  });
  return report;
}

}  // namespace perfbench
