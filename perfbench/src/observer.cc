#include "observer.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace perfbench {

namespace {

// SchedulerPolicy::Commit/Abort are DoCommit/DoAbort followed by a
// structural Poke(). The inner policy's own Commit/Abort already poked its
// hub, so the wrapper swallows that one follow-up Poke on the same thread:
// observed runs notify waiters exactly as often as unobserved ones.
thread_local bool inner_already_poked = false;

const char* CallName(ObservedPolicy::Call call) {
  switch (call) {
    case ObservedPolicy::Call::kRequest:
      return "scheduler.request";
    case ObservedPolicy::Call::kWait:
      return "engine.wait";
    case ObservedPolicy::Call::kCommit:
      return "scheduler.commit";
    case ObservedPolicy::Call::kAbort:
      return "scheduler.abort";
  }
  return "?";
}

}  // namespace

ObservedPolicy::ObservedPolicy(nse::SchedulerPolicy& inner, size_t num_txns)
    : inner_(inner), records_(num_txns) {}

void ObservedPolicy::EndWait(TxnRecord& rec, uint64_t now) {
  if (rec.wait_since_ns == 0) return;
  rec.spans.push_back(CallSpan{rec.wait_since_ns, now, Call::kWait});
  rec.wait_since_ns = 0;
}

nse::Result<nse::AccessGrant> ObservedPolicy::RequestAccess(
    nse::TxnId txn, const nse::TxnScript& script, size_t step) {
  NSE_CHECK_MSG(txn >= 1 && txn <= records_.size(),
                "observer: unknown transaction %u", txn);
  TxnRecord& rec = RecordOf(txn);
  const uint64_t start = NowNs();
  if (rec.first_request_ns == 0) rec.first_request_ns = start;
  EndWait(rec, start);
  nse::Result<nse::AccessGrant> grant =
      inner_.RequestAccess(txn, script, step);
  for (nse::TxnId victim : inner_.DrainCondemned()) Condemn(victim);
  const uint64_t end = NowNs();
  rec.spans.push_back(CallSpan{start, end, Call::kRequest});
  if (!grant.ok()) return grant;
  ++rec.requests;
  switch (grant->verdict) {
    case nse::AccessVerdict::kGranted:
      ++rec.granted;
      break;
    case nse::AccessVerdict::kWait:
      ++rec.waits;
      rec.wait_since_ns = end;
      break;
    case nse::AccessVerdict::kAbortSelf:
      ++rec.self_aborts;
      break;
    case nse::AccessVerdict::kSkip:
      ++rec.skips;
      break;
  }
  return grant;
}

void ObservedPolicy::DoCommit(nse::TxnId txn) {
  NSE_CHECK_MSG(txn >= 1 && txn <= records_.size(),
                "observer: unknown transaction %u", txn);
  TxnRecord& rec = RecordOf(txn);
  const uint64_t start = NowNs();
  inner_.Commit(txn);
  const uint64_t end = NowNs();
  inner_already_poked = true;
  rec.spans.push_back(CallSpan{start, end, Call::kCommit});
  rec.commit_ns = end;
  ++rec.commits;
}

void ObservedPolicy::DoAbort(nse::TxnId txn) {
  NSE_CHECK_MSG(txn >= 1 && txn <= records_.size(),
                "observer: unknown transaction %u", txn);
  TxnRecord& rec = RecordOf(txn);
  const uint64_t start = NowNs();
  EndWait(rec, start);
  inner_.Abort(txn);
  const uint64_t end = NowNs();
  inner_already_poked = true;
  rec.spans.push_back(CallSpan{start, end, Call::kAbort});
  ++rec.aborts;
}

void ObservedPolicy::Poke() {
  if (inner_already_poked) {
    inner_already_poked = false;
    return;
  }
  inner_.Poke();
}

ObservedPolicy::Totals ObservedPolicy::Summarize() const {
  Totals t;
  for (const TxnRecord& rec : records_) {
    t.requests += rec.requests;
    t.granted += rec.granted;
    t.waits += rec.waits;
    t.self_aborts += rec.self_aborts;
    t.skips += rec.skips;
    t.commits += rec.commits;
    t.aborts += rec.aborts;
    t.max_txn_aborts = std::max(t.max_txn_aborts, rec.aborts);
    t.last_commit_ns = std::max(t.last_commit_ns, rec.commit_ns);
    for (const CallSpan& span : rec.spans) {
      uint64_t ns = span.end_ns - span.start_ns;
      if (span.call == Call::kWait) {
        t.wait_ns += ns;
      } else {
        t.policy_ns += ns;
      }
    }
  }
  return t;
}

namespace {

void Expect(std::vector<std::string>& out, const char* what,
            uint64_t observed, uint64_t counted) {
  if (observed != counted) {
    out.push_back(nse::StrCat("observer ", what, " ", observed,
                              " != run's ", counted));
  }
}

}  // namespace

std::vector<std::string> ObservedPolicy::Reconcile(
    const nse::EngineResult& result) const {
  Totals t = Summarize();
  std::vector<std::string> out;
  Expect(out, "kWait", t.waits, result.wait_events);
  Expect(out, "kAbortSelf", t.self_aborts, result.restarts);
  Expect(out, "kSkip", t.skips, result.skipped_ops);
  Expect(out, "commits", t.commits, result.completed);
  Expect(out, "aborts", t.aborts,
         result.aborts + result.restarts + result.wounds);
  Expect(out, "max txn aborts", t.max_txn_aborts, result.max_txn_restarts);
  return out;
}

std::vector<std::string> ObservedPolicy::Reconcile(
    const nse::SimResult& result) const {
  Totals t = Summarize();
  std::vector<std::string> out;
  Expect(out, "kWait", t.waits, result.total_wait_ticks);
  Expect(out, "kAbortSelf", t.self_aborts, result.restarts);
  Expect(out, "kSkip", t.skips, result.skipped_ops);
  Expect(out, "commits", t.commits, result.completed);
  Expect(out, "aborts", t.aborts,
         result.aborts + result.restarts + result.wounds);
  Expect(out, "max txn aborts", t.max_txn_aborts, result.max_txn_restarts);
  return out;
}

LayerSample ObservedPolicy::Sample(size_t threads, uint64_t start_ns,
                                   uint64_t end_ns) const {
  Totals t = Summarize();
  std::vector<double> request_ns;
  std::vector<double> commit_ns;
  std::vector<double> latency_us;
  request_ns.reserve(t.requests);
  commit_ns.reserve(t.commits);
  latency_us.reserve(t.commits);
  for (const TxnRecord& rec : records_) {
    for (const CallSpan& span : rec.spans) {
      double ns = static_cast<double>(span.end_ns - span.start_ns);
      if (span.call == Call::kRequest) request_ns.push_back(ns);
      if (span.call == Call::kCommit) commit_ns.push_back(ns);
    }
    if (rec.commit_ns != 0) {
      latency_us.push_back(
          static_cast<double>(rec.commit_ns - rec.first_request_ns) * 1e-3);
    }
  }
  const double worker_ns =
      static_cast<double>(threads) * static_cast<double>(end_ns - start_ns);
  const double commits = static_cast<double>(std::max<uint64_t>(t.commits, 1));
  const double busy = static_cast<double>(t.policy_ns) / worker_ns;
  const double wait = static_cast<double>(t.wait_ns) / worker_ns;
  LayerSample s;
  s["scheduler.request_ns_p50"] = Percentile(request_ns, 0.50);
  s["scheduler.request_ns_p99"] = Percentile(request_ns, 0.99);
  s["scheduler.commit_ns_p50"] = Percentile(commit_ns, 0.50);
  s["scheduler.commit_ns_p99"] = Percentile(commit_ns, 0.99);
  s["scheduler.busy_share"] = busy;
  s["scheduler.grant_ratio"] =
      t.requests == 0 ? 0
                      : static_cast<double>(t.granted) /
                            static_cast<double>(t.requests);
  s["scheduler.waits_per_commit"] = static_cast<double>(t.waits) / commits;
  s["scheduler.rollbacks_per_commit"] =
      static_cast<double>(t.aborts) / commits;
  s["engine.wait_share"] = wait;
  s["engine.self_share"] = 1.0 - busy - wait;
  s["engine.txn_latency_p50_us"] = Percentile(latency_us, 0.50);
  s["engine.txn_latency_p99_us"] = Percentile(latency_us, 0.99);
  s["engine.finalize_ms"] =
      t.last_commit_ns > end_ns
          ? 0
          : static_cast<double>(end_ns - t.last_commit_ns) * 1e-6;
  return s;
}

void ObservedPolicy::AppendSpans(SpanLog& log, uint64_t parent) const {
  for (size_t i = 0; i < records_.size(); ++i) {
    const TxnRecord& rec = records_[i];
    if (rec.first_request_ns == 0) continue;
    const uint64_t txn = i + 1;
    uint64_t txn_span = log.Add("txn", parent, txn, rec.first_request_ns,
                                std::max(rec.commit_ns, rec.first_request_ns));
    for (const CallSpan& span : rec.spans) {
      log.Add(CallName(span.call), txn_span, txn, span.start_ns, span.end_ns);
    }
  }
}

}  // namespace perfbench
