// The versioned JSON-lines history format (docs/history-format.md): one
// JSON object per line, first line a header pinning the format version,
// every following line one event. The parser is strict — malformed JSON,
// unknown types or keys, missing fields, protocol violations (out-of-order
// commit, operation before begin, duplicate transaction ids, a read_from
// naming a never-written version) all return typed Status errors through
// the Result<History> envelope; a parse never crashes and never yields a
// history that fails ValidateHistory.
//
//   {"type":"history","v":1}
//   {"type":"begin","txn":1}
//   {"type":"write","txn":1,"item":"a","value":1}
//   {"type":"read","txn":2,"item":"a","value":1,"from":1}
//   {"type":"commit","txn":1}
//   {"type":"abort","txn":2}
//
// Values are int64 / bool / string (the Value types); `value` and `from`
// are optional (a value defaults to 0 — class membership is structural).
// Items are named; the catalog is derived in first-appearance order.

#ifndef NSE_HISTORY_HISTORY_IO_H_
#define NSE_HISTORY_HISTORY_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "history/history.h"

namespace nse {

/// Parses a complete JSON-lines history text. Blank lines are allowed and
/// skipped; everything else must parse, and the event protocol must hold
/// (the returned history passes ValidateHistory by construction).
Result<History> ParseHistory(std::string_view text);

/// Reads and parses a history file. A path that cannot be opened or read
/// (a directory, say) is NotFound.
Result<History> ReadHistoryFile(const std::string& path);

/// Serializes a history back to JSON-lines text (header line included).
/// ParseHistory(SerializeHistory(h)) reproduces `h` event-for-event for any
/// history that validates.
std::string SerializeHistory(const History& history);

/// Serializes one event as a single JSON line (no trailing newline).
std::string SerializeHistoryEvent(const History& history,
                                  const HistoryEvent& event);

}  // namespace nse

#endif  // NSE_HISTORY_HISTORY_IO_H_
