#include "history/history_io.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/string_util.h"

namespace nse {
namespace {

// ---- one flat JSON object per line, decoded into the format's keys ---------
//
// The format only ever uses flat objects whose values are integers,
// booleans, or strings, so the scanner below supports exactly that; nested
// containers, floats, null, and \u escapes are rejected with a typed error
// rather than silently accepted.

struct JsonValue {
  enum class Kind { kInt, kBool, kString } kind = Kind::kInt;
  int64_t int_value = 0;
  bool bool_value = false;
  std::string string_value;
};

/// The format's keys: a scanned line holds one slot per key.
enum Key : uint32_t { kType, kVersion, kTxn, kItem, kValue, kFrom, kNumKeys };
constexpr std::string_view kKeyNames[kNumKeys] = {"type",  "v",     "txn",
                                                  "item",  "value", "from"};

constexpr uint32_t Bit(uint32_t key) { return 1u << key; }

/// Keys each line type may carry.
constexpr uint32_t kHeaderKeys = Bit(kType) | Bit(kVersion);
constexpr uint32_t kTxnKeys = Bit(kType) | Bit(kTxn);
constexpr uint32_t kWriteKeys = kTxnKeys | Bit(kItem) | Bit(kValue);
constexpr uint32_t kReadKeys = kWriteKeys | Bit(kFrom);

/// Scans one line into the key slots. Keys outside the format are kept by
/// name, so a repeated one is still a duplicate and the unknown-key check
/// can name the first offender in line order. The slots' buffers are
/// reused from line to line.
class LineScanner {
 public:
  Status Scan(std::string_view text) {
    text_ = text;
    pos_ = 0;
    present_ = 0;
    order_.clear();
    unknown_.clear();
    SkipSpace();
    if (!Consume('{')) return Err("expected '{'");
    SkipSpace();
    if (Consume('}')) return Finish();
    while (true) {
      NSE_RETURN_IF_ERROR(ParseString(&key_));
      SkipSpace();
      if (!Consume(':')) return Err("expected ':' after key");
      uint32_t key = 0;
      while (key < kNumKeys && kKeyNames[key] != key_) ++key;
      if (key < kNumKeys) {
        NSE_RETURN_IF_ERROR(ParseValue(&slots_[key]));
        if (present_ & Bit(key)) return DuplicateKey();
        present_ |= Bit(key);
      } else {
        NSE_RETURN_IF_ERROR(ParseValue(&unknown_value_));
        for (const std::string& seen : unknown_) {
          if (seen == key_) return DuplicateKey();
        }
        key = kNumKeys + static_cast<uint32_t>(unknown_.size());
        unknown_.push_back(key_);
      }
      order_.push_back(key);
      SkipSpace();
      if (Consume(',')) {
        SkipSpace();
        continue;
      }
      if (Consume('}')) return Finish();
      return Err("expected ',' or '}'");
    }
  }

  bool Has(Key key) const { return (present_ & Bit(key)) != 0; }
  const JsonValue& operator[](Key key) const { return slots_[key]; }

  /// Fails unless `key` is present and holds a `kind` value.
  Status Require(Key key, JsonValue::Kind kind) const {
    if (!Has(key)) {
      return Status::InvalidArgument(
          StrCat("missing field \"", kKeyNames[key], "\""));
    }
    if (slots_[key].kind != kind) {
      return Status::InvalidArgument(
          StrCat("field \"", kKeyNames[key], "\" must be ",
                 kind == JsonValue::Kind::kInt ? "an integer" : "a string"));
    }
    return Status::Ok();
  }

  /// Fails on the first key, in line order, outside `allowed`.
  Status RejectUnknown(uint32_t allowed) const {
    for (uint32_t key : order_) {
      if (key < kNumKeys && (allowed & Bit(key)) != 0) continue;
      const std::string_view name =
          key < kNumKeys ? kKeyNames[key] : unknown_[key - kNumKeys];
      return Status::InvalidArgument(StrCat("unknown field \"", name, "\""));
    }
    return Status::Ok();
  }

 private:
  Status Finish() {
    SkipSpace();
    if (pos_ != text_.size()) return Err("trailing characters after object");
    return Status::Ok();
  }

  Status DuplicateKey() { return Err(StrCat("duplicate key \"", key_, "\"")); }

  Status ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Err("unexpected end of line");
    char c = text_[pos_];
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string_value);
    }
    if (c == 't' || c == 'f') {
      const std::string_view word = c == 't' ? "true" : "false";
      if (text_.substr(pos_, word.size()) != word) {
        return Err("malformed literal");
      }
      pos_ += word.size();
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = c == 't';
      return Status::Ok();
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      const char* end = text_.data() + text_.size();
      const auto [last, ec] =
          std::from_chars(text_.data() + pos_, end, out->int_value);
      if (ec == std::errc::invalid_argument) return Err("malformed number");
      pos_ = static_cast<size_t>(last - text_.data());
      if (last != end && (*last == '.' || *last == 'e' || *last == 'E')) {
        return Err("floating-point values are not part of the format");
      }
      if (ec == std::errc::result_out_of_range) {
        return Err("integer out of range");
      }
      out->kind = JsonValue::Kind::kInt;
      return Status::Ok();
    }
    if (c == '{' || c == '[') return Err("nested containers are not allowed");
    if (c == 'n') return Err("null is not allowed");
    return Err(StrCat("unexpected character '", std::string(1, c), "'"));
  }

  Status ParseString(std::string* out) {
    SkipSpace();
    if (!Consume('"')) return Err("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u':
            return Err("\\u escapes are not supported by the format");
          default:
            return Err(StrCat("bad escape '\\", std::string(1, esc), "'"));
        }
        continue;
      }
      out->push_back(c);
    }
    return Err("unterminated string");
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Err(const std::string& what) {
    return Status::InvalidArgument(StrCat("malformed JSON: ", what));
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string key_;
  JsonValue slots_[kNumKeys];
  uint32_t present_ = 0;  ///< Bit(key) per filled slot
  JsonValue unknown_value_;
  std::vector<std::string> unknown_;  ///< keys outside the format
  /// Keys in line order: a Key, or kNumKeys + index into unknown_.
  std::vector<uint32_t> order_;
};

std::string EscapeJson(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

Value ValueOf(const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kInt:
      return Value(v.int_value);
    case JsonValue::Kind::kBool:
      return Value(v.bool_value);
    case JsonValue::Kind::kString:
      return Value(v.string_value);
  }
  return Value();
}

/// Applies one scanned line: the header, or one event appended to
/// `history`. The checks run in a fixed order — type, header version or
/// duplicate header, txn, item, from, unknown keys last — and the first
/// failure is the line's error.
Status ApplyLine(const LineScanner& line, bool* saw_header,
                 History* history) {
  NSE_RETURN_IF_ERROR(line.Require(kType, JsonValue::Kind::kString));
  const std::string& type = line[kType].string_value;
  if (!*saw_header) {
    if (type != "history") {
      return Status::InvalidArgument(
          "first line must be the {\"type\":\"history\",\"v\":1} header");
    }
    NSE_RETURN_IF_ERROR(line.Require(kVersion, JsonValue::Kind::kInt));
    const int64_t version = line[kVersion].int_value;
    if (version != kHistoryFormatVersion) {
      return Status::Unimplemented(
          StrCat("unsupported history format version ", version));
    }
    NSE_RETURN_IF_ERROR(line.RejectUnknown(kHeaderKeys));
    *saw_header = true;
    return Status::Ok();
  }

  HistoryEvent event;
  uint32_t allowed = kTxnKeys;
  if (type == "begin") {
    event.type = HistoryEventType::kBegin;
  } else if (type == "read") {
    event.type = HistoryEventType::kRead;
    allowed = kReadKeys;
  } else if (type == "write") {
    event.type = HistoryEventType::kWrite;
    allowed = kWriteKeys;
  } else if (type == "commit") {
    event.type = HistoryEventType::kCommit;
  } else if (type == "abort") {
    event.type = HistoryEventType::kAbort;
  } else if (type == "history") {
    return Status::FailedPrecondition("duplicate history header line");
  } else {
    return Status::InvalidArgument(
        StrCat("unknown event type \"", type, "\""));
  }

  NSE_RETURN_IF_ERROR(line.Require(kTxn, JsonValue::Kind::kInt));
  const int64_t txn = line[kTxn].int_value;
  if (txn < 1 || txn > static_cast<int64_t>(UINT32_MAX)) {
    return Status::InvalidArgument(
        StrCat("transaction id ", txn, " outside [1, 2^32)"));
  }
  event.txn = static_cast<TxnId>(txn);

  if ((allowed & Bit(kItem)) != 0) {
    NSE_RETURN_IF_ERROR(line.Require(kItem, JsonValue::Kind::kString));
    const std::string& name = line[kItem].string_value;
    if (name.empty()) return Status::InvalidArgument("empty item name");
    Result<ItemId> item = history->db.Find(name);
    if (!item.ok()) item = history->db.AddItem(name, Domain());
    NSE_RETURN_IF_ERROR(item.status());
    event.item = *item;
    if (line.Has(kValue)) event.value = ValueOf(line[kValue]);
  }
  if ((allowed & Bit(kFrom)) != 0 && line.Has(kFrom)) {
    const JsonValue& from = line[kFrom];
    if (from.kind != JsonValue::Kind::kInt || from.int_value < 0 ||
        from.int_value > static_cast<int64_t>(UINT32_MAX)) {
      return Status::InvalidArgument(
          "field \"from\" must be a transaction id or 0");
    }
    event.read_from = static_cast<TxnId>(from.int_value);
  }
  NSE_RETURN_IF_ERROR(line.RejectUnknown(allowed));
  history->events.push_back(std::move(event));
  return Status::Ok();
}

}  // namespace

Result<History> ParseHistory(std::string_view text) {
  History history;
  LineScanner scanner;
  bool saw_header = false;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = StripWhitespace(text.substr(start, end - start));
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;
    Status status = scanner.Scan(line);
    if (status.ok()) status = ApplyLine(scanner, &saw_header, &history);
    if (!status.ok()) {
      return Status(status.code(),
                    StrCat("line ", line_no, ": ", status.message()));
    }
  }
  if (!saw_header) {
    return Status::InvalidArgument(
        "empty input: a history needs at least the header line");
  }
  NSE_RETURN_IF_ERROR(ValidateHistory(history));
  return history;
}

Result<History> ReadHistoryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound(StrCat("cannot open ", path));
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  // A directory opens but fails its first read.
  if (!in.eof()) return Status::NotFound(StrCat("cannot read ", path));
  return ParseHistory(text);
}

std::string SerializeHistoryEvent(const History& history,
                                  const HistoryEvent& event) {
  std::ostringstream os;
  os << "{\"type\":\"" << HistoryEventTypeName(event.type) << "\",\"txn\":"
     << event.txn;
  if (event.type == HistoryEventType::kRead ||
      event.type == HistoryEventType::kWrite) {
    os << ",\"item\":\"" << EscapeJson(history.db.NameOf(event.item)) << "\"";
    os << ",\"value\":";
    if (event.value.is_int()) {
      os << event.value.AsInt();
    } else if (event.value.is_bool()) {
      os << (event.value.AsBool() ? "true" : "false");
    } else {
      os << '"' << EscapeJson(event.value.AsString()) << '"';
    }
    if (event.type == HistoryEventType::kRead && event.read_from.has_value()) {
      os << ",\"from\":" << *event.read_from;
    }
  }
  os << "}";
  return os.str();
}

std::string SerializeHistory(const History& history) {
  std::ostringstream os;
  os << "{\"type\":\"history\",\"v\":" << history.version << "}\n";
  for (const HistoryEvent& event : history.events) {
    os << SerializeHistoryEvent(history, event) << "\n";
  }
  return os.str();
}

}  // namespace nse
