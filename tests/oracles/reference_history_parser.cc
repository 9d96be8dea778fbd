// ParseHistory the generic way: every line is scanned into a vector of
// (key, JsonValue) pairs, and a Fields wrapper looks keys up by name and
// tracks which ones were consumed so leftovers can be rejected as unknown.
// This is the decoder the production parser replaced with fixed per-key
// slots; the corruption fuzz holds the two to the same outcome on every
// input.

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/string_util.h"
#include "oracles/oracles.h"

namespace nse {
namespace oracles {
namespace {

// ---- minimal strict JSON for one flat object per line -----------------------
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

class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : text_(text) {}

  Status ParseObject(std::vector<std::pair<std::string, JsonValue>>* out) {
    SkipSpace();
    if (!Consume('{')) return Err("expected '{'");
    SkipSpace();
    if (Consume('}')) return Finish();
    while (true) {
      std::string key;
      NSE_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Err("expected ':' after key");
      JsonValue value;
      NSE_RETURN_IF_ERROR(ParseValue(&value));
      for (const auto& [existing, unused] : *out) {
        (void)unused;
        if (existing == key) return Err(StrCat("duplicate key \"", key, "\""));
      }
      out->emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) {
        SkipSpace();
        continue;
      }
      if (Consume('}')) return Finish();
      return Err("expected ',' or '}'");
    }
  }

 private:
  Status Finish() {
    SkipSpace();
    if (pos_ != text_.size()) return Err("trailing characters after object");
    return Status::Ok();
  }

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
      size_t start = pos_;
      if (c == '-') ++pos_;
      size_t digits = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++digits;
      }
      if (digits == 0) return Err("malformed number");
      if (pos_ < text_.size() &&
          (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
        return Err("floating-point values are not part of the format");
      }
      errno = 0;
      out->kind = JsonValue::Kind::kInt;
      out->int_value = std::strtoll(
          std::string(text_.substr(start, pos_ - start)).c_str(), nullptr, 10);
      if (errno == ERANGE) return Err("integer out of range");
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
};

/// Keyed access with strict unknown-key rejection.
class Fields {
 public:
  explicit Fields(std::vector<std::pair<std::string, JsonValue>> fields)
      : fields_(std::move(fields)) {}

  const JsonValue* Find(std::string_view key) {
    for (auto& [k, v] : fields_) {
      if (k == key) {
        used_.insert(k);
        return &v;
      }
    }
    return nullptr;
  }

  Status RequireInt(std::string_view key, int64_t* out) {
    const JsonValue* v = Find(key);
    if (v == nullptr) {
      return Status::InvalidArgument(StrCat("missing field \"", key, "\""));
    }
    if (v->kind != JsonValue::Kind::kInt) {
      return Status::InvalidArgument(
          StrCat("field \"", key, "\" must be an integer"));
    }
    *out = v->int_value;
    return Status::Ok();
  }

  Status RequireString(std::string_view key, std::string* out) {
    const JsonValue* v = Find(key);
    if (v == nullptr) {
      return Status::InvalidArgument(StrCat("missing field \"", key, "\""));
    }
    if (v->kind != JsonValue::Kind::kString) {
      return Status::InvalidArgument(
          StrCat("field \"", key, "\" must be a string"));
    }
    *out = v->string_value;
    return Status::Ok();
  }

  /// Fails if any field was never consumed by Find/Require*.
  Status RejectUnknown() const {
    for (const auto& [k, v] : fields_) {
      (void)v;
      if (used_.count(k) == 0) {
        return Status::InvalidArgument(StrCat("unknown field \"", k, "\""));
      }
    }
    return Status::Ok();
  }

 private:
  std::vector<std::pair<std::string, JsonValue>> fields_;
  std::unordered_set<std::string> used_;
};

Status ParseTxnId(Fields& fields, TxnId* out) {
  int64_t raw = 0;
  NSE_RETURN_IF_ERROR(fields.RequireInt("txn", &raw));
  if (raw < 1 || raw > static_cast<int64_t>(UINT32_MAX)) {
    return Status::InvalidArgument(
        StrCat("transaction id ", raw, " outside [1, 2^32)"));
  }
  *out = static_cast<TxnId>(raw);
  return Status::Ok();
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

}  // namespace

Result<History> ParseHistoryReference(std::string_view text) {
  History history;
  std::unordered_map<std::string, ItemId> item_ids;
  bool saw_header = false;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = StripWhitespace(text.substr(start, end - start));
    start = end + 1;
    ++line_no;
    if (line.empty()) {
      if (start > text.size()) break;
      continue;
    }
    const auto at_line = [&](Status status) {
      return Status(status.code(),
                    StrCat("line ", line_no, ": ", status.message()));
    };

    std::vector<std::pair<std::string, JsonValue>> raw;
    LineScanner scanner(line);
    Status parsed = scanner.ParseObject(&raw);
    if (!parsed.ok()) return at_line(parsed);
    Fields fields(std::move(raw));

    std::string type;
    Status typed = fields.RequireString("type", &type);
    if (!typed.ok()) return at_line(typed);

    if (!saw_header) {
      if (type != "history") {
        return at_line(Status::InvalidArgument(
            "first line must be the {\"type\":\"history\",\"v\":1} header"));
      }
      int64_t version = 0;
      Status v = fields.RequireInt("v", &version);
      if (!v.ok()) return at_line(v);
      if (version != kHistoryFormatVersion) {
        return at_line(Status::Unimplemented(
            StrCat("unsupported history format version ", version)));
      }
      Status unknown = fields.RejectUnknown();
      if (!unknown.ok()) return at_line(unknown);
      saw_header = true;
      continue;
    }

    HistoryEvent event;
    if (type == "begin") {
      event.type = HistoryEventType::kBegin;
    } else if (type == "read") {
      event.type = HistoryEventType::kRead;
    } else if (type == "write") {
      event.type = HistoryEventType::kWrite;
    } else if (type == "commit") {
      event.type = HistoryEventType::kCommit;
    } else if (type == "abort") {
      event.type = HistoryEventType::kAbort;
    } else if (type == "history") {
      return at_line(
          Status::FailedPrecondition("duplicate history header line"));
    } else {
      return at_line(
          Status::InvalidArgument(StrCat("unknown event type \"", type, "\"")));
    }

    Status txn = ParseTxnId(fields, &event.txn);
    if (!txn.ok()) return at_line(txn);

    if (event.type == HistoryEventType::kRead ||
        event.type == HistoryEventType::kWrite) {
      std::string item_name;
      Status item = fields.RequireString("item", &item_name);
      if (!item.ok()) return at_line(item);
      if (item_name.empty()) {
        return at_line(Status::InvalidArgument("empty item name"));
      }
      auto it = item_ids.find(item_name);
      if (it == item_ids.end()) {
        auto added = history.db.AddItem(item_name, Domain());
        if (!added.ok()) return at_line(added.status());
        it = item_ids.emplace(item_name, *added).first;
      }
      event.item = it->second;
      if (const JsonValue* value = fields.Find("value")) {
        event.value = ValueOf(*value);
      }
      if (event.type == HistoryEventType::kRead) {
        if (const JsonValue* from = fields.Find("from")) {
          if (from->kind != JsonValue::Kind::kInt || from->int_value < 0 ||
              from->int_value > static_cast<int64_t>(UINT32_MAX)) {
            return at_line(Status::InvalidArgument(
                "field \"from\" must be a transaction id or 0"));
          }
          event.read_from = static_cast<TxnId>(from->int_value);
        }
      }
    }
    Status unknown = fields.RejectUnknown();
    if (!unknown.ok()) return at_line(unknown);
    history.events.push_back(std::move(event));
  }
  if (!saw_header) {
    return Status::InvalidArgument(
        "empty input: a history needs at least the header line");
  }
  NSE_RETURN_IF_ERROR(ValidateHistory(history));
  return history;
}

}  // namespace oracles
}  // namespace nse
