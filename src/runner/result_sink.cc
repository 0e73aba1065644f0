#include "runner/result_sink.h"

#include <charconv>
#include <cmath>
#include <string_view>

namespace hetpipe::runner {
namespace {

// Appends `s` as a quoted JSON string, escaped per RFC 8259. Runs of bytes
// that need no escape are appended whole.
void AppendJsonString(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  out->push_back('"');
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        // JSON forbids raw control characters in strings; anything below
        // 0x20 without a short escape must go out as \u00XX or the line is
        // unparseable.
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

// How a row value is rendered: JSON token (strings quoted+escaped,
// non-finite doubles -> null), the raw JSON-value form ResultRow::Get
// returns (strings unquoted), or a CSV cell (non-finite doubles -> empty:
// CSV has no null literal, and "inf"/"nan" break numeric column parsers).
enum class ValueFormat { kJson, kRaw, kCsv };

void AppendValue(std::string* out, const ResultRow::Value& value, ValueFormat format) {
  // to_chars prints the shortest decimal for integers, and for doubles with
  // chars_format::general and precision 12 exactly what printf's %.12g (and
  // so a precision(12) ostream) prints.
  char buf[32];
  std::to_chars_result printed{buf, std::errc()};
  switch (TypeOfValue(value)) {
    case ValueType::kBool:
      out->append(std::get<bool>(value) ? "true" : "false");
      return;
    case ValueType::kInt64:
      printed = std::to_chars(buf, buf + sizeof(buf), std::get<int64_t>(value));
      break;
    case ValueType::kDouble: {
      const double v = std::get<double>(value);
      if (!std::isfinite(v)) {
        // JSON has no literal for NaN or the infinities; null is the only
        // faithful spelling ("inf" makes the whole line unparseable).
        if (format != ValueFormat::kCsv) {
          out->append("null");
        }
        return;
      }
      printed = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 12);
      break;
    }
    case ValueType::kString:
      if (format == ValueFormat::kJson) {
        AppendJsonString(out, std::get<std::string>(value));
      } else {
        out->append(std::get<std::string>(value));
      }
      return;
  }
  out->append(buf, printed.ptr);
}

std::string ValueToString(const ResultRow::Value& value, ValueFormat format) {
  std::string out;
  AppendValue(&out, value, format);
  return out;
}

// RFC 4180: a cell holding a comma, a quote, CR or LF is quoted, with its
// quotes doubled.
std::string EscapeCsv(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out.push_back(c);
    }
  }
  out += "\"";
  return out;
}

}  // namespace

const ResultRow::Value* ResultRow::FindValue(const std::string& key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

std::optional<std::string> ResultRow::Find(const std::string& key) const {
  const Value* value = FindValue(key);
  if (value == nullptr) {
    return std::nullopt;
  }
  return ValueToString(*value, ValueFormat::kRaw);
}

std::string RowToJson(const ResultRow& row) {
  // One allocation for the usual row: the keys and strings as they are, plus
  // the punctuation and a short number per field.
  size_t size = 2;
  for (const auto& [key, value] : row.fields()) {
    size += key.size() + 12;
    if (const std::string* text = std::get_if<std::string>(&value)) {
      size += text->size();
    }
  }
  std::string out;
  out.reserve(size);
  out.push_back('{');
  for (const auto& [key, value] : row.fields()) {
    if (out.size() > 1) {
      out.push_back(',');
    }
    AppendJsonString(&out, key);
    out.push_back(':');
    AppendValue(&out, value, ValueFormat::kJson);
  }
  out.push_back('}');
  return out;
}

void JsonlSink::Write(const ResultRow& row) { *out_ << RowToJson(row) << "\n"; }

void CsvSink::Write(const ResultRow& row) {
  schema_.Observe(row);
  rows_.push_back(row);
}

CsvSink::~CsvSink() {
  if (rows_.empty()) {
    return;
  }
  const std::vector<Column>& columns = schema_.columns();
  for (size_t i = 0; i < columns.size(); ++i) {
    *out_ << (i > 0 ? "," : "") << EscapeCsv(columns[i].name);
  }
  *out_ << "\n";
  for (const ResultRow& row : rows_) {
    const std::vector<const ResultRow::Value*> values = schema_.Project(row);
    for (size_t i = 0; i < values.size(); ++i) {
      const std::string cell =
          values[i] != nullptr ? ValueToString(*values[i], ValueFormat::kCsv) : std::string();
      *out_ << (i > 0 ? "," : "") << EscapeCsv(cell);
    }
    *out_ << "\n";
  }
}

}  // namespace hetpipe::runner
