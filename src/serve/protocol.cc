#include "serve/protocol.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string_view>
#include <utility>

#include "partition/partitioner.h"
#include "runner/result_sink.h"

namespace hetpipe::serve {

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone:
      return "ok";
    case ErrorCode::kBadFrame:
      return "bad_frame";
    case ErrorCode::kBadJson:
      return "bad_json";
    case ErrorCode::kBadRequest:
      return "bad_request";
    case ErrorCode::kBadSpec:
      return "bad_spec";
    case ErrorCode::kBadModel:
      return "bad_model";
    case ErrorCode::kBadSelector:
      return "bad_selector";
    case ErrorCode::kShuttingDown:
      return "shutting_down";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "internal";
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// True when `token` is a number by the RFC 8259 section 6 grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
bool IsJsonNumber(std::string_view token) {
  size_t i = !token.empty() && token[0] == '-' ? 1 : 0;
  // Skips a run of digits; false when there is none.
  const auto digits = [&] {
    const size_t start = i;
    while (i < token.size() && IsDigit(token[i])) {
      ++i;
    }
    return i > start;
  };
  const size_t first = i;
  if (!digits() || (token[first] == '0' && i > first + 1)) {
    return false;
  }
  if (i < token.size() && token[i] == '.') {
    ++i;
    if (!digits()) {
      return false;
    }
  }
  if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
    ++i;
    if (i < token.size() && (token[i] == '+' || token[i] == '-')) {
      ++i;
    }
    if (!digits()) {
      return false;
    }
  }
  return i == token.size();
}

// Recursive-descent reader over the payload. Positions advance only on
// success; every failure records the byte offset so protocol errors point at
// the offending character, not just "bad JSON".
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at byte " + std::to_string(pos_);
    }
    return false;
  }
  const std::string& error() const { return error_; }

  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Expect(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool Peek(char c) {
    SkipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  // Walks one top-level object and nothing after it, in document order:
  // each member's value is decoded into `slot_for(const std::string& key)`,
  // a JsonValue* (a later duplicate key overwrites the earlier value), or
  // into scratch and dropped when that returns null.
  template <typename SlotFor>
  bool ParseObject(SlotFor slot_for) {
    if (!Expect('{')) {
      return false;
    }
    if (!Peek('}')) {
      std::string key;
      JsonValue dropped;
      for (;;) {
        if (!ParseString(&key) || !Expect(':')) {
          return false;
        }
        JsonValue* slot = slot_for(key);
        if (!ParseValue(slot != nullptr ? slot : &dropped)) {
          return false;
        }
        if (!Peek(',')) {
          break;
        }
        ++pos_;
      }
    }
    if (!Expect('}')) {
      return false;
    }
    SkipWs();
    if (pos_ < text_.size()) {
      error_ = "trailing bytes after the object";
      return false;
    }
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Expect('"')) {
      return false;
    }
    out->clear();
    while (pos_ < text_.size()) {
      // A run of bytes that need no decoding goes over in one append.
      const size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20) {
        ++pos_;
      }
      out->append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) {
        break;
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        return Fail("raw control character in string");
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            value <<= 4;
            if (IsDigit(h)) {
              value |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              value |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              value |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape digit");
            }
          }
          // The writer side only emits \u00XX (control characters); decode
          // the BMP as UTF-8 so any well-formed producer round-trips.
          if (value < 0x80) {
            out->push_back(static_cast<char>(value));
          } else if (value < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (value >> 6)));
            out->push_back(static_cast<char>(0x80 | (value & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (value >> 12)));
            out->push_back(static_cast<char>(0x80 | ((value >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (value & 0x3F)));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  // The token is every byte that could belong to a number, so the error
  // names all of a malformed one; it must then match the JSON grammar and
  // decode to a double in range (subnormals included).
  bool ParseNumber(JsonValue* out) {
    SkipWs();
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (IsDigit(text_[pos_]) || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a number");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    const char* end = token.data() + token.size();
    double value = 0.0;
    // Out of range (1e400, or an underflow such as 1e-400) is an error.
    if (!IsJsonNumber(token) || std::from_chars(token.data(), end, value).ec != std::errc()) {
      return Fail("malformed number \"" + std::string(token) + "\"");
    }
    out->type = JsonValue::Type::kNumber;
    out->num = value;
    return true;
  }

  // Syntax-checks a nested object/array and captures its raw text: protocol
  // messages are flat, so nothing downstream decodes these further.
  bool SkipNested(JsonValue* out) {
    SkipWs();
    const size_t start = pos_;
    const char open = text_[pos_];
    const char close = open == '{' ? '}' : ']';
    int depth = 0;
    std::string ignored;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        if (!ParseString(&ignored)) {
          return false;
        }
        continue;
      }
      ++pos_;
      if (c == open || c == '{' || c == '[') {
        ++depth;
      } else if (c == close || c == '}' || c == ']') {
        --depth;
        if (depth == 0) {
          out->type = JsonValue::Type::kRaw;
          out->str.assign(text_.data() + start, pos_ - start);
          return true;
        }
        if (depth < 0) {
          return Fail("mismatched bracket");
        }
      }
    }
    return Fail("unterminated nested value");
  }

  bool ParseValue(JsonValue* out) {
    out->str.clear();
    out->num = 0.0;
    out->boolean = false;
    SkipWs();
    if (pos_ >= text_.size()) {
      return Fail("expected a value");
    }
    const char c = text_[pos_];
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (c == '{' || c == '[') {
      return SkipNested(out);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->type = JsonValue::Type::kBool;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out->type = JsonValue::Type::kNull;
      return true;
    }
    return ParseNumber(out);
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

}  // namespace

bool ParseJsonObject(const std::string& text, std::map<std::string, JsonValue>* out,
                     std::string* error) {
  out->clear();
  JsonReader reader(text);
  if (!reader.ParseObject([out](const std::string& key) { return &(*out)[key]; })) {
    SetError(error, reader.error());
    return false;
  }
  return true;
}

namespace {

// strerror_r has two incompatible signatures (XSI returns int and fills the
// buffer; GNU returns a char* that may ignore the buffer). Overloading on the
// return type picks the right interpretation without feature-test-macro
// guessing, which tends to rot across libc versions.
[[maybe_unused]] const char* StrerrorResult(int rc, const char* buf) {
  return rc == 0 ? buf : "unknown error";
}
[[maybe_unused]] const char* StrerrorResult(const char* s, const char* /*buf*/) { return s; }

}  // namespace

std::string ErrnoString(int errno_value) {
  char buf[128] = "unknown error";
  return StrerrorResult(::strerror_r(errno_value, buf, sizeof(buf)), buf);
}

bool WriteFrame(int fd, const std::string& payload, uint32_t max_frame_bytes,
                std::string* error) {
  if (payload.size() > max_frame_bytes) {
    SetError(error, "frame of " + std::to_string(payload.size()) + " bytes exceeds the " +
                        std::to_string(max_frame_bytes) + "-byte bound");
    return false;
  }
  uint32_t size = static_cast<uint32_t>(payload.size());
  iovec parts[2] = {{&size, sizeof(size)},
                    {const_cast<char*>(payload.data()), payload.size()}};
  msghdr message{};
  message.msg_iov = parts;
  message.msg_iovlen = 2;
  size_t left = sizeof(size) + payload.size();
  while (left > 0) {
    // MSG_NOSIGNAL: a peer that vanished mid-response must surface as EPIPE,
    // not kill the daemon with SIGPIPE.
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      SetError(error, "send: " + ErrnoString(errno));
      return false;
    }
    left -= static_cast<size_t>(n);
    // Step the iovecs past what was sent.
    for (size_t sent = static_cast<size_t>(n); sent > 0;) {
      iovec& part = message.msg_iov[0];
      const size_t step = std::min(sent, part.iov_len);
      part.iov_base = static_cast<char*>(part.iov_base) + step;
      part.iov_len -= step;
      sent -= step;
      if (part.iov_len == 0) {
        ++message.msg_iov;
        --message.msg_iovlen;
      }
    }
  }
  return true;
}

ssize_t FrameReader::Fill(char* data, size_t size) {
  size_t got = std::min(size, tail_ - head_);
  std::memcpy(data, buffer_ + head_, got);
  head_ += got;
  while (got < size) {
    // Read ahead only for what fits: the rest of a long body goes straight
    // into `data`, and without read-ahead nothing past the frame is taken.
    const bool direct = !read_ahead_ || size - got >= sizeof(buffer_);
    const ssize_t n = direct ? ::read(fd_, data + got, size - got)
                             : ::read(fd_, buffer_, sizeof(buffer_));
    if (n == 0) {
      break;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (direct) {
      got += static_cast<size_t>(n);
      continue;
    }
    const size_t take = std::min(size - got, static_cast<size_t>(n));
    std::memcpy(data + got, buffer_, take);
    got += take;
    head_ = take;
    tail_ = static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(got);
}

FrameResult FrameReader::Read(uint32_t max_frame_bytes, std::string* payload,
                              std::string* error) {
  uint32_t size = 0;
  const ssize_t header = Fill(reinterpret_cast<char*>(&size), sizeof(size));
  if (header == 0) {
    return FrameResult::kEof;  // clean close between frames
  }
  if (header != static_cast<ssize_t>(sizeof(size))) {
    SetError(error, header < 0 ? "read: " + ErrnoString(errno)
                               : std::string("stream ended inside a length prefix"));
    return FrameResult::kError;
  }
  if (size > max_frame_bytes) {
    SetError(error, "length prefix of " + std::to_string(size) + " bytes exceeds the " +
                        std::to_string(max_frame_bytes) + "-byte bound");
    return FrameResult::kError;
  }
  payload->resize(size);
  const ssize_t body = size == 0 ? 0 : Fill(payload->data(), size);
  if (body != static_cast<ssize_t>(size)) {
    SetError(error, body < 0 ? "read: " + ErrnoString(errno)
                             : std::string("stream ended inside a frame payload"));
    return FrameResult::kError;
  }
  return FrameResult::kFrame;
}

FrameResult ReadFrame(int fd, uint32_t max_frame_bytes, std::string* payload,
                      std::string* error) {
  return FrameReader(fd, /*read_ahead=*/false).Read(max_frame_bytes, payload, error);
}

std::string PlanRequest::ToJson() const {
  runner::ResultRow row;
  row.Set("v", kProtocolVersion);
  row.Set("op", op);
  if (!id.empty()) {
    row.Set("id", id);
  }
  if (!cluster_spec.empty()) {
    row.Set("cluster_spec", cluster_spec);
  } else {
    row.Set("cluster_nodes", cluster_nodes);
  }
  row.Set("model", model);
  if (!selector.empty()) {
    row.Set("selector", selector);
  }
  row.Set("nm", nm);
  row.Set("nm_cap", nm_cap);
  row.Set("batch_size", batch_size);
  row.Set("search_orders", search_orders);
  // Search-tier knobs are optional-on-the-wire: emitted only when they
  // deviate from the defaults, so pre-knob consumers see unchanged requests.
  if (strategy != "auto") {
    row.Set("strategy", strategy);
  }
  if (beam_width != 8) {
    row.Set("beam_width", beam_width);
  }
  if (rack_order_limit != 720) {
    row.Set("rack_order_limit", rack_order_limit);
  }
  return runner::RowToJson(row);
}

namespace {

// The request fields ParsePlanRequest reads, by slot.
enum RequestField : size_t {
  kVersion,
  kOp,
  kId,
  kClusterSpec,
  kClusterNodes,
  kModel,
  kSelector,
  kNm,
  kNmCap,
  kBatchSize,
  kSearchOrders,
  kStrategy,
  kBeamWidth,
  kRackOrderLimit,
  kNumRequestFields,
};
constexpr std::string_view kRequestFields[] = {
    "v",             "op",       "id",         "cluster_spec",    "cluster_nodes",
    "model",         "selector", "nm",         "nm_cap",          "batch_size",
    "search_orders", "strategy", "beam_width", "rack_order_limit"};
static_assert(std::size(kRequestFields) == kNumRequestFields);

// The last value of each known field of one request object (a later
// duplicate key wins; unknown keys are dropped as they are read).
struct RequestFields {
  JsonValue value[kNumRequestFields];
  bool present[kNumRequestFields] = {};
  size_t next = 0;  // where SlotFor's search starts

  // The slot `key` decodes into, or null for a key no request field has.
  // The search starts after the last slot found, so a request whose fields
  // come in slot order (PlanRequest::ToJson's) costs one compare a key.
  JsonValue* SlotFor(const std::string& key) {
    for (size_t step = 0; step < kNumRequestFields; ++step) {
      const size_t i = (next + step) % kNumRequestFields;
      if (key == kRequestFields[i]) {
        present[i] = true;
        next = i + 1;
        return &value[i];
      }
    }
    return nullptr;
  }
  // The field's value, or null when the request did not carry it.
  JsonValue* Find(RequestField field) { return present[field] ? &value[field] : nullptr; }
};

std::string FieldError(RequestField field, const char* what) {
  return "field \"" + std::string(kRequestFields[field]) + "\" must be " + what;
}

// Field decoding helpers shared by ParsePlanRequest: every type mismatch is
// a kBadRequest naming the field, never a silent default.
bool TakeString(RequestFields* fields, RequestField field, std::string* out, std::string* error) {
  JsonValue* v = fields->Find(field);
  if (v == nullptr) {
    return true;
  }
  if (v->type != JsonValue::Type::kString) {
    *error = FieldError(field, "a string");
    return false;
  }
  *out = std::move(v->str);
  return true;
}

bool TakeInt(RequestFields* fields, RequestField field, int min, int max, int* out,
             std::string* error) {
  const JsonValue* v = fields->Find(field);
  if (v == nullptr) {
    return true;
  }
  if (v->type != JsonValue::Type::kNumber || v->num != std::floor(v->num)) {
    *error = FieldError(field, "an integer");
    return false;
  }
  if (v->num < min || v->num > max) {
    *error = FieldError(field, "in [") + std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
  }
  *out = static_cast<int>(v->num);
  return true;
}

bool TakeBool(RequestFields* fields, RequestField field, bool* out, std::string* error) {
  const JsonValue* v = fields->Find(field);
  if (v == nullptr) {
    return true;
  }
  if (v->type != JsonValue::Type::kBool) {
    *error = FieldError(field, "a boolean");
    return false;
  }
  *out = v->boolean;
  return true;
}

}  // namespace

bool ParsePlanRequest(const std::string& payload, PlanRequest* out, ErrorCode* code,
                      std::string* error) {
  *out = PlanRequest();
  RequestFields fields;
  JsonReader reader(payload);
  if (!reader.ParseObject([&fields](const std::string& key) { return fields.SlotFor(key); })) {
    *code = ErrorCode::kBadJson;
    *error = reader.error();
    return false;
  }

  // Checked in a fixed order, so the first bad field in it is the one named.
  int version = kProtocolVersion;
  if (!TakeInt(&fields, kVersion, 0, std::numeric_limits<int>::max(), &version, error) ||
      !TakeString(&fields, kOp, &out->op, error) || !TakeString(&fields, kId, &out->id, error) ||
      !TakeString(&fields, kClusterSpec, &out->cluster_spec, error) ||
      !TakeString(&fields, kClusterNodes, &out->cluster_nodes, error) ||
      !TakeString(&fields, kModel, &out->model, error) ||
      !TakeString(&fields, kSelector, &out->selector, error) ||
      !TakeInt(&fields, kNm, 1, 1024, &out->nm, error) ||
      !TakeInt(&fields, kNmCap, 1, 1024, &out->nm_cap, error) ||
      !TakeInt(&fields, kBatchSize, 1, 65536, &out->batch_size, error) ||
      !TakeBool(&fields, kSearchOrders, &out->search_orders, error) ||
      !TakeString(&fields, kStrategy, &out->strategy, error) ||
      !TakeInt(&fields, kBeamWidth, 1, 4096, &out->beam_width, error) ||
      !TakeInt(&fields, kRackOrderLimit, 1, 1000000, &out->rack_order_limit, error)) {
    *code = ErrorCode::kBadRequest;
    return false;
  }
  {
    partition::SearchStrategy parsed_strategy;
    if (!partition::ParseSearchStrategy(out->strategy, &parsed_strategy)) {
      *code = ErrorCode::kBadRequest;
      *error = "field \"strategy\" must be one of auto, exact, beam, hierarchical (got \"" +
               out->strategy + "\")";
      return false;
    }
  }
  if (version != kProtocolVersion) {
    *code = ErrorCode::kBadRequest;
    *error = "protocol version " + std::to_string(version) + " is not supported (this server: " +
             std::to_string(kProtocolVersion) + ")";
    return false;
  }
  if (out->op != "plan" && out->op != "max_nm" && out->op != "stats" && out->op != "shutdown") {
    *code = ErrorCode::kBadRequest;
    *error = "unknown op \"" + out->op + "\"";
    return false;
  }
  if ((out->op == "plan" || out->op == "max_nm") && out->selector.empty()) {
    *code = ErrorCode::kBadRequest;
    *error = "op \"" + out->op + "\" needs a \"selector\"";
    return false;
  }
  *code = ErrorCode::kNone;
  return true;
}

}  // namespace hetpipe::serve
