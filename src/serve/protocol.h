#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace hetpipe::serve {

// ---- Wire format ----
//
// hetpipe_serve speaks length-prefixed JSON over a stream socket: each
// message is a 4-byte little-endian unsigned payload length followed by that
// many bytes of UTF-8 JSON (one object per message, no trailing newline).
// Requests and responses use the same framing; a connection carries any
// number of request/response pairs in order. Responses are produced by the
// same runner::RowToJson encoder the JSONL sinks use, so escaping rules are
// identical to every other JSON this repo emits. docs/serve-protocol.md is
// the field-level reference.
//
// Versioning: every request and response carries "v". A server answers
// requests whose "v" equals kProtocolVersion and rejects others with
// error_code "bad_request" — new optional fields may be added within a
// version, field renames/removals or semantic changes bump it.
constexpr int kProtocolVersion = 1;

// Frames larger than this are refused (read or written): a length prefix of
// gigabytes is a corrupt stream or an attack, not a plan query. The server
// makes its bound configurable; this is the default on both sides.
constexpr uint32_t kDefaultMaxFrameBytes = 1u << 20;

// Machine-readable error identities, sent as "error_code" strings (the
// numeric values never travel). Stable: new codes may be appended, existing
// names never change meaning.
enum class ErrorCode {
  kNone = 0,
  kBadFrame,      // oversized or malformed frame
  kBadJson,       // payload is not a JSON object
  kBadRequest,    // missing/ill-typed field, unknown op, version mismatch
  kBadSpec,       // cluster spec text failed to parse/validate
  kBadModel,      // unknown model name
  kBadSelector,   // VW selector unsatisfiable on the cluster
  kShuttingDown,  // server is draining; retry against a live instance
  kInternal,      // unexpected exception; message has details
};
const char* ErrorCodeName(ErrorCode code);

// ---- Minimal JSON reader ----
//
// Just enough JSON to decode protocol messages: one top-level object with
// string/number/bool/null values. Nested objects and arrays are
// syntax-checked and preserved as raw text (kRaw) — protocol messages are
// flat, so nothing in the tree decodes them further. Not a general-purpose
// parser; it exists because the repo's JSON machinery only ever needed to
// write, and the serve protocol is the first reader.
struct JsonValue {
  enum class Type { kString, kNumber, kBool, kNull, kRaw };
  Type type = Type::kNull;
  std::string str;       // kString: decoded text; kRaw: raw JSON text
  double num = 0.0;      // kNumber
  bool boolean = false;  // kBool
};

// Parses one JSON object into key -> value (later duplicate keys win, as in
// every lenient JSON reader). Returns false and fills `error` on anything
// that is not a single well-formed object.
bool ParseJsonObject(const std::string& text, std::map<std::string, JsonValue>* out,
                     std::string* error);

// Thread-safe strerror: formats `errno_value` without touching strerror's
// shared static buffer (strerror itself is not safe to call from the serve
// threads — two concurrent error paths would race on it).
std::string ErrnoString(int errno_value);

// ---- Framed stream I/O (POSIX fd) ----

// Writes one frame: the length prefix and the payload in one sendmsg, looping
// over partial writes; suppresses SIGPIPE. Returns false and fills `error` on
// I/O failure or an oversized payload.
bool WriteFrame(int fd, const std::string& payload, uint32_t max_frame_bytes,
                std::string* error);

enum class FrameResult {
  kFrame,  // payload filled
  kEof,    // clean end of stream at a frame boundary
  kError,  // I/O failure, truncated frame, or oversized length prefix
};

// Bytes a FrameReader reads ahead: a plan request or a warm answer fits, so
// one read() usually returns a frame's prefix and body together.
constexpr size_t kFrameReadAhead = 4096;

// Reads frames off one stream. With read-ahead (what a connection's owner
// uses) each read() fills a small buffer and bytes past the frame wait there
// for the next Read; a body longer than the buffer is read straight into the
// payload. Without it, exactly the frame's bytes are read and the rest of the
// stream stays in the kernel. Not thread-safe: one reader per connection.
class FrameReader {
 public:
  explicit FrameReader(int fd = -1, bool read_ahead = true)
      : fd_(fd), read_ahead_(read_ahead) {}

  // Points the reader at another stream, dropping any buffered bytes.
  void Reset(int fd) {
    fd_ = fd;
    head_ = tail_ = 0;
  }

  // Reads one frame; blocks until a full frame, EOF, or error. EOF inside a
  // frame (after the prefix, before the payload completes) is kError.
  FrameResult Read(uint32_t max_frame_bytes, std::string* payload, std::string* error);

 private:
  // Fills `size` bytes, looping over short reads and EINTR. Returns the bytes
  // filled before EOF (== size on success), or -1 on error.
  ssize_t Fill(char* data, size_t size);

  int fd_;
  bool read_ahead_;
  size_t head_ = 0;  // buffer_[head_, tail_) is read but not yet consumed
  size_t tail_ = 0;
  char buffer_[kFrameReadAhead];
};

// Reads one frame without read-ahead (FrameReader's rules and errors), so the
// caller may hand the fd to anything else between frames.
FrameResult ReadFrame(int fd, uint32_t max_frame_bytes, std::string* payload,
                      std::string* error);

// ---- Requests ----

// One decoded plan-service request. Field-by-field reference (defaults,
// units, which ops read which fields) lives in docs/serve-protocol.md.
struct PlanRequest {
  std::string op = "plan";  // plan | max_nm | stats | shutdown
  std::string id;           // opaque client tag, echoed into the response
  // Cluster: a hw::ClusterSpec text, or (when empty) paper node codes.
  std::string cluster_spec;
  std::string cluster_nodes = "VRGQ";
  std::string model = "resnet152";  // resnet152 | vgg19 | bert-large (core::ParseModelKind)
  std::string selector;             // core::PickGpus selector for the VW
  int nm = 1;                       // plan: concurrent minibatches
  int nm_cap = 7;                   // max_nm: search ceiling (paper: 7)
  int batch_size = 32;              // per-VW minibatch size
  bool search_orders = true;        // try all distinct GPU orders
  // Partitioner search-tier knobs (plan | max_nm). `strategy` must name a
  // partition::SearchStrategy ("auto" | "exact" | "beam" | "hierarchical");
  // anything else is a bad_request. The response echoes the RESOLVED strategy
  // (auto never survives resolution), and non-exact resolutions fold these
  // knobs into the partition-cache key exactly like the batch benches do.
  std::string strategy = "auto";
  int beam_width = 8;          // beam search width (kBeam + coarse overflow)
  int rack_order_limit = 720;  // hierarchical within-rack enumeration cap

  // Serializes through the ResultRow JSON machinery (kProtocolVersion and
  // every non-default field).
  std::string ToJson() const;
};

// Decodes and validates a request payload. On failure returns false with
// `code`/`error` describing the rejection; `out` is default-initialized
// except for any fields decoded before the failure (callers must not use it
// on failure beyond error reporting).
bool ParsePlanRequest(const std::string& payload, PlanRequest* out, ErrorCode* code,
                      std::string* error);

}  // namespace hetpipe::serve
