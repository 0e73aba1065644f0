#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "runner/result_sink.h"
#include "runner/schema.h"

namespace hetpipe::store {

// ---- The .hds ("hetpipe data store") columnar result format ----
//
// A sweep's rows as a sequence of typed, independently-checksummed extents,
// modeled on DataSeries (Anderson, FAST '09): instead of re-rendering every
// key string per row the way JSONL does, rows are buffered, transposed into
// per-column vectors, and written as compact typed blocks. Layout (all
// little-endian, via util/binary_io.h):
//
//   file   := header extent* trailer
//   header := u32 magic "HDS1" | u32 version | u32 flags (must be 0)
//   extent := u32 extent-marker | u32 payload_size | u64 fnv1a(payload)
//             | payload
//   payload:= u32 ncols { str name | u8 ValueType } * ncols
//             u32 nrows
//             { null bitmap ceil(nrows/8) | u8 encoding | u32 enc_size
//               | enc_size bytes } * ncols
//   trailer:= u32 trailer-marker | u64 total_rows | u64 total_extents
//             | u64 fnv1a(total_rows || total_extents)
//
// Each extent carries its own schema snapshot, so the schema can evolve
// mid-file (runner::Schema's evolution policy: first-seen column order,
// int64->double promotion); rows written before a column existed read back
// as nulls. Column encodings do the compression — the null bitmap plus:
//
//   kBoolBitmap     row-aligned bit per row (nulls are 0 bits)
//   kInt64ZigZag    zigzag varint of the delta vs the previous present value
//   kDoubleRaw      8 raw bytes per present value
//   kStringRaw      length-prefixed bytes per present value
//   kStringDict     u32 dict size, dict strings, varint index per present
//                   value (chosen whenever any string repeats)
//
// Append is streaming: a full extent is flushed to disk and dropped from
// memory, so a million-row sweep never holds more than one extent. The file
// is written as `path + ".tmp"` and renamed onto `path` by Finalize() — the
// write path PartitionCache::Save uses for cache files too — so a crash
// mid-sweep never leaves a half-written file under the final name, and a
// reader can trust that a finalized file ends in its trailer.

constexpr uint32_t kStoreMagic = 0x31534448;  // "HDS1"
constexpr uint32_t kStoreVersion = 1;
constexpr uint32_t kExtentMarker = 0x544e5458;  // "XTNT"
constexpr uint32_t kTrailerMarker = 0x444e4558;  // "XEND"
// An extent payload larger than this is a corrupt length prefix, not data.
constexpr uint32_t kMaxExtentPayloadBytes = 1u << 30;

enum class ColumnEncoding : uint8_t {
  kBoolBitmap = 0,
  kInt64ZigZag = 1,
  kDoubleRaw = 2,
  kStringRaw = 3,
  kStringDict = 4,
};

struct WriterOptions {
  // Approximate uncompressed row bytes buffered before an extent is cut.
  // Bigger extents compress strings better (one dictionary per extent) at
  // the cost of more memory and a coarser scan granularity.
  size_t extent_target_bytes = 64 * 1024;
};

// Streaming writer. Not thread-safe — like every ResultSink, rows arrive
// sequentially from the sweep runner's ordered emit phase.
class ExtentWriter {
 public:
  // Opens `path + ".tmp"` immediately (so an unwritable directory fails
  // loudly at open, not after the sweep); nullptr + `error` on failure.
  static std::unique_ptr<ExtentWriter> Open(const std::string& path, std::string* error,
                                            WriterOptions options = {});
  // Finalizes (with a stderr warning on failure) unless Finalize was called.
  ~ExtentWriter();

  ExtentWriter(const ExtentWriter&) = delete;
  ExtentWriter& operator=(const ExtentWriter&) = delete;

  // Buffers one row; cuts and writes an extent when the buffer reaches the
  // target size. I/O errors are sticky: they surface from Flush/Finalize.
  void Append(const runner::ResultRow& row);

  // Writes any buffered rows as an extent. Mid-stream checkpoint only — the
  // file is not readable until Finalize renames it into place.
  bool Flush(std::string* error);

  // Flushes, writes the trailer, and atomically renames the temp file onto
  // `path`. Idempotent; returns false (and leaves the previous file at
  // `path` untouched) on any I/O failure.
  bool Finalize(std::string* error);

  int64_t extents_written() const { return total_extents_; }

 private:
  ExtentWriter(std::string path, std::string tmp_path, WriterOptions options);

  bool WriteBufferedExtent(std::string* error);
  void SetFailed(const std::string& message);

  std::string path_;
  std::string tmp_path_;
  WriterOptions options_;
  std::ofstream out_;
  // The file's typed schema, the only one on the write path: StoreSink
  // hands rows straight to Append.
  runner::Schema schema_;
  std::vector<runner::ResultRow> buffered_;
  size_t buffered_bytes_ = 0;
  int64_t total_rows_ = 0;
  int64_t total_extents_ = 0;
  bool finalized_ = false;
  bool failed_ = false;
  std::string first_error_;
  // Columns whose values were dropped to null over a type conflict the
  // schema could not absorb, warned once each.
  std::vector<std::string> conflict_warned_;
};

// ResultSink adapter: wires the store into every bench via the sinks the
// sweep runner already writes to (`--out=results.hds`). Finalizes on
// destruction; a finalize failure is a loud stderr warning (the sink API has
// no error channel), and the previous file at `path`, if any, survives.
class StoreSink : public runner::ResultSink {
 public:
  // Fails loudly like BenchArgs::OpenOutput: nullptr + `error` when the
  // temp file cannot be created.
  static std::unique_ptr<StoreSink> Open(const std::string& path, std::string* error,
                                         WriterOptions options = {});
  ~StoreSink() override;

  void Write(const runner::ResultRow& row) override { writer_->Append(row); }
  void Flush() override;
  // Explicit finalization for callers that must observe the error.
  bool Close(std::string* error);

 private:
  explicit StoreSink(std::unique_ptr<ExtentWriter> writer) : writer_(std::move(writer)) {}
  std::unique_ptr<ExtentWriter> writer_;
  bool closed_ = false;
};

}  // namespace hetpipe::store
