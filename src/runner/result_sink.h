#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "runner/schema.h"

namespace hetpipe::runner {

// One machine-readable result record: an ordered list of named fields.
// A plain value type — not thread-safe; build each row on one thread.
class ResultRow {
 public:
  using Value = runner::Value;

  ResultRow& Set(std::string key, bool v) { return Add(std::move(key), Value(v)); }
  ResultRow& Set(std::string key, int v) {
    return Add(std::move(key), Value(static_cast<int64_t>(v)));
  }
  ResultRow& Set(std::string key, int64_t v) { return Add(std::move(key), Value(v)); }
  ResultRow& Set(std::string key, double v) { return Add(std::move(key), Value(v)); }
  ResultRow& Set(std::string key, std::string v) { return Add(std::move(key), Value(std::move(v))); }
  ResultRow& Set(std::string key, const char* v) { return Add(std::move(key), Value(std::string(v))); }

  const std::vector<std::pair<std::string, Value>>& fields() const { return fields_; }
  // Room for `n` fields, so a row built field by field allocates once.
  void Reserve(size_t n) { fields_.reserve(n); }

  // The typed value of `key`, or nullptr when the row has no such field —
  // the only accessor that distinguishes an absent key from an empty value.
  const Value* FindValue(const std::string& key) const;
  // Value of `key` rendered as in the JSON output (strings unquoted), or
  // nullopt when absent. An empty string value comes back as "" with a
  // present optional, never as nullopt.
  std::optional<std::string> Find(const std::string& key) const;
  // Find() collapsed for callers that treat absent and empty alike.
  std::string Get(const std::string& key) const {
    std::optional<std::string> value = Find(key);
    return value.has_value() ? *std::move(value) : std::string();
  }

 private:
  ResultRow& Add(std::string key, Value v) {
    fields_.emplace_back(std::move(key), std::move(v));
    return *this;
  }
  std::vector<std::pair<std::string, Value>> fields_;
};

// One row rendered as a single-line JSON object — exactly the line JsonlSink
// writes (keys in insertion order, strings escaped per RFC 8259, non-finite
// doubles as null), without the trailing newline. This is the one JSON
// encoder in the tree: the JSONL sinks, the serve wire protocol, and the
// serve clients all produce their objects through it, so escaping rules can
// never diverge between a bench row and a network frame.
std::string RowToJson(const ResultRow& row);

// Destination for sweep results. The base class owns the stream's Schema:
// Write() folds each row into it (one shared evolution policy — first-seen
// column order, int64->double promotion, frozen-header bookkeeping) before
// handing the row to the concrete sink, so sinks consume schema-checked
// typed values instead of re-discovering columns per row. Implementations
// are not required to be thread-safe: the sweep runner writes rows
// sequentially, in experiment order, after the parallel phase completes.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  void Write(const ResultRow& row) {
    schema_.Observe(row);
    WriteRow(row);
  }
  // Flushes buffered output (CSV needs the full column set before writing).
  virtual void Flush() {}
  // The typed schema accumulated over every row written so far.
  const Schema& schema() const { return schema_; }

 protected:
  // The row has already been folded into schema().
  virtual void WriteRow(const ResultRow& row) = 0;
  Schema schema_;
};

// JSON Lines: one self-describing object per row, streamed as written. Rows
// render from their own fields (insertion order), never from the schema —
// the refactor guarantee that no JSONL byte ever moves.
class JsonlSink : public ResultSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(&out) {}

 protected:
  void WriteRow(const ResultRow& row) override;

 private:
  std::ostream* out_;
};

// CSV with a header row. Rows are buffered until Flush (or destruction); the
// first Flush freezes the schema — the header is its column set at that
// point, the union of keys over the rows buffered so far, in first-seen
// order — and later flushes render their rows against those columns. A key
// first appearing after the header is out cannot get a column anymore (the
// header line is already in the stream); the schema records it past
// frozen_size(), and it is reported in dropped_columns() and warned about on
// stderr once, never dropped silently.
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(std::ostream& out) : out_(&out) {}
  ~CsvSink() override { Flush(); }
  void Flush() override;

  // Keys that appeared only after the header was written, in first-seen
  // order; their values never reached the output.
  const std::vector<std::string>& dropped_columns() const { return dropped_columns_; }

 protected:
  void WriteRow(const ResultRow& row) override { rows_.push_back(row); }

 private:
  std::ostream* out_;
  std::vector<ResultRow> rows_;
  bool header_written_ = false;
  std::vector<std::string> dropped_columns_;
};

// Fans rows out to several sinks (e.g. --json and --csv together). Each
// child folds its own schema, so a sink added mid-stream is not poisoned by
// rows it never saw.
class MultiSink : public ResultSink {
 public:
  void AddSink(ResultSink* sink) { sinks_.push_back(sink); }
  void Flush() override {
    for (ResultSink* sink : sinks_) {
      sink->Flush();
    }
  }
  bool empty() const { return sinks_.empty(); }

 protected:
  void WriteRow(const ResultRow& row) override {
    for (ResultSink* sink : sinks_) {
      sink->Write(row);
    }
  }

 private:
  std::vector<ResultSink*> sinks_;
};

}  // namespace hetpipe::runner
