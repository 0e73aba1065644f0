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

// Destination for sweep results: a plain interface. Implementations are not
// required to be thread-safe: the sweep runner writes rows sequentially, in
// experiment order, after the parallel phase completes. The typed schema of
// a result stream lives in the one sink that stores types, the .hds writer
// (store::ExtentWriter).
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void Write(const ResultRow& row) = 0;
  // Pushes buffered output on; a no-op for sinks that buffer nothing.
  virtual void Flush() {}
};

// JSON Lines: one self-describing object per row, streamed as written in the
// row's own field order.
class JsonlSink : public ResultSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(&out) {}
  void Write(const ResultRow& row) override;

 private:
  std::ostream* out_;
};

// CSV with one header row. A CSV header cannot grow once it is in the
// stream, so the sink keeps every row and writes the header and all rows
// when it is destroyed: the header is the union of every row's keys in
// first-seen order, and a row lacking a column gets an empty cell. Flush
// writes nothing.
class CsvSink : public ResultSink {
 public:
  explicit CsvSink(std::ostream& out) : out_(&out) {}
  ~CsvSink() override;
  void Write(const ResultRow& row) override;

 private:
  std::ostream* out_;
  Schema schema_;  // first-seen column order; the types go unused
  std::vector<ResultRow> rows_;
};

// Fans rows out to several sinks (e.g. --json and --csv together).
class MultiSink : public ResultSink {
 public:
  void AddSink(ResultSink* sink) { sinks_.push_back(sink); }
  void Write(const ResultRow& row) override {
    for (ResultSink* sink : sinks_) {
      sink->Write(row);
    }
  }
  void Flush() override {
    for (ResultSink* sink : sinks_) {
      sink->Flush();
    }
  }
  bool empty() const { return sinks_.empty(); }

 private:
  std::vector<ResultSink*> sinks_;
};

}  // namespace hetpipe::runner
