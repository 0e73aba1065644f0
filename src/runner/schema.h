#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace hetpipe::runner {

class ResultRow;

// The one value type of the results pipeline; ResultRow::Value aliases it.
using Value = std::variant<bool, int64_t, double, std::string>;

// The four value types a ResultRow field can carry, in the order they appear
// in Value. The numeric values are part of the store file format
// (store::ExtentWriter serializes them), so they are append-only.
enum class ValueType : uint8_t {
  kBool = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};
const char* ValueTypeName(ValueType type);

// The ValueType of a Value's active alternative.
ValueType TypeOfValue(const Value& value);

// One named, typed column of a result set.
struct Column {
  std::string name;
  ValueType type = ValueType::kString;
};

// The explicit schema of a stream of ResultRows: ordered, typed columns
// derived row by row. store::ExtentWriter owns the typed schema of each .hds
// file; CsvSink keeps one only for its column order. The evolution policy:
//
//   * A key first seen in any row appends a column, in first-seen order.
//   * A column that observes both kInt64 and kDouble values promotes to
//     kDouble (the only silent widening; int64s beyond 2^53 lose precision
//     in typed storage, which docs/result-store.md documents).
//   * Any other type conflict keeps the column's established type and is
//     counted in conflicts(); the store nulls out the conflicting value,
//     while text output (JSONL/CSV) renders the original value, since
//     rendering never depends on the column type.
//
// Plain value type — not thread-safe; sinks observe rows sequentially.
class Schema {
 public:
  // Folds one row into the schema per the evolution policy.
  void Observe(const ResultRow& row);

  const std::vector<Column>& columns() const { return columns_; }
  size_t size() const { return columns_.size(); }
  // Index of `name`, or -1 when absent.
  int IndexOf(const std::string& name) const;

  // Values observed with a type that neither matched their column nor was
  // absorbed by int64->double promotion.
  int64_t conflicts() const { return conflicts_; }

  // The row's values aligned to columns(): result[i] points at the row's
  // value for columns()[i], or is nullptr where the row has no such field.
  std::vector<const Value*> Project(const ResultRow& row) const;

 private:
  std::vector<Column> columns_;
  int64_t conflicts_ = 0;
};

}  // namespace hetpipe::runner
