#include "runner/schema.h"

#include "runner/result_sink.h"

namespace hetpipe::runner {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

ValueType TypeOfValue(const Value& value) {
  return static_cast<ValueType>(value.index());
}

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void Schema::Observe(const ResultRow& row) {
  for (const auto& [key, value] : row.fields()) {
    const ValueType type = TypeOfValue(value);
    const int index = IndexOf(key);
    if (index < 0) {
      columns_.push_back(Column{key, type});
      continue;
    }
    Column& column = columns_[static_cast<size_t>(index)];
    if (column.type == type) {
      continue;
    }
    // A column mixing int64 and double is numeric in spirit: widen it once
    // and absorb both (an int64 observed on a kDouble column is likewise not
    // a conflict — typed storage casts it). Every other mismatch keeps the
    // established type; the value still renders as itself in text sinks.
    if (column.type == ValueType::kInt64 && type == ValueType::kDouble) {
      column.type = ValueType::kDouble;
    } else if (!(column.type == ValueType::kDouble && type == ValueType::kInt64)) {
      ++conflicts_;
    }
  }
}

std::vector<const Value*> Schema::Project(const ResultRow& row) const {
  std::vector<const Value*> values(columns_.size(), nullptr);
  for (const auto& [key, value] : row.fields()) {
    const int index = IndexOf(key);
    if (index >= 0) {
      values[static_cast<size_t>(index)] = &value;
    }
  }
  return values;
}

}  // namespace hetpipe::runner
