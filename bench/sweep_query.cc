// Query tool over .hds columnar result files (src/store/): scan, filter,
// project, sort, and merge-join sweeps without re-running them. Reads the
// typed columns the store preserves (so `--where=throughput_img_s>=40` is a
// numeric comparison, not a string one) and emits through the same sinks
// every bench writes with — the output of a query is itself a result file,
// so queries compose (.hds in, .hds out). Inputs are recognized by content,
// not name: a partition cache file (runner/partition_cache.h) is a store too,
// so `sweep_query run.cache --select=key` lists its keys.
//
// Usage: sweep_query FILE.hds [flags]
//
// Flags: --where=KEY(=|!=|<|<=|>|>=)VALUE  keep rows matching the predicate
//                                          (repeatable; predicates AND)
//        --select=K1,K2,...                keep only these fields, this order
//        --sort=K1,K2,...                  stable sort by these keys
//        --join=FILE2.hds                  merge-join against a second file
//        --on=K1,K2,...                    join keys (required with --join);
//                                          right-side non-key fields that
//                                          collide with a left name get a
//                                          "_r" suffix
//        --out=PATH --json[=PATH] --csv[=PATH]  output (default: JSONL to
//                                          stdout)
//
// Pipeline order: join, then where, then sort, then select. Comparisons
// (predicates, sort keys, join keys) are typed: numeric for int64/double
// columns (an int64 compares exactly against an int64), false<true for
// bools, lexicographic for strings; a row missing the key sorts first and
// fails every predicate.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "runner/cli.h"
#include "runner/result_sink.h"
#include "store/extent_reader.h"

namespace {

using hetpipe::runner::ResultRow;
using Value = hetpipe::runner::Value;

enum class Op { kEq, kNe, kLt, kLe, kGt, kGe };

struct Predicate {
  std::string key;
  Op op = Op::kEq;
  Value literal;
};

// The literal's most specific reading: bool for true/false, int64 for a full
// integer token, double for a full float token, else the string itself.
Value ParseLiteral(const std::string& token) {
  if (token == "true") {
    return Value(true);
  }
  if (token == "false") {
    return Value(false);
  }
  int64_t as_int = 0;
  {
    const char* begin = token.c_str();
    const auto [ptr, ec] = std::from_chars(begin, begin + token.size(), as_int);
    if (ec == std::errc() && ptr == begin + token.size() && !token.empty()) {
      return Value(as_int);
    }
  }
  {
    char* end = nullptr;
    const double as_double = std::strtod(token.c_str(), &end);
    if (!token.empty() && end == token.c_str() + token.size()) {
      return Value(as_double);
    }
  }
  return Value(token);
}

bool IsNumeric(const Value& v) {
  return std::holds_alternative<int64_t>(v) || std::holds_alternative<double>(v);
}

double AsDouble(const Value& v) {
  return std::holds_alternative<int64_t>(v) ? static_cast<double>(std::get<int64_t>(v))
                                            : std::get<double>(v);
}

// Three-way typed comparison; nullptr (field absent) sorts before anything.
// Cross-type pairs order by ValueType index — arbitrary but total, so sorts
// and joins stay well-defined on schema-conflicted columns.
int CompareValues(const Value* a, const Value* b) {
  if (a == nullptr || b == nullptr) {
    return (a != nullptr) - (b != nullptr);
  }
  if (std::holds_alternative<int64_t>(*a) && std::holds_alternative<int64_t>(*b)) {
    const int64_t x = std::get<int64_t>(*a);
    const int64_t y = std::get<int64_t>(*b);
    return (x > y) - (x < y);
  }
  if (IsNumeric(*a) && IsNumeric(*b)) {
    const double x = AsDouble(*a);
    const double y = AsDouble(*b);
    return (x > y) - (x < y);
  }
  if (std::holds_alternative<bool>(*a) && std::holds_alternative<bool>(*b)) {
    return static_cast<int>(std::get<bool>(*a)) - static_cast<int>(std::get<bool>(*b));
  }
  if (std::holds_alternative<std::string>(*a) && std::holds_alternative<std::string>(*b)) {
    const int c = std::get<std::string>(*a).compare(std::get<std::string>(*b));
    return (c > 0) - (c < 0);
  }
  const int x = static_cast<int>(a->index());
  const int y = static_cast<int>(b->index());
  return (x > y) - (x < y);
}

bool Matches(const ResultRow& row, const Predicate& predicate) {
  const Value* value = row.FindValue(predicate.key);
  if (value == nullptr) {
    return false;
  }
  const int c = CompareValues(value, &predicate.literal);
  switch (predicate.op) {
    case Op::kEq:
      return c == 0;
    case Op::kNe:
      return c != 0;
    case Op::kLt:
      return c < 0;
    case Op::kLe:
      return c <= 0;
    case Op::kGt:
      return c > 0;
    case Op::kGe:
      return c >= 0;
  }
  return false;
}

// KEY(OP)VALUE with the two-character operators tried first, so "x<=3" is
// kLe on "x", not kLt on "x" against "=3".
bool ParsePredicate(const std::string& text, Predicate* out, std::string* error) {
  struct Spelling {
    const char* token;
    Op op;
  };
  static const Spelling kSpellings[] = {
      {"!=", Op::kNe}, {"<=", Op::kLe}, {">=", Op::kGe},
      {"=", Op::kEq},  {"<", Op::kLt},  {">", Op::kGt},
  };
  size_t best_pos = std::string::npos;
  const Spelling* best = nullptr;
  for (const Spelling& spelling : kSpellings) {
    const size_t pos = text.find(spelling.token);
    if (pos != std::string::npos && pos > 0 &&
        (best == nullptr || pos < best_pos ||
         (pos == best_pos && std::string(spelling.token).size() > std::string(best->token).size()))) {
      best_pos = pos;
      best = &spelling;
    }
  }
  if (best == nullptr) {
    *error = "--where needs KEY(=|!=|<|<=|>|>=)VALUE, got \"" + text + "\"";
    return false;
  }
  out->key = text.substr(0, best_pos);
  out->op = best->op;
  out->literal = ParseLiteral(text.substr(best_pos + std::string(best->token).size()));
  return true;
}

std::vector<std::string> SplitKeys(const std::string& text) {
  std::vector<std::string> keys;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t comma = text.find(',', start);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) {
      keys.push_back(text.substr(start, end - start));
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return keys;
}

// Typed three-way comparison over a key tuple.
int CompareByKeys(const ResultRow& a, const ResultRow& b, const std::vector<std::string>& keys) {
  for (const std::string& key : keys) {
    const int c = CompareValues(a.FindValue(key), b.FindValue(key));
    if (c != 0) {
      return c;
    }
  }
  return 0;
}

ResultRow SetValue(ResultRow row, const std::string& key, const Value& value) {
  struct Visitor {
    ResultRow* row;
    const std::string* key;
    void operator()(bool v) const { row->Set(*key, v); }
    void operator()(int64_t v) const { row->Set(*key, v); }
    void operator()(double v) const { row->Set(*key, v); }
    void operator()(const std::string& v) const { row->Set(*key, v); }
  };
  std::visit(Visitor{&row, &key}, value);
  return row;
}

// One joined row: every left field, then the right row's non-key fields
// (suffixed "_r" when the name collides with any left field).
ResultRow JoinRows(const ResultRow& left, const ResultRow& right,
                   const std::vector<std::string>& keys) {
  ResultRow out = left;
  for (const auto& [key, value] : right.fields()) {
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) {
      continue;
    }
    const std::string name = left.FindValue(key) != nullptr ? key + "_r" : key;
    out = SetValue(std::move(out), name, value);
  }
  return out;
}

// Sort-merge join; rows within an equal-key group pair up as a cartesian
// product, preserving each side's (sorted) order.
std::vector<ResultRow> MergeJoin(std::vector<ResultRow> left, std::vector<ResultRow> right,
                                 const std::vector<std::string>& keys) {
  const auto by_keys = [&keys](const ResultRow& a, const ResultRow& b) {
    return CompareByKeys(a, b, keys) < 0;
  };
  std::stable_sort(left.begin(), left.end(), by_keys);
  std::stable_sort(right.begin(), right.end(), by_keys);
  std::vector<ResultRow> joined;
  size_t l = 0;
  size_t r = 0;
  while (l < left.size() && r < right.size()) {
    const int c = CompareByKeys(left[l], right[r], keys);
    if (c < 0) {
      ++l;
    } else if (c > 0) {
      ++r;
    } else {
      size_t l_end = l + 1;
      while (l_end < left.size() && CompareByKeys(left[l], left[l_end], keys) == 0) {
        ++l_end;
      }
      size_t r_end = r + 1;
      while (r_end < right.size() && CompareByKeys(right[r], right[r_end], keys) == 0) {
        ++r_end;
      }
      for (size_t i = l; i < l_end; ++i) {
        for (size_t j = r; j < r_end; ++j) {
          joined.push_back(JoinRows(left[i], right[j], keys));
        }
      }
      l = l_end;
      r = r_end;
    }
  }
  return joined;
}

// Any file that does not read as a store — whatever its name, and whether it
// is foreign, truncated or corrupt — is a clean error and exit 2.
std::vector<ResultRow> LoadStore(const std::string& path) {
  std::vector<ResultRow> rows;
  std::string error;
  if (!hetpipe::store::ReadAllRows(path, &rows, &error)) {
    std::fprintf(stderr, "error: sweep_query reads .hds store files: %s\n", error.c_str());
    std::exit(2);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  hetpipe::runner::BenchArgs args = hetpipe::runner::BenchArgs::Parse(argc, argv);

  std::string input_path;
  std::string join_path;
  std::vector<Predicate> predicates;
  std::vector<std::string> select_keys;
  std::vector<std::string> sort_keys;
  std::vector<std::string> join_keys;
  for (const std::string& arg : args.rest) {
    const auto flag_value = [&arg](const char* flag) -> const char* {
      const std::string prefix = std::string("--") + flag + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size() : nullptr;
    };
    if (const char* v = flag_value("where")) {
      Predicate predicate;
      std::string error;
      if (!ParsePredicate(v, &predicate, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
      }
      predicates.push_back(std::move(predicate));
    } else if (const char* v = flag_value("select")) {
      select_keys = SplitKeys(v);
    } else if (const char* v = flag_value("sort")) {
      sort_keys = SplitKeys(v);
    } else if (const char* v = flag_value("join")) {
      join_path = v;
    } else if (const char* v = flag_value("on")) {
      join_keys = SplitKeys(v);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    } else if (input_path.empty()) {
      input_path = arg;
    } else {
      std::fprintf(stderr, "error: more than one input file (%s, %s); join with --join=FILE\n",
                   input_path.c_str(), arg.c_str());
      return 2;
    }
  }
  if (input_path.empty()) {
    std::fprintf(stderr, "usage: sweep_query FILE.hds [--where=K=V ...] [--select=K,...] "
                         "[--sort=K,...] [--join=FILE.hds --on=K,...] [--out=PATH]\n");
    return 2;
  }
  if (!join_path.empty() && join_keys.empty()) {
    std::fprintf(stderr, "error: --join needs --on=KEY[,KEY...]\n");
    return 2;
  }
  if (join_path.empty() && !join_keys.empty()) {
    std::fprintf(stderr, "error: --on without --join\n");
    return 2;
  }

  std::vector<ResultRow> rows = LoadStore(input_path);
  const size_t rows_scanned = rows.size();
  size_t rows_joined_against = 0;
  if (!join_path.empty()) {
    std::vector<ResultRow> right = LoadStore(join_path);
    rows_joined_against = right.size();
    rows = MergeJoin(std::move(rows), std::move(right), join_keys);
  }

  if (!predicates.empty()) {
    std::vector<ResultRow> kept;
    kept.reserve(rows.size());
    for (ResultRow& row : rows) {
      bool matches = true;
      for (const Predicate& predicate : predicates) {
        matches = matches && Matches(row, predicate);
      }
      if (matches) {
        kept.push_back(std::move(row));
      }
    }
    rows = std::move(kept);
  }

  if (!sort_keys.empty()) {
    std::stable_sort(rows.begin(), rows.end(),
                     [&sort_keys](const ResultRow& a, const ResultRow& b) {
                       return CompareByKeys(a, b, sort_keys) < 0;
                     });
  }

  if (!select_keys.empty()) {
    for (ResultRow& row : rows) {
      ResultRow projected;
      for (const std::string& key : select_keys) {
        const Value* value = row.FindValue(key);
        if (value != nullptr) {
          projected = SetValue(std::move(projected), key, *value);
        }
      }
      row = std::move(projected);
    }
  }

  hetpipe::runner::JsonlSink stdout_sink(std::cout);
  hetpipe::runner::ResultSink* sink = args.sink();
  if (sink == nullptr) {
    sink = &stdout_sink;
  }
  for (const ResultRow& row : rows) {
    sink->Write(row);
  }
  sink->Flush();

  if (rows_joined_against > 0) {
    std::fprintf(stderr, "sweep_query: %zu x %zu rows joined, %zu rows out\n", rows_scanned,
                 rows_joined_against, rows.size());
  } else {
    std::fprintf(stderr, "sweep_query: %zu rows scanned, %zu rows out\n", rows_scanned,
                 rows.size());
  }
  return 0;
}
