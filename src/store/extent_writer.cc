#include "store/extent_writer.h"

#include <cstdio>
#include <unordered_map>

#include "util/binary_io.h"

namespace hetpipe::store {
namespace {

using runner::ResultRow;
using runner::ValueType;

// Rough in-memory footprint of a row, used only to decide when an extent is
// full; never serialized, so the estimate being approximate is harmless.
size_t ApproxRowBytes(const ResultRow& row) {
  size_t bytes = 0;
  for (const auto& [key, value] : row.fields()) {
    bytes += key.size() + 2;
    if (const auto* s = std::get_if<std::string>(&value)) {
      bytes += s->size() + 4;
    } else {
      bytes += 8;
    }
  }
  return bytes;
}

void SetBit(std::string& bitmap, size_t index) {
  bitmap[index / 8] = static_cast<char>(static_cast<unsigned char>(bitmap[index / 8]) |
                                        (1u << (index % 8)));
}

}  // namespace

std::unique_ptr<ExtentWriter> ExtentWriter::Open(const std::string& path, std::string* error,
                                                 WriterOptions options) {
  std::unique_ptr<ExtentWriter> writer(
      new ExtentWriter(path, path + ".tmp", options));
  writer->out_.open(writer->tmp_path_, std::ios::binary | std::ios::trunc);
  if (!writer->out_.is_open()) {
    if (error != nullptr) {
      *error = "cannot open " + writer->tmp_path_ + " for writing";
    }
    writer->finalized_ = true;  // nothing to finalize: no destructor warning
    return nullptr;
  }
  std::string header;
  util::PutU32(header, kStoreMagic);
  util::PutU32(header, kStoreVersion);
  util::PutU32(header, 0);  // flags: reserved, readers reject non-zero
  writer->out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!writer->out_.good()) {
    if (error != nullptr) {
      *error = "cannot write header to " + writer->tmp_path_;
    }
    return nullptr;
  }
  return writer;
}

ExtentWriter::ExtentWriter(std::string path, std::string tmp_path, WriterOptions options)
    : path_(std::move(path)), tmp_path_(std::move(tmp_path)), options_(options) {}

ExtentWriter::~ExtentWriter() {
  if (finalized_) {
    return;
  }
  std::string error;
  if (!Finalize(&error)) {
    std::fprintf(stderr, "warning: store file %s not finalized: %s\n", path_.c_str(),
                 error.c_str());
  }
}

void ExtentWriter::SetFailed(const std::string& message) {
  if (!failed_) {
    failed_ = true;
    first_error_ = message;
  }
}

void ExtentWriter::Append(const runner::ResultRow& row) {
  if (finalized_) {
    SetFailed("Append after Finalize on " + path_);
    return;
  }
  schema_.Observe(row);
  buffered_bytes_ += ApproxRowBytes(row);
  buffered_.push_back(row);
  ++total_rows_;
  if (buffered_bytes_ >= options_.extent_target_bytes) {
    std::string error;
    if (!WriteBufferedExtent(&error)) {
      SetFailed(error);
    }
  }
}

bool ExtentWriter::WriteBufferedExtent(std::string* error) {
  if (failed_) {
    if (error != nullptr) {
      *error = first_error_;
    }
    return false;
  }
  if (buffered_.empty()) {
    return true;
  }

  const std::vector<runner::Column>& columns = schema_.columns();
  const size_t num_rows = buffered_.size();

  // Transpose: one pass projecting every buffered row onto the schema.
  std::vector<std::vector<const ResultRow::Value*>> projected;
  projected.reserve(num_rows);
  for (const ResultRow& row : buffered_) {
    projected.push_back(schema_.Project(row));
  }

  std::string payload;
  util::PutU32(payload, static_cast<uint32_t>(columns.size()));
  for (const runner::Column& column : columns) {
    util::PutStr(payload, column.name);
    util::PutU8(payload, static_cast<uint8_t>(column.type));
  }
  util::PutU32(payload, static_cast<uint32_t>(num_rows));

  for (size_t c = 0; c < columns.size(); ++c) {
    const ValueType type = columns[c].type;
    std::string bitmap(( num_rows + 7) / 8, '\0');

    // A value is present when the row has the field and its type fits the
    // column (identical, or int64 on a promoted-to-double column). Anything
    // else is a conflict the schema already counted: store it as null and
    // warn once per column — the value is still intact in any text sink fed
    // from the same rows.
    std::vector<const ResultRow::Value*> present;
    present.reserve(num_rows);
    for (size_t r = 0; r < num_rows; ++r) {
      const ResultRow::Value* value = projected[r][c];
      if (value == nullptr) {
        continue;
      }
      const ValueType value_type = runner::TypeOfValue(*value);
      const bool storable =
          value_type == type || (type == ValueType::kDouble && value_type == ValueType::kInt64);
      if (!storable) {
        bool warned = false;
        for (const std::string& name : conflict_warned_) {
          warned = warned || name == columns[c].name;
        }
        if (!warned) {
          conflict_warned_.push_back(columns[c].name);
          std::fprintf(stderr,
                       "warning: store column \"%s\" (%s) dropped a %s value to null "
                       "(type conflict)\n",
                       columns[c].name.c_str(), ValueTypeName(type), ValueTypeName(value_type));
        }
        continue;
      }
      SetBit(bitmap, r);
      present.push_back(value);
    }

    std::string encoded;
    ColumnEncoding encoding = ColumnEncoding::kDoubleRaw;
    switch (type) {
      case ValueType::kBool: {
        encoding = ColumnEncoding::kBoolBitmap;
        // Row-aligned value bits; null rows are 0 bits (the null bitmap is
        // what distinguishes them from a present false).
        std::string bits((num_rows + 7) / 8, '\0');
        size_t p = 0;
        for (size_t r = 0; r < num_rows; ++r) {
          const ResultRow::Value* value = projected[r][c];
          const bool is_present =
              (static_cast<unsigned char>(bitmap[r / 8]) >> (r % 8)) & 1u;
          if (is_present) {
            if (std::get<bool>(*present[p])) {
              SetBit(bits, r);
            }
            ++p;
          }
          (void)value;
        }
        encoded = std::move(bits);
        break;
      }
      case ValueType::kInt64: {
        encoding = ColumnEncoding::kInt64ZigZag;
        // Delta vs the previous present value, zigzag so runs of similar
        // values (sweep grids counting up) stay one byte each. The delta is
        // computed mod 2^64, so INT64_MIN..INT64_MAX spans cannot overflow.
        uint64_t prev = 0;
        for (const ResultRow::Value* value : present) {
          const uint64_t v = static_cast<uint64_t>(std::get<int64_t>(*value));
          util::PutVarU64(encoded, util::ZigZagEncode(static_cast<int64_t>(v - prev)));
          prev = v;
        }
        break;
      }
      case ValueType::kDouble: {
        encoding = ColumnEncoding::kDoubleRaw;
        for (const ResultRow::Value* value : present) {
          const double d = std::holds_alternative<int64_t>(*value)
                               ? static_cast<double>(std::get<int64_t>(*value))
                               : std::get<double>(*value);
          util::PutF64(encoded, d);
        }
        break;
      }
      case ValueType::kString: {
        // One dictionary per extent: sweep rows repeat model names, cluster
        // labels, and policy strings endlessly, so indices beat raw bytes
        // whenever anything repeats at all.
        std::unordered_map<std::string, uint32_t> dict_index;
        std::vector<const std::string*> dict;
        for (const ResultRow::Value* value : present) {
          const std::string& s = std::get<std::string>(*value);
          if (dict_index.emplace(s, static_cast<uint32_t>(dict.size())).second) {
            dict.push_back(&s);
          }
        }
        if (dict.size() < present.size()) {
          encoding = ColumnEncoding::kStringDict;
          util::PutU32(encoded, static_cast<uint32_t>(dict.size()));
          for (const std::string* s : dict) {
            util::PutStr(encoded, *s);
          }
          for (const ResultRow::Value* value : present) {
            util::PutVarU64(encoded, dict_index.at(std::get<std::string>(*value)));
          }
        } else {
          encoding = ColumnEncoding::kStringRaw;
          for (const ResultRow::Value* value : present) {
            util::PutStr(encoded, std::get<std::string>(*value));
          }
        }
        break;
      }
    }

    payload += bitmap;
    util::PutU8(payload, static_cast<uint8_t>(encoding));
    util::PutU32(payload, static_cast<uint32_t>(encoded.size()));
    payload += encoded;
  }

  std::string framed;
  util::PutU32(framed, kExtentMarker);
  util::PutU32(framed, static_cast<uint32_t>(payload.size()));
  util::PutU64(framed, util::Fnv1aBytes(payload.data(), payload.size()));
  framed += payload;
  out_.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  if (!out_.good()) {
    const std::string message = "short write to " + tmp_path_;
    SetFailed(message);
    if (error != nullptr) {
      *error = message;
    }
    return false;
  }
  ++total_extents_;
  buffered_.clear();
  buffered_bytes_ = 0;
  return true;
}

bool ExtentWriter::Flush(std::string* error) {
  if (!WriteBufferedExtent(error)) {
    return false;
  }
  // A checkpoint that stays in the stream buffer is no checkpoint: push the
  // extent to the OS so a crash after Flush loses at most the trailer.
  out_.flush();
  if (!out_.good()) {
    SetFailed("short write to " + tmp_path_);
    if (error != nullptr) {
      *error = first_error_;
    }
    return false;
  }
  return true;
}

bool ExtentWriter::Finalize(std::string* error) {
  if (finalized_) {
    if (failed_ && error != nullptr) {
      *error = first_error_;
    }
    return !failed_;
  }
  finalized_ = true;
  if (!WriteBufferedExtent(error)) {
    out_.close();
    std::remove(tmp_path_.c_str());
    return false;
  }

  std::string totals;
  util::PutU64(totals, static_cast<uint64_t>(total_rows_));
  util::PutU64(totals, static_cast<uint64_t>(total_extents_));
  std::string trailer;
  util::PutU32(trailer, kTrailerMarker);
  trailer += totals;
  util::PutU64(trailer, util::Fnv1aBytes(totals.data(), totals.size()));
  out_.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
  out_.flush();
  if (!out_.good()) {
    SetFailed("short write to " + tmp_path_);
    if (error != nullptr) {
      *error = first_error_;
    }
    out_.close();
    std::remove(tmp_path_.c_str());
    return false;
  }
  out_.close();
  // Atomic swap, as in PartitionCache::Save: the previous file at `path`
  // survives any failure above, and a reader never sees a partial file.
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    SetFailed("cannot rename " + tmp_path_ + " to " + path_);
    if (error != nullptr) {
      *error = first_error_;
    }
    std::remove(tmp_path_.c_str());
    return false;
  }
  return true;
}

// ---- StoreSink ----

std::unique_ptr<StoreSink> StoreSink::Open(const std::string& path, std::string* error,
                                           WriterOptions options) {
  std::unique_ptr<ExtentWriter> writer = ExtentWriter::Open(path, error, options);
  if (writer == nullptr) {
    return nullptr;
  }
  return std::unique_ptr<StoreSink>(new StoreSink(std::move(writer)));
}

StoreSink::~StoreSink() {
  std::string error;
  if (!Close(&error)) {
    std::fprintf(stderr, "warning: %s\n", error.c_str());
  }
}

void StoreSink::Flush() {
  std::string error;
  if (!writer_->Flush(&error)) {
    // The error is sticky in the writer; Close (or the destructor) repeats
    // it for callers that can act on it.
    std::fprintf(stderr, "warning: %s\n", error.c_str());
  }
}

bool StoreSink::Close(std::string* error) {
  if (closed_) {
    return true;
  }
  closed_ = true;
  return writer_->Finalize(error);
}

}  // namespace hetpipe::store
