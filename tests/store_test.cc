// Tests for the .hds columnar result store (src/store/): exact round trips
// over every value type (including NaN, the infinities, control characters,
// and embedded NULs), schema evolution mid-file, a seeded randomized
// round-trip property test, and the hard corruption guarantee — a truncated
// or bit-flipped file must fail with an error, never crash or return wrong
// rows. The whole suite also runs under the ASan/UBSan and TSan lanes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "runner/result_sink.h"
#include "runner/schema.h"
#include "store/extent_reader.h"
#include "store/extent_writer.h"
#include "util/binary_io.h"

namespace hetpipe::store {
namespace {

using runner::ResultRow;
using runner::RowToJson;
using runner::ValueType;

// Unique path per test; the fixture removes it (and its .tmp twin).
class StoreTest : public ::testing::Test {
 protected:
  std::string Path() {
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string("store_test_") + info->test_suite_name() + "_" + info->name() + ".hds";
  }
  void TearDown() override {
    std::remove(Path().c_str());
    std::remove((Path() + ".tmp").c_str());
  }
};

void WriteStore(const std::string& path, const std::vector<ResultRow>& rows,
               WriterOptions options = {}) {
  std::string error;
  std::unique_ptr<ExtentWriter> writer = ExtentWriter::Open(path, &error, options);
  ASSERT_NE(writer, nullptr) << error;
  for (const ResultRow& row : rows) {
    writer->Append(row);
  }
  ASSERT_TRUE(writer->Finalize(&error)) << error;
}

// Typed field-for-field equality (RowToJson would collapse NaN and the
// infinities to null, hiding a lossy round trip).
void ExpectRowsEqual(const ResultRow& actual, const ResultRow& expected) {
  ASSERT_EQ(actual.fields().size(), expected.fields().size())
      << RowToJson(actual) << " vs " << RowToJson(expected);
  for (size_t i = 0; i < actual.fields().size(); ++i) {
    const auto& [key_a, value_a] = actual.fields()[i];
    const auto& [key_e, value_e] = expected.fields()[i];
    EXPECT_EQ(key_a, key_e);
    ASSERT_EQ(value_a.index(), value_e.index()) << "field " << key_e;
    if (const auto* d = std::get_if<double>(&value_e)) {
      const double got = std::get<double>(value_a);
      if (std::isnan(*d)) {
        EXPECT_TRUE(std::isnan(got)) << "field " << key_e;
      } else {
        EXPECT_EQ(got, *d) << "field " << key_e;  // bit-exact, covers ±inf
      }
    } else {
      EXPECT_TRUE(value_a == value_e) << "field " << key_e;
    }
  }
}

TEST_F(StoreTest, RoundTripsEveryValueType) {
  std::vector<ResultRow> rows;
  ResultRow row;
  row.Set("b_true", true)
      .Set("b_false", false)
      .Set("i_zero", static_cast<int64_t>(0))
      .Set("i_neg", static_cast<int64_t>(-12345))
      .Set("i_min", std::numeric_limits<int64_t>::min())
      .Set("i_max", std::numeric_limits<int64_t>::max())
      .Set("d_pi", 3.14159265358979)
      .Set("d_nan", std::numeric_limits<double>::quiet_NaN())
      .Set("d_inf", std::numeric_limits<double>::infinity())
      .Set("d_ninf", -std::numeric_limits<double>::infinity())
      .Set("d_denorm", std::numeric_limits<double>::denorm_min())
      .Set("s_plain", "hello")
      .Set("s_empty", "")
      .Set("s_ctrl", std::string("a\tb\nc\x01"))
      .Set("s_nul", std::string("x\0y", 3))
      .Set("s_quote", "she said \"hi\\there\"");
  rows.push_back(row);
  rows.push_back(row);  // repeated strings exercise the dictionary encoding

  WriteStore(Path(), rows);
  std::vector<ResultRow> read_back;
  std::string error;
  ASSERT_TRUE(ReadAllRows(Path(), &read_back, &error)) << error;
  ASSERT_EQ(read_back.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ExpectRowsEqual(read_back[i], rows[i]);
  }
}

TEST_F(StoreTest, SchemaEvolvesMidFileAcrossExtents) {
  // Tiny extents force the schema change to land in a later extent than the
  // first rows: early rows must read back without the late fields, late rows
  // with them, across the extent boundary.
  WriterOptions options;
  options.extent_target_bytes = 64;
  std::vector<ResultRow> rows;
  for (int i = 0; i < 50; ++i) {
    ResultRow row;
    row.Set("name", "r" + std::to_string(i)).Set("x", i);
    if (i >= 25) {
      row.Set("late_metric", i * 0.5).Set("late_flag", i % 2 == 0);
    }
    rows.push_back(std::move(row));
  }
  WriteStore(Path(), rows, options);

  std::string error;
  std::unique_ptr<ExtentReader> reader = ExtentReader::Open(Path(), &error);
  ASSERT_NE(reader, nullptr) << error;
  std::vector<ResultRow> read_back;
  Extent extent;
  int extents = 0;
  while (true) {
    const ExtentReader::Next next = reader->Read(&extent, &error);
    ASSERT_NE(next, ExtentReader::Next::kError) << error;
    if (next == ExtentReader::Next::kEnd) {
      break;
    }
    ++extents;
    for (size_t r = 0; r < extent.num_rows(); ++r) {
      read_back.push_back(extent.Row(r));
    }
  }
  EXPECT_GT(extents, 1);  // the tiny target actually split the file
  EXPECT_EQ(reader->total_rows(), 50);
  EXPECT_EQ(reader->total_extents(), extents);
  ASSERT_EQ(read_back.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ExpectRowsEqual(read_back[i], rows[i]);
  }
}

TEST_F(StoreTest, SeededRandomRowsRoundTripExactly) {
  // Property test: random rows over a pool of typed columns, random subsets
  // present per row, extreme values mixed in, many small extents. Types stay
  // consistent per column so every value is representable in typed storage.
  std::mt19937_64 rng(20260807);
  const int kNumRows = 2000;
  static const char* kStringPool[] = {"alpha", "beta", "", "va\"l,ue", "line\nbreak", "zz"};
  std::vector<ResultRow> rows;
  rows.reserve(kNumRows);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> pick(0, 5);
  std::uniform_int_distribution<int64_t> any_int(std::numeric_limits<int64_t>::min(),
                                                 std::numeric_limits<int64_t>::max());
  std::uniform_real_distribution<double> any_double(-1e12, 1e12);
  for (int i = 0; i < kNumRows; ++i) {
    ResultRow row;
    row.Set("id", static_cast<int64_t>(i));  // always present, always first
    if (coin(rng) != 0) {
      row.Set("flag", coin(rng) != 0);
    }
    if (coin(rng) != 0) {
      row.Set("small_int", static_cast<int64_t>(pick(rng)));
    }
    if (coin(rng) != 0) {
      row.Set("wild_int", any_int(rng));
    }
    if (coin(rng) != 0) {
      const int special = pick(rng);
      const double value = special == 0   ? std::numeric_limits<double>::quiet_NaN()
                           : special == 1 ? std::numeric_limits<double>::infinity()
                                          : any_double(rng);
      row.Set("metric", value);
    }
    if (coin(rng) != 0) {
      row.Set("label", kStringPool[pick(rng)]);
    }
    if (coin(rng) != 0) {
      row.Set("unique_tag", "tag-" + std::to_string(any_int(rng)));
    }
    rows.push_back(std::move(row));
  }

  WriterOptions options;
  options.extent_target_bytes = 900;
  WriteStore(Path(), rows, options);
  std::vector<ResultRow> read_back;
  std::string error;
  ASSERT_TRUE(ReadAllRows(Path(), &read_back, &error)) << error;
  ASSERT_EQ(read_back.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ExpectRowsEqual(read_back[i], rows[i]);
  }
}

TEST_F(StoreTest, StoreSinkMatchesJsonlSinkThroughResultSinkInterface) {
  std::ostringstream jsonl;
  runner::JsonlSink jsonl_sink(jsonl);
  std::string error;
  std::unique_ptr<StoreSink> store_sink = StoreSink::Open(Path(), &error);
  ASSERT_NE(store_sink, nullptr) << error;
  runner::MultiSink multi;
  multi.AddSink(&jsonl_sink);
  multi.AddSink(store_sink.get());
  for (int i = 0; i < 10; ++i) {
    ResultRow row;
    row.Set("name", "r" + std::to_string(i)).Set("v", i * 1.5).Set("ok", i % 2 == 0);
    multi.Write(row);
  }
  multi.Flush();
  ASSERT_TRUE(store_sink->Close(&error)) << error;

  std::vector<ResultRow> read_back;
  ASSERT_TRUE(ReadAllRows(Path(), &read_back, &error)) << error;
  std::string rendered;
  for (const ResultRow& row : read_back) {
    rendered += RowToJson(row) + "\n";
  }
  EXPECT_EQ(rendered, jsonl.str());
}

TEST_F(StoreTest, TypeConflictedValueReadsBackAsNull) {
  // Column "v" establishes kString; the int64 that follows is a schema
  // conflict — typed storage nulls it (the JSONL sinks would still render
  // it, which is the documented asymmetry).
  std::vector<ResultRow> rows;
  ResultRow a;
  a.Set("name", "r0").Set("v", "text");
  ResultRow b;
  b.Set("name", "r1").Set("v", 7);
  rows.push_back(a);
  rows.push_back(b);
  WriteStore(Path(), rows);

  std::vector<ResultRow> read_back;
  std::string error;
  ASSERT_TRUE(ReadAllRows(Path(), &read_back, &error)) << error;
  ASSERT_EQ(read_back.size(), 2u);
  EXPECT_EQ(read_back[0].Find("v"), "text");
  EXPECT_EQ(read_back[1].Find("v"), std::nullopt);
  EXPECT_EQ(read_back[1].Find("name"), "r1");
}

TEST_F(StoreTest, EmptyFileRoundTrips) {
  WriteStore(Path(), {});
  std::vector<ResultRow> read_back;
  std::string error;
  ASSERT_TRUE(ReadAllRows(Path(), &read_back, &error)) << error;
  EXPECT_TRUE(read_back.empty());
}

TEST_F(StoreTest, UnfinalizedTempFileIsNotReadable) {
  std::string error;
  std::unique_ptr<ExtentWriter> writer = ExtentWriter::Open(Path(), &error);
  ASSERT_NE(writer, nullptr) << error;
  ResultRow row;
  row.Set("x", 1);
  writer->Append(row);
  ASSERT_TRUE(writer->Flush(&error)) << error;

  // Before Finalize, nothing exists at the final path (crash safety)...
  std::vector<ResultRow> rows;
  EXPECT_FALSE(ReadAllRows(Path(), &rows, &error));
  // ...and the temp file, even when readable, has no trailer.
  rows.clear();
  EXPECT_FALSE(ReadAllRows(Path() + ".tmp", &rows, &error));
  EXPECT_NE(error.find("trailer"), std::string::npos) << error;

  ASSERT_TRUE(writer->Finalize(&error)) << error;
  rows.clear();
  ASSERT_TRUE(ReadAllRows(Path(), &rows, &error)) << error;
  EXPECT_EQ(rows.size(), 1u);
}

TEST_F(StoreTest, AppendAfterFinalizeIsAStickyError) {
  std::string error;
  std::unique_ptr<ExtentWriter> writer = ExtentWriter::Open(Path(), &error);
  ASSERT_NE(writer, nullptr) << error;
  ResultRow row;
  row.Set("x", 1);
  writer->Append(row);
  ASSERT_TRUE(writer->Finalize(&error)) << error;
  writer->Append(row);
  EXPECT_FALSE(writer->Finalize(&error));
  EXPECT_NE(error.find("Append after Finalize"), std::string::npos) << error;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<ResultRow> CorruptionSampleRows() {
  std::vector<ResultRow> rows;
  for (int i = 0; i < 40; ++i) {
    ResultRow row;
    row.Set("name", "row" + std::to_string(i % 5))
        .Set("step", static_cast<int64_t>(i))
        .Set("ok", i % 3 == 0)
        .Set("v", i * 0.25);
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST_F(StoreTest, EveryTruncationFailsCleanly) {
  WriterOptions options;
  options.extent_target_bytes = 256;  // several extents
  WriteStore(Path(), CorruptionSampleRows(), options);
  const std::string bytes = ReadFileBytes(Path());
  ASSERT_GT(bytes.size(), 100u);

  for (size_t length = 0; length < bytes.size(); ++length) {
    WriteFileBytes(Path(), bytes.substr(0, length));
    std::vector<ResultRow> rows;
    std::string error;
    EXPECT_FALSE(ReadAllRows(Path(), &rows, &error)) << "length " << length;
    EXPECT_FALSE(error.empty()) << "length " << length;
  }
}

TEST_F(StoreTest, EveryBitFlipFailsCleanlyOrNotAtAll) {
  WriteStore(Path(), CorruptionSampleRows());
  const std::string bytes = ReadFileBytes(Path());

  // Flipping any single bit anywhere in the file must never crash, and —
  // because every payload and the trailer are checksummed and the header
  // fields are validated — must always be detected.
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 7) {  // low and high bit of every byte
      std::string corrupted = bytes;
      corrupted[i] = static_cast<char>(corrupted[i] ^ (1 << bit));
      WriteFileBytes(Path(), corrupted);
      std::vector<ResultRow> rows;
      std::string error;
      EXPECT_FALSE(ReadAllRows(Path(), &rows, &error)) << "byte " << i << " bit " << bit;
      EXPECT_FALSE(error.empty()) << "byte " << i << " bit " << bit;
    }
  }
}

TEST_F(StoreTest, GarbageAndWrongVersionAreRejectedAtOpen) {
  std::vector<ResultRow> rows;
  std::string error;
  EXPECT_FALSE(ReadAllRows("store_test_no_such_file.hds", &rows, &error));

  WriteFileBytes(Path(), "this is not a store file at all");
  EXPECT_FALSE(ReadAllRows(Path(), &rows, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  std::string header;
  util::PutU32(header, kStoreMagic);
  util::PutU32(header, kStoreVersion + 1);
  util::PutU32(header, 0);
  WriteFileBytes(Path(), header);
  EXPECT_FALSE(ReadAllRows(Path(), &rows, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

}  // namespace
}  // namespace hetpipe::store
