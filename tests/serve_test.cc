#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "hw/cluster.h"
#include "hw/cluster_spec.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "model/transformer.h"
#include "oracles/golden.h"
#include "partition/partitioner.h"
#include "runner/partition_cache.h"
#include "runner/result_sink.h"
#include "serve/client.h"
#include "serve/plan_service.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace hetpipe::serve {
namespace {

// ---- Framing ----

struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
};

TEST(FramingTest, RoundTripsPayloads) {
  SocketPair pair;
  std::string error;
  for (const std::string& payload : {std::string("{}"), std::string("{\"k\":\"v\"}"),
                                    std::string(100000, 'x'), std::string()}) {
    ASSERT_TRUE(WriteFrame(pair.fds[0], payload, kDefaultMaxFrameBytes, &error)) << error;
    std::string read_back;
    ASSERT_EQ(ReadFrame(pair.fds[1], kDefaultMaxFrameBytes, &read_back, &error),
              FrameResult::kFrame)
        << error;
    EXPECT_EQ(read_back, payload);
  }
}

TEST(FramingTest, EofAtBoundaryVsMidFrame) {
  {
    SocketPair pair;
    ::close(pair.fds[0]);
    pair.fds[0] = -1;
    std::string payload, error;
    EXPECT_EQ(ReadFrame(pair.fds[1], kDefaultMaxFrameBytes, &payload, &error),
              FrameResult::kEof);
  }
  {
    SocketPair pair;
    // A length prefix promising 100 bytes, then EOF: a truncated frame.
    const uint32_t len = 100;
    char prefix[4];
    std::memcpy(prefix, &len, 4);
    ASSERT_EQ(::send(pair.fds[0], prefix, 4, 0), 4);
    ::close(pair.fds[0]);
    pair.fds[0] = -1;
    std::string payload, error;
    EXPECT_EQ(ReadFrame(pair.fds[1], kDefaultMaxFrameBytes, &payload, &error),
              FrameResult::kError);
    EXPECT_FALSE(error.empty());
  }
}

TEST(FramingTest, RefusesOversizedFrames) {
  SocketPair pair;
  std::string error;
  EXPECT_FALSE(WriteFrame(pair.fds[0], std::string(200, 'x'), 64, &error));
  EXPECT_FALSE(error.empty());

  // An oversized length prefix is refused before any payload is read.
  const uint32_t len = 1u << 30;
  char prefix[4];
  std::memcpy(prefix, &len, 4);
  ASSERT_EQ(::send(pair.fds[0], prefix, 4, 0), 4);
  std::string payload;
  error.clear();
  EXPECT_EQ(ReadFrame(pair.fds[1], kDefaultMaxFrameBytes, &payload, &error),
            FrameResult::kError);
  EXPECT_FALSE(error.empty());
}

// FrameReader (read-ahead) and the free ReadFrame share one decoder: the same
// byte stream must give the same frames, results and error strings.
struct ReadStep {
  FrameResult result;
  std::string payload;
  std::string error;
  bool operator==(const ReadStep& other) const {
    return result == other.result && payload == other.payload && error == other.error;
  }
};

// Reads `fd` to its end (or first error) with read-ahead on or off.
std::vector<ReadStep> ReadAll(int fd, bool read_ahead, uint32_t max_frame_bytes) {
  FrameReader reader(fd, read_ahead);
  std::vector<ReadStep> steps;
  for (int i = 0; i < 64; ++i) {
    ReadStep step;
    step.result = reader.Read(max_frame_bytes, &step.payload, &step.error);
    if (step.result != FrameResult::kFrame) step.payload.clear();
    steps.push_back(step);
    if (step.result != FrameResult::kFrame) break;
  }
  return steps;
}

std::string Frame(const std::string& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size());
  return std::string(reinterpret_cast<const char*>(&len), 4) + payload;
}

// Writes `chunks` to fds[0] one send each (a pause between them so the
// reader sees them apart), then closes it; reads fds[1] with both readers.
void ExpectSameFramesBothWays(const std::vector<std::string>& chunks,
                              const std::vector<ReadStep>& want,
                              uint32_t max_frame_bytes = kDefaultMaxFrameBytes) {
  for (bool read_ahead : {true, false}) {
    SocketPair pair;
    std::thread writer([&] {
      for (const std::string& chunk : chunks) {
        size_t sent = 0;
        while (sent < chunk.size()) {
          const ssize_t n = ::send(pair.fds[0], chunk.data() + sent, chunk.size() - sent, 0);
          ASSERT_GT(n, 0);
          sent += static_cast<size_t>(n);
        }
        if (chunks.size() > 1) std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      ::shutdown(pair.fds[0], SHUT_WR);
    });
    const std::vector<ReadStep> got = ReadAll(pair.fds[1], read_ahead, max_frame_bytes);
    writer.join();
    ASSERT_EQ(got.size(), want.size()) << "read_ahead " << read_ahead;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(got[i] == want[i])
          << "read_ahead " << read_ahead << " step " << i << ": result "
          << static_cast<int>(got[i].result) << " error \"" << got[i].error << "\"";
    }
  }
}

TEST(FrameReaderTest, TwoFramesInOneWrite) {
  ExpectSameFramesBothWays({Frame("{\"a\":1}") + Frame("{}")},
                           {{FrameResult::kFrame, "{\"a\":1}", ""},
                            {FrameResult::kFrame, "{}", ""},
                            {FrameResult::kEof, "", ""}});
}

TEST(FrameReaderTest, FrameDribbledOneBytePerWrite) {
  const std::string bytes = Frame("{\"op\":\"plan\"}") + Frame("");
  std::vector<std::string> chunks;
  for (char c : bytes) chunks.emplace_back(1, c);
  ExpectSameFramesBothWays(chunks, {{FrameResult::kFrame, "{\"op\":\"plan\"}", ""},
                                    {FrameResult::kFrame, "", ""},
                                    {FrameResult::kEof, "", ""}});
}

TEST(FrameReaderTest, PrefixSplitAcrossWrites) {
  const std::string bytes = Frame("hello");
  ExpectSameFramesBothWays({bytes.substr(0, 1), bytes.substr(1, 2), bytes.substr(3)},
                           {{FrameResult::kFrame, "hello", ""}, {FrameResult::kEof, "", ""}});
}

TEST(FrameReaderTest, BodyLargerThanTheBuffer) {
  std::string big(3 * kFrameReadAhead + 17, 'x');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>('a' + i % 26);
  const std::string just_over(kFrameReadAhead - 3, 'y');  // prefix + body > buffer
  ExpectSameFramesBothWays({Frame("{}") + Frame(big) + Frame(just_over) + Frame("z")},
                           {{FrameResult::kFrame, "{}", ""},
                            {FrameResult::kFrame, big, ""},
                            {FrameResult::kFrame, just_over, ""},
                            {FrameResult::kFrame, "z", ""},
                            {FrameResult::kEof, "", ""}});
}

TEST(FrameReaderTest, TruncationAndOversizeKeepTheirErrors) {
  const std::string frame = Frame("abcdef");
  ExpectSameFramesBothWays({frame + frame.substr(0, 2)},
                           {{FrameResult::kFrame, "abcdef", ""},
                            {FrameResult::kError, "", "stream ended inside a length prefix"}});
  ExpectSameFramesBothWays({frame.substr(0, 7)},
                           {{FrameResult::kError, "", "stream ended inside a frame payload"}});
  ExpectSameFramesBothWays(
      {Frame("ok") + Frame(std::string(65, 'x'))},
      {{FrameResult::kFrame, "ok", ""},
       {FrameResult::kError, "", "length prefix of 65 bytes exceeds the 64-byte bound"}},
      64);
}

TEST(FrameReaderTest, ResetDropsBufferedBytes) {
  SocketPair first, second;
  const std::string bytes = Frame("one") + Frame("stale");
  ASSERT_EQ(::send(first.fds[0], bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  const std::string fresh = Frame("two");
  ASSERT_EQ(::send(second.fds[0], fresh.data(), fresh.size(), 0),
            static_cast<ssize_t>(fresh.size()));
  FrameReader reader(first.fds[1]);
  std::string payload, error;
  ASSERT_EQ(reader.Read(kDefaultMaxFrameBytes, &payload, &error), FrameResult::kFrame);
  EXPECT_EQ(payload, "one");
  reader.Reset(second.fds[1]);
  ASSERT_EQ(reader.Read(kDefaultMaxFrameBytes, &payload, &error), FrameResult::kFrame);
  EXPECT_EQ(payload, "two");
}

TEST(FramingTest, WriteFrameSendsPrefixAndPayloadTogether) {
  SocketPair pair;
  std::string error;
  const std::string payload(2 * kFrameReadAhead, 'p');
  ASSERT_TRUE(WriteFrame(pair.fds[0], payload, kDefaultMaxFrameBytes, &error)) << error;
  ASSERT_TRUE(WriteFrame(pair.fds[0], "", kDefaultMaxFrameBytes, &error)) << error;
  std::string bytes(Frame(payload).size() + 4, '\0');
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(pair.fds[1], bytes.data() + got, bytes.size() - got);
    ASSERT_GT(n, 0);
    got += static_cast<size_t>(n);
  }
  EXPECT_EQ(bytes, Frame(payload) + Frame(""));
}

void IgnoreSignal(int) {}

TEST(FramingTest, WriteFrameResumesAfterPartialSends) {
  // A slow reader and a 1 ms interval timer whose handler does nothing and
  // does not restart calls: blocking sendmsg calls keep returning early,
  // after part of the frame or none of it, and WriteFrame must resume at the
  // right byte of the right iovec.
  SocketPair pair;
  const int small_buffer = 4096;
  ASSERT_EQ(::setsockopt(pair.fds[0], SOL_SOCKET, SO_SNDBUF, &small_buffer,
                         sizeof(small_buffer)),
            0);
  std::string payload(1 << 20, '\0');
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<char>(i * 131 % 251);
  std::string received;
  std::thread reader([&] {
    sigset_t alarm;
    sigemptyset(&alarm);
    sigaddset(&alarm, SIGALRM);
    pthread_sigmask(SIG_BLOCK, &alarm, nullptr);  // the writer takes every tick
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(pair.fds[1], chunk, sizeof(chunk));
      if (n <= 0) break;
      received.append(chunk, static_cast<size_t>(n));
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  struct sigaction action {};
  struct sigaction previous {};
  action.sa_handler = IgnoreSignal;
  sigemptyset(&action.sa_mask);
  ASSERT_EQ(::sigaction(SIGALRM, &action, &previous), 0);
  itimerval tick{{0, 1000}, {0, 1000}};
  ASSERT_EQ(::setitimer(ITIMER_REAL, &tick, nullptr), 0);
  std::string error;
  const bool written = WriteFrame(pair.fds[0], payload, 2u << 20, &error);
  tick = {};
  ::setitimer(ITIMER_REAL, &tick, nullptr);
  ::sigaction(SIGALRM, &previous, nullptr);
  ::shutdown(pair.fds[0], SHUT_WR);
  reader.join();
  ASSERT_TRUE(written) << error;
  EXPECT_TRUE(received == Frame(payload)) << "received " << received.size() << " bytes";
}

// ---- JSON reader ----

TEST(JsonReaderTest, DecodesFlatObjects) {
  std::map<std::string, JsonValue> object;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(
      R"({"s":"a\nbA","n":-1.5e2,"t":true,"f":false,"z":null,"raw":{"x":[1,2]}})",
      &object, &error))
      << error;
  EXPECT_EQ(object.at("s").type, JsonValue::Type::kString);
  EXPECT_EQ(object.at("s").str, "a\nbA");
  EXPECT_EQ(object.at("n").type, JsonValue::Type::kNumber);
  EXPECT_EQ(object.at("n").num, -150.0);
  EXPECT_TRUE(object.at("t").boolean);
  EXPECT_FALSE(object.at("f").boolean);
  EXPECT_EQ(object.at("z").type, JsonValue::Type::kNull);
  EXPECT_EQ(object.at("raw").type, JsonValue::Type::kRaw);
  EXPECT_EQ(object.at("raw").str, R"({"x":[1,2]})");
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  std::map<std::string, JsonValue> object;
  std::string error;
  for (const char* bad : {"", "[1]", "{\"a\":}", "{\"a\":1", "{\"a\":1}x", "{'a':1}",
                          "{\"a\":01e}", "{\"a\" 1}"}) {
    EXPECT_FALSE(ParseJsonObject(bad, &object, &error)) << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(JsonReaderTest, LaterDuplicateKeyWins) {
  std::map<std::string, JsonValue> object;
  std::string error;
  ASSERT_TRUE(ParseJsonObject(R"({"a":1,"a":2})", &object, &error));
  EXPECT_EQ(object.at("a").num, 2.0);
}

TEST(JsonReaderTest, NumbersFollowTheJsonGrammar) {
  std::map<std::string, JsonValue> object;
  std::string error;
  for (const char* bad : {"+1", "01", "-01", ".5", "1.", "-.5", "-", "1e", "1e+", "1.e5", "--1",
                          "1-2", "1e400", "-1e400", "1e-400", "1.5.2"}) {
    const std::string text = std::string("{\"n\":") + bad + "}";
    EXPECT_FALSE(ParseJsonObject(text, &object, &error)) << bad;
    EXPECT_NE(error.find("malformed number \"" + std::string(bad) + "\""), std::string::npos)
        << bad << ": " << error;
  }
  EXPECT_FALSE(ParseJsonObject("{\"n\":0x10}", &object, &error));  // 0, then junk
  const std::pair<const char*, double> kGood[] = {
      {"0", 0.0},           {"-0", -0.0},         {"0.5", 0.5},       {"-1.5e-2", -0.015},
      {"1E+2", 100.0},      {"10e0", 10.0},       {"1e-310", 1e-310}, {"2.5e-320", 2.5e-320},
      {"4.9406564584124654e-324", 4.9406564584124654e-324},
      {"1.7976931348623157e308", 1.7976931348623157e308},
      {"123456789012345678901234567890", 1.2345678901234568e29}};
  for (const auto& [text, value] : kGood) {
    ASSERT_TRUE(ParseJsonObject(std::string("{\"n\":") + text + "}", &object, &error))
        << text << ": " << error;
    EXPECT_EQ(object.at("n").num, value) << text;
    EXPECT_EQ(std::signbit(object.at("n").num), std::signbit(value)) << text;
  }
}

// ---- Request decode / encode ----

TEST(PlanRequestTest, ToJsonParseRoundTrip) {
  PlanRequest request;
  request.op = "max_nm";
  request.id = "req-42";
  request.cluster_nodes = "VRQ";
  request.model = "vgg19";
  request.selector = "VVQQ";
  request.nm = 3;
  request.nm_cap = 5;
  request.batch_size = 64;
  request.search_orders = false;

  PlanRequest decoded;
  ErrorCode code = ErrorCode::kNone;
  std::string error;
  ASSERT_TRUE(ParsePlanRequest(request.ToJson(), &decoded, &code, &error)) << error;
  EXPECT_EQ(decoded.op, request.op);
  EXPECT_EQ(decoded.id, request.id);
  EXPECT_EQ(decoded.cluster_nodes, request.cluster_nodes);
  EXPECT_EQ(decoded.model, request.model);
  EXPECT_EQ(decoded.selector, request.selector);
  EXPECT_EQ(decoded.nm, request.nm);
  EXPECT_EQ(decoded.nm_cap, request.nm_cap);
  EXPECT_EQ(decoded.batch_size, request.batch_size);
  EXPECT_EQ(decoded.search_orders, request.search_orders);
}

TEST(PlanRequestTest, RejectsBadRequests) {
  PlanRequest out;
  ErrorCode code = ErrorCode::kNone;
  std::string error;
  // Not JSON at all.
  EXPECT_FALSE(ParsePlanRequest("nope", &out, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadJson);
  // Wrong protocol version.
  EXPECT_FALSE(ParsePlanRequest(R"({"v":99,"op":"plan","selector":"VVQQ"})", &out, &code,
                                &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  // Unknown op.
  EXPECT_FALSE(ParsePlanRequest(R"({"v":1,"op":"dance"})", &out, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  // plan needs a selector.
  EXPECT_FALSE(ParsePlanRequest(R"({"v":1,"op":"plan"})", &out, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  // nm out of range.
  EXPECT_FALSE(
      ParsePlanRequest(R"({"v":1,"op":"plan","selector":"VVQQ","nm":0})", &out, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
  // Ill-typed field.
  EXPECT_FALSE(ParsePlanRequest(R"({"v":1,"op":"plan","selector":7})", &out, &code, &error));
  EXPECT_EQ(code, ErrorCode::kBadRequest);
}

// ---- Wire golden: the exact request and response bytes. The JSONL goldens
// ---- compare doubles within a tolerance, so this file is what pins the
// ---- encoder byte for byte. `UPDATE_GOLDEN=1 ./serve_test` rewrites it.

// The response with its one timing field replaced by '#'.
std::string MaskLatency(std::string json) {
  const std::string field = "\"latency_us\":";
  const size_t at = json.find(field);
  if (at != std::string::npos) {
    size_t end = at + field.size();
    while (end < json.size() && json[end] >= '0' && json[end] <= '9') ++end;
    json.replace(at + field.size(), end - at - field.size(), "#");
  }
  return json;
}

oracles::GoldenLines WireGoldenLines() {
  oracles::GoldenLines lines;
  const std::string racked =
      "node 2xV\nnode 2xR\nnode 2xG\nnode 2xQ\nrack r0 { node0 node1 }\n"
      "rack r1 { node2 node3 }\ncross_rack_gbits 10";
  const std::string kIds[] = {"q\"uote\\back/slash", std::string("ctl\x01\x1f\t\n\r\b\f", 10),
                              "utf8 h\xc3\xa9llo \xe2\x9c\x93"};

  // Requests as clients encode them.
  std::vector<std::pair<std::string, PlanRequest>> requests;
  const auto add = [&](const std::string& label, const PlanRequest& request) {
    requests.emplace_back(label, request);
  };
  {
    PlanRequest r;
    r.selector = "VVQQ";
    add("plan_exact", r);
    add("plan_exact_repeat", r);
    r.nm = 2;
    r.id = "nm2";
    add("plan_exact_nm2", r);
    r = PlanRequest();
    r.selector = "VRGQ";
    r.cluster_nodes = "VRGQ";
    r.model = "vgg19";
    r.batch_size = 64;
    r.search_orders = false;
    add("plan_vgg_fixed_order", r);
    r = PlanRequest();
    r.selector = "VVQQ";
    r.strategy = "beam";
    r.beam_width = 4;
    add("plan_beam", r);
    r = PlanRequest();
    r.cluster_spec = racked;
    r.selector = "V*2,R*2,G*2,Q*2";
    r.strategy = "hierarchical";
    r.beam_width = 3;
    r.rack_order_limit = 24;
    add("plan_hierarchical", r);
    r = PlanRequest();
    r.cluster_spec = racked;
    r.selector = "V,R,G";
    add("plan_spec_auto", r);
    r = PlanRequest();
    r.op = "max_nm";
    r.selector = "VVQQ";
    add("max_nm_feasible", r);
    r.nm_cap = 3;
    r.id = "cap3";
    add("max_nm_cap3", r);
    r = PlanRequest();
    r.op = "max_nm";
    r.selector = "GG";
    r.model = "vgg19";
    r.batch_size = 4096;
    add("max_nm_zero", r);
    r.op = "plan";
    add("plan_infeasible", r);
    for (size_t i = 0; i < 3; ++i) {
      r = PlanRequest();
      r.selector = "VQ";
      r.id = kIds[i];
      add("id_escape" + std::to_string(i), r);
    }
    r = PlanRequest();
    r.selector = "VVQQ";
    r.model = "alexnet";
    add("bad_model", r);
    r = PlanRequest();
    r.selector = "VVQQ";
    r.cluster_spec = "node 0xV";
    add("bad_spec", r);
    r = PlanRequest();
    r.selector = "A100*64";
    r.id = kIds[1];
    add("bad_selector", r);
    r = PlanRequest();
    r.op = "stats";
    add("stats", r);
    r.op = "shutdown";
    add("shutdown", r);
  }
  for (const auto& [label, request] : requests) {
    lines.push_back("request." + label + '\t' + request.ToJson());
  }

  // Raw payloads that only a hand-written or broken client sends.
  const std::pair<const char*, std::string> kRaw[] = {
      {"bad_json_empty", ""},
      {"bad_json_text", "nope"},
      {"bad_json_unterminated", "{\"v\":1,\"op\":\"plan\""},
      {"bad_json_number", "{\"v\":01e}"},
      {"bad_json_trailing", "{\"v\":1}x"},
      {"bad_json_control", "{\"id\":\"a\x01\"}"},
      {"bad_request_version", R"({"v":99,"op":"plan","selector":"VVQQ"})"},
      {"bad_request_op", R"({"v":1,"op":"dance","id":"xé\n"})"},
      {"bad_request_no_selector", R"({"v":1,"op":"max_nm"})"},
      {"bad_request_nm", R"({"v":1,"op":"plan","selector":"VVQQ","nm":0})"},
      {"bad_request_fraction", R"({"v":1,"op":"plan","selector":"VVQQ","nm":1.5})"},
      {"bad_request_type", R"({"v":1,"op":"plan","selector":7})"},
      {"bad_request_bool", R"({"v":1,"op":"plan","selector":"VQ","search_orders":1})"},
      {"bad_request_strategy", R"({"v":1,"op":"plan","selector":"VVQQ","strategy":"bogus"})"},
      {"bad_request_order", R"({"v":2,"op":"dance","nm":"x","strategy":"bogus"})"},
      {"duplicate_key", R"({"v":1,"op":"plan","selector":7,"selector":"VQ","nm":2,"nm":1})"},
      {"unknown_keys", R"({"v":1,"zz":[1,{"a":"]"}],"op":"plan","selector":"VQ","q":null})"},
      {"escaped_fields", R"({"v":1.0,"op":"plan","selector":"VQ","id":"\u00e9\u2713\/\t"})"},
  };

  runner::PartitionCache cache;
  PlanService service(&cache);
  for (const auto& [label, request] : requests) {
    lines.push_back("response." + label + '\t' +
                    MaskLatency(runner::RowToJson(service.HandleJson(request.ToJson()))));
  }
  for (const auto& [label, payload] : kRaw) {
    lines.push_back(std::string("response.") + label + '\t' +
                    MaskLatency(runner::RowToJson(service.HandleJson(payload))));
  }
  // The transport's own error rows (no service path produces these codes).
  for (ErrorCode code : {ErrorCode::kBadFrame, ErrorCode::kShuttingDown, ErrorCode::kInternal}) {
    runner::ResultRow row;
    row.Set("v", kProtocolVersion);
    row.Set("ok", false);
    row.Set("error_code", ErrorCodeName(code));
    row.Set("error", std::string("detail for ") + ErrorCodeName(code));
    lines.push_back(std::string("row.") + ErrorCodeName(code) + '\t' + runner::RowToJson(row));
  }
  // Every value kind the encoder writes, non-finite doubles included.
  runner::ResultRow values;
  values.Set("inf", std::numeric_limits<double>::infinity())
      .Set("ninf", -std::numeric_limits<double>::infinity())
      .Set("nan", std::numeric_limits<double>::quiet_NaN())
      .Set("zero", 0.0)
      .Set("negzero", -0.0)
      .Set("tiny", 4.9406564584124654e-324)
      .Set("small", 1.234567890123456e-7)
      .Set("big", 6.02214076e23)
      .Set("third", 1.0 / 3.0)
      .Set("round", 1e15)
      .Set("int_min", std::numeric_limits<int64_t>::min())
      .Set("int_max", std::numeric_limits<int64_t>::max())
      .Set("t", true)
      .Set("f", false)
      .Set("s", kIds[1])
      .Set("k\"ey", kIds[2]);
  lines.push_back("row.values\t" + runner::RowToJson(values));
  return lines;
}

TEST(WireGoldenTest, RequestAndResponseBytesMatchRecording) {
  // JSON escapes every control byte, so a payload never spans lines.
  EXPECT_EQ(oracles::CheckGolden("serve_wire.txt",
                                 "Serve wire bytes: label \\t PlanRequest::ToJson or "
                                 "response JSON\n(latency_us masked). Regenerate with: "
                                 "UPDATE_GOLDEN=1 ./serve_test",
                                 WireGoldenLines()),
            "");
}

// ---- PlanService ----

// The answer without its timing and cache fields, which legitimately differ
// between a warm service and a fresh one.
std::string AnswerBytes(const runner::ResultRow& row) {
  runner::ResultRow kept;
  for (const auto& [key, value] : row.fields()) {
    if (key != "latency_us" && key != "cache_hit") {
      std::visit([&, &key = key](const auto& v) { kept.Set(key, v); }, value);
    }
  }
  return runner::RowToJson(kept);
}

TEST(PlanServiceTest, PlanHitsCacheOnRepeat) {
  runner::PartitionCache cache;
  PlanService service(&cache);
  PlanRequest request;
  request.selector = "VVQQ";

  const runner::ResultRow miss = service.Handle(request);
  EXPECT_EQ(miss.Get("ok"), "true");
  EXPECT_EQ(miss.Get("feasible"), "true");
  EXPECT_EQ(miss.Get("cache_hit"), "false");
  EXPECT_EQ(miss.Get("num_stages"), "4");
  // A success row must not carry an error_code at all — Find distinguishes
  // the absent field from an empty value, which Get cannot.
  EXPECT_EQ(miss.Find("error_code"), std::nullopt);

  const runner::ResultRow hit = service.Handle(request);
  EXPECT_EQ(hit.Get("ok"), "true");
  EXPECT_EQ(hit.Get("cache_hit"), "true");
  // The cached answer is the cold answer, field for field.
  EXPECT_EQ(hit.Get("bottleneck_time_s"), miss.Get("bottleneck_time_s"));
  EXPECT_EQ(hit.Get("sum_time_s"), miss.Get("sum_time_s"));
  EXPECT_EQ(hit.Get("stages"), miss.Get("stages"));
  EXPECT_EQ(service.requests(), 2);
  EXPECT_EQ(service.errors(), 0);
  EXPECT_EQ(cache.contexts(), 1);
}

TEST(PlanServiceTest, PlanMatchesDirectPartitioner) {
  runner::PartitionCache cache;
  PlanService service(&cache);
  const hw::Cluster cluster = hw::Cluster::Paper();
  for (const model::ModelGraph& graph : {model::BuildResNet152(), model::BuildBertLarge()}) {
    PlanRequest request;
    request.model = graph.family() == model::ModelFamily::kResNet152 ? "resnet152" : "bert-large";
    request.selector = "VVQQ";
    request.nm = 2;
    const runner::ResultRow row = service.Handle(request);
    ASSERT_EQ(row.Get("ok"), "true") << request.model << ": " << row.Get("error");

    const model::ModelProfile profile(graph, 32);
    const partition::Partitioner partitioner(profile, cluster);
    partition::PartitionOptions options;
    options.nm = 2;
    const partition::Partition direct =
        partitioner.SolveScalable(core::PickGpus(cluster, "VVQQ"), options);
    runner::ResultRow expected;
    expected.Set("bottleneck", direct.bottleneck_time).Set("sum", direct.sum_time);
    EXPECT_EQ(row.Get("bottleneck_time_s"), expected.Get("bottleneck")) << request.model;
    EXPECT_EQ(row.Get("sum_time_s"), expected.Get("sum")) << request.model;
    EXPECT_EQ(row.Get("num_stages"), std::to_string(direct.num_stages())) << request.model;
    const std::string first_gpu = ":gpu" + std::to_string(direct.stages.front().gpu_id) + ":";
    EXPECT_NE(row.Get("stages").find(first_gpu), std::string::npos) << row.Get("stages");
  }
}

TEST(PlanServiceTest, MaxNmMatchesPartitionerAndReportsCacheHit) {
  runner::PartitionCache cache;
  PlanService service(&cache);
  PlanRequest request;
  request.op = "max_nm";
  request.selector = "VVQQ";
  request.nm_cap = 7;

  const runner::ResultRow cold = service.Handle(request);
  ASSERT_EQ(cold.Get("ok"), "true");
  EXPECT_EQ(cold.Get("cache_hit"), "false");

  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  const std::vector<int> vvqq = core::PickGpus(cluster, "VVQQ");
  const int expected = partition::FindMaxNmWith(
      [&](const partition::PartitionOptions& at_nm) {
        return partitioner.SolveScalable(vvqq, at_nm);
      },
      7, partition::PartitionOptions{});
  EXPECT_EQ(cold.Get("max_nm"), std::to_string(expected));
  // The cap is feasible, so the cold query solved once, and its one probe's
  // partition is the answer: one entry, no hit.
  ASSERT_EQ(cold.Get("max_nm"), "7");
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);

  // The repeat's one probe is one hit.
  const runner::ResultRow warm = service.Handle(request);
  EXPECT_EQ(warm.Get("cache_hit"), "true");
  EXPECT_EQ(warm.Get("max_nm"), cold.Get("max_nm"));
  EXPECT_EQ(warm.Get("stages"), cold.Get("stages"));
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(PlanServiceTest, ColdAndWarmMaxNmAnswerTheSameBytes) {
  // The cold max_nm answer is its winning probe's partition, the warm one a
  // cache hit; they must agree byte for byte (timing and cache_hit aside),
  // also when tied GPUs (same class and node) come in a non-id order.
  const std::string racked =
      "node 2xV\nnode 2xR\nnode 2xG\nnode 2xQ\nrack r0 { node0 node1 }\n"
      "rack r1 { node2 node3 }\ncross_rack_gbits 10";
  std::vector<PlanRequest> requests;
  PlanRequest r;
  r.op = "max_nm";
  r.selector = "Q*2,V*2";
  requests.push_back(r);
  r.search_orders = false;
  requests.push_back(r);
  r = PlanRequest();
  r.op = "max_nm";
  r.selector = "Q*2,R,V*2";
  r.strategy = "beam";
  requests.push_back(r);
  r = PlanRequest();
  r.op = "max_nm";
  r.cluster_spec = racked;
  r.selector = "Q*2,G*2,R*2,V*2";
  r.strategy = "hierarchical";
  requests.push_back(r);
  // An infeasible cap: the bisection below it probes 3, 5 and 4, and two of
  // those probes are feasible.
  r = PlanRequest();
  r.op = "max_nm";
  r.id = "bisect";
  r.selector = "Q*2,G*2";
  r.batch_size = 64;
  requests.push_back(r);
  for (const PlanRequest& request : requests) {
    runner::PartitionCache cache;
    PlanService service(&cache);
    const runner::ResultRow cold = service.Handle(request);
    ASSERT_EQ(cold.Get("ok"), "true") << cold.Get("error");
    ASSERT_NE(cold.Get("max_nm"), "0") << request.selector;
    if (request.id == "bisect") {
      EXPECT_EQ(cold.Get("max_nm"), "4");
    }
    const runner::ResultRow warm = service.Handle(request);
    EXPECT_EQ(cold.Get("cache_hit"), "false");
    EXPECT_EQ(warm.Get("cache_hit"), "true");
    EXPECT_EQ(AnswerBytes(warm), AnswerBytes(cold)) << request.selector;

    // The partition fields are the plan at max_nm.
    runner::PartitionCache plan_cache;
    PlanService plan_service(&plan_cache);
    PlanRequest plan = request;
    plan.op = "plan";
    plan.nm = std::stoi(cold.Get("max_nm"));
    const runner::ResultRow planned = plan_service.Handle(plan);
    for (const char* field : {"feasible", "num_stages", "bottleneck_time_s", "sum_time_s",
                              "stages", "strategy"}) {
      EXPECT_EQ(cold.Get(field), planned.Get(field)) << request.selector << " " << field;
    }
  }
}

TEST(PlanServiceTest, ClassifiesErrors) {
  runner::PartitionCache cache;
  PlanService service(&cache);

  PlanRequest bad_model;
  bad_model.selector = "VVQQ";
  bad_model.model = "alexnet";
  const runner::ResultRow bad_model_row = service.Handle(bad_model);
  EXPECT_EQ(bad_model_row.Get("error_code"), "bad_model");
  for (const char* name : {"resnet152", "vgg19", "bert-large"}) {
    EXPECT_NE(bad_model_row.Get("error").find(name), std::string::npos) << name;
  }

  PlanRequest bad_spec;
  bad_spec.selector = "VVQQ";
  bad_spec.cluster_spec = "node 0xV";
  EXPECT_EQ(service.Handle(bad_spec).Get("error_code"), "bad_spec");

  PlanRequest bad_selector;
  bad_selector.selector = "A100*64";
  EXPECT_EQ(service.Handle(bad_selector).Get("error_code"), "bad_selector");

  EXPECT_EQ(service.errors(), 3);
  EXPECT_EQ(service.requests(), 3);
}

TEST(PlanServiceTest, SpecClassErrorsAreBadSpec) {
  runner::PartitionCache cache;
  PlanService service(&cache);
  PlanRequest bad_spec;
  bad_spec.selector = "VVQQ";
  // One class past the cap, and a class the spec never declares (an earlier
  // spec in this process declaring it changes nothing).
  std::string many_classes;
  for (int i = 0; i <= hw::ClusterSpec::kMaxGpuClasses; ++i) {
    many_classes += "gpu ServeCap" + std::to_string(i) + " tflops=1 mem=1\n";
  }
  bad_spec.cluster_spec = many_classes + "node 1xServeCap0";
  const runner::ResultRow too_many = service.Handle(bad_spec);
  EXPECT_EQ(too_many.Get("error_code"), "bad_spec");
  EXPECT_NE(too_many.Get("error").find("65 GPU classes exceed the limit of 64"), std::string::npos)
      << too_many.Get("error");
  bad_spec.selector = "ServeFoo";
  bad_spec.cluster_spec = "gpu ServeFoo tflops=5 mem=8; node 2xServeFoo";
  EXPECT_EQ(service.Handle(bad_spec).Get("ok"), "true");
  bad_spec.cluster_spec = "node 2xServeFoo";
  EXPECT_EQ(service.Handle(bad_spec).Get("error_code"), "bad_spec");
}

TEST(PlanServiceTest, OneClassNameTwoDefinitionsBothPlan) {
  // A class name means something only within its spec: two specs may
  // declare X with different numbers in one process, and each cluster,
  // profile, partition and plan runs on its own numbers.
  const std::string slow_text = "gpu X tflops=4 mem=16; node 2xX";
  const std::string fast_text = "gpu X tflops=6 mem=16; node 2xX";
  const hw::Cluster slow = hw::ClusterSpec::Parse(slow_text).Build();
  const hw::Cluster fast = hw::ClusterSpec::Parse(fast_text).Build();
  const hw::GpuType slow_x = slow.gpu(0).type;
  const hw::GpuType fast_x = fast.gpu(0).type;
  EXPECT_EQ(hw::SpecOf(slow_x).effective_tflops, 4.0);
  EXPECT_EQ(hw::SpecOf(fast_x).effective_tflops, 6.0);

  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  EXPECT_GT(profile.FullModelTime(slow_x), profile.FullModelTime(fast_x));
  partition::PartitionOptions options;
  options.nm = 2;
  const partition::Partition slow_plan =
      partition::Partitioner(profile, slow).SolveScalable({0, 1}, options);
  const partition::Partition fast_plan =
      partition::Partitioner(profile, fast).SolveScalable({0, 1}, options);
  ASSERT_TRUE(slow_plan.feasible);
  ASSERT_TRUE(fast_plan.feasible);
  EXPECT_GT(slow_plan.bottleneck_time, fast_plan.bottleneck_time);
  for (const auto& [plan, type] : {std::pair{&slow_plan, slow_x}, std::pair{&fast_plan, fast_x}}) {
    for (const partition::StageAssignment& stage : plan->stages) {
      EXPECT_EQ(stage.gpu_type, type);
      EXPECT_EQ(stage.fwd_compute_s,
                profile.StageFwdTime(stage.first_layer, stage.last_layer, type));
    }
  }

  runner::PartitionCache cache;
  PlanService service(&cache);
  PlanRequest request;
  request.selector = "X*2";
  request.nm = 2;
  request.cluster_spec = slow_text;
  const runner::ResultRow slow_row = service.Handle(request);
  request.cluster_spec = fast_text;
  const runner::ResultRow fast_row = service.Handle(request);
  for (const runner::ResultRow* row : {&slow_row, &fast_row}) {
    EXPECT_EQ(row->Get("ok"), "true") << row->Get("error");
    EXPECT_EQ(row->Get("cache_hit"), "false");
  }
  runner::ResultRow expected;
  expected.Set("slow", slow_plan.bottleneck_time).Set("fast", fast_plan.bottleneck_time);
  EXPECT_EQ(slow_row.Get("bottleneck_time_s"), expected.Get("slow"));
  EXPECT_EQ(fast_row.Get("bottleneck_time_s"), expected.Get("fast"));
}

TEST(PlanServiceTest, HandleJsonReportsShutdownAndStats) {
  runner::PartitionCache cache;
  PlanService service(&cache);

  bool shutdown = false;
  runner::ResultRow row = service.HandleJson(R"({"v":1,"op":"stats"})", &shutdown);
  EXPECT_FALSE(shutdown);
  EXPECT_EQ(row.Get("ok"), "true");
  EXPECT_EQ(row.Get("cache_size"), "0");

  row = service.HandleJson(R"({"v":1,"op":"shutdown"})", &shutdown);
  EXPECT_TRUE(shutdown);
  EXPECT_EQ(row.Get("ok"), "true");

  // A parse failure is an error response, never an exception — and not a
  // shutdown.
  row = service.HandleJson("not json", &shutdown);
  EXPECT_FALSE(shutdown);
  EXPECT_EQ(row.Get("ok"), "false");
  EXPECT_EQ(row.Find("error_code"), "bad_json");
}

// `second` must get the answer it gets on a fresh service, whatever `first`
// left memoized.
void ExpectNoContextAliasing(const PlanRequest& first, const PlanRequest& second) {
  runner::PartitionCache fresh_cache;
  PlanService fresh(&fresh_cache);
  const std::string want = AnswerBytes(fresh.Handle(second));

  runner::PartitionCache cache;
  PlanService service(&cache);
  ASSERT_EQ(service.Handle(first).Get("ok"), "true");
  EXPECT_EQ(AnswerBytes(service.Handle(second)), want);
}

TEST(PlanServiceTest, ContextKeysDoNotAliasAcrossFields) {
  // A spec with two lines, and a one-line spec whose model carries the
  // second: once joined with newlines these were one context key, so the
  // second request got a plan on a Quadro its cluster does not have.
  PlanRequest two_lines;
  two_lines.cluster_spec = "node 4xV\nnode 1xQ";
  two_lines.model = "resnet152";
  two_lines.selector = "VQ";
  PlanRequest model_carries_line = two_lines;
  model_carries_line.cluster_spec = "node 4xV";
  model_carries_line.model = "node 1xQ\nresnet152";
  ExpectNoContextAliasing(two_lines, model_carries_line);

  // The same split over cluster_nodes, and the same text as nodes vs spec.
  PlanRequest nodes;
  nodes.cluster_nodes = "VQ";
  nodes.selector = "VQ";
  PlanRequest nodes_in_model = nodes;
  nodes_in_model.cluster_nodes = "V";
  nodes_in_model.model = "Q\nresnet152";
  ExpectNoContextAliasing(nodes, nodes_in_model);
  PlanRequest nodes_as_spec = nodes;
  nodes_as_spec.cluster_spec = "VQ";
  ExpectNoContextAliasing(nodes, nodes_as_spec);
  PlanRequest other_batch = nodes;
  other_batch.batch_size = 64;
  ExpectNoContextAliasing(nodes, other_batch);
}

TEST(PlanServiceTest, ContextsEvictFifoBeyondTheBound) {
  runner::PartitionCache cache;
  PlanService service(&cache);
  constexpr int64_t kBound = runner::PartitionCache::kMaxContexts;
  // One context per batch size: kBound + 2 distinct keys.
  std::vector<std::string> first_answers;
  for (int64_t i = 0; i < kBound + 2; ++i) {
    PlanRequest request;
    request.cluster_nodes = "VQ";
    request.selector = "VQ";
    request.batch_size = static_cast<int>(i + 1);
    const runner::ResultRow row = service.Handle(request);
    ASSERT_EQ(row.Get("ok"), "true") << i;
    first_answers.push_back(AnswerBytes(row));
    EXPECT_EQ(cache.contexts(), std::min(i + 1, kBound));
  }
  // Evicted and retained contexts alike answer as before; a rebuilt context
  // finds its plans still in the partition cache.
  for (int64_t i = 0; i < kBound + 2; ++i) {
    PlanRequest request;
    request.cluster_nodes = "VQ";
    request.selector = "VQ";
    request.batch_size = static_cast<int>(i + 1);
    const runner::ResultRow row = service.Handle(request);
    EXPECT_EQ(AnswerBytes(row), first_answers[static_cast<size_t>(i)]) << i;
    EXPECT_EQ(row.Get("cache_hit"), "true") << i;
    EXPECT_EQ(cache.contexts(), kBound);
  }
  // Failed builds are never memoized.
  PlanRequest bad;
  bad.cluster_spec = "node 0xV";
  bad.selector = "V";
  EXPECT_EQ(service.Handle(bad).Get("error_code"), "bad_spec");
  EXPECT_EQ(cache.contexts(), kBound);
}

// ---- End-to-end over sockets ----

TEST(PlanServerTest, ServesPlansOverTcp) {
  runner::PartitionCache cache;
  PlanServerOptions options;
  options.threads = 4;
  PlanServer server(&cache, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  PlanClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  PlanRequest request;
  request.selector = "VVQQ";
  request.id = "e2e";
  std::map<std::string, JsonValue> response;
  ASSERT_TRUE(client.Call(request, &response, &error)) << error;
  EXPECT_TRUE(response.at("ok").boolean);
  EXPECT_EQ(response.at("id").str, "e2e");
  EXPECT_FALSE(response.at("cache_hit").boolean);
  EXPECT_EQ(response.at("num_stages").num, 4.0);

  ASSERT_TRUE(client.Call(request, &response, &error)) << error;
  EXPECT_TRUE(response.at("cache_hit").boolean);

  server.RequestShutdown();
  server.Join();
}

TEST(PlanServerTest, ConcurrentClientsAllGetAnswers) {
  runner::PartitionCache cache;
  PlanServerOptions options;
  options.threads = 4;
  PlanServer server(&cache, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 10;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      PlanClient client;
      std::string client_error;
      if (!client.Connect("127.0.0.1", server.port(), &client_error)) return;
      for (int i = 0; i < kCallsPerClient; ++i) {
        PlanRequest request;
        request.selector = (c % 2 == 0) ? "VVQQ" : "VRGQ";
        request.nm = 1 + (i % 3);
        std::map<std::string, JsonValue> response;
        if (client.Call(request, &response, &client_error) && response.at("ok").boolean) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(ok_count.load(), kClients * kCallsPerClient);
  EXPECT_EQ(server.service().requests(), kClients * kCallsPerClient);

  server.RequestShutdown();
  server.Join();
}

TEST(PlanServerTest, RemoteShutdownDrainsAndPersistsCache) {
  const std::string path = testing::TempDir() + "hetpipe_serve_test_cache.bin";
  std::remove(path.c_str());

  runner::PartitionCache cache;
  PlanServerOptions options;
  options.threads = 2;
  options.cache_path = path;
  options.save_interval_s = 3600;  // only the final snapshot should fire
  PlanServer server(&cache, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  PlanClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  PlanRequest plan;
  plan.selector = "VVQQ";
  std::map<std::string, JsonValue> response;
  ASSERT_TRUE(client.Call(plan, &response, &error)) << error;
  ASSERT_TRUE(response.at("ok").boolean);

  PlanRequest shutdown;
  shutdown.op = "shutdown";
  ASSERT_TRUE(client.Call(shutdown, &response, &error)) << error;
  EXPECT_TRUE(response.at("ok").boolean);
  server.Join();
  EXPECT_TRUE(server.shutdown_requested());

  // The final snapshot is loadable and holds the solved plan.
  runner::PartitionCache reloaded;
  ASSERT_TRUE(reloaded.Load(path, &error)) << error;
  EXPECT_EQ(reloaded.size(), 1);
  std::remove(path.c_str());
}

// ---- Fuzz-style robustness: mutated frames and adversarial JSON must come
// ---- back as stable bad_frame / bad_json / bad_request errors — never a
// ---- crash, hang, or exception. Deterministic (fixed seeds), and the CI
// ---- Debug job runs this under ASan/UBSan, which is where frame-length and
// ---- scanner-depth bugs would actually trip.

TEST(ProtocolFuzzTest, MutatedAndTruncatedFramesNeverCrashTheReader) {
  std::mt19937 rng(0x5e7fe);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 200; ++round) {
    std::string bytes;
    switch (round % 4) {
      case 0: {
        // A length prefix promising anything from 0 to 4 GiB, with a payload
        // shorter than promised (or absent).
        uint32_t len = static_cast<uint32_t>(rng());
        bytes.append(reinterpret_cast<const char*>(&len), 4);
        bytes.append(static_cast<size_t>(rng() % 64), 'p');
        break;
      }
      case 1: {
        // A valid frame, then its bytes mutated at random positions.
        std::string payload = R"({"v":1,"op":"plan","selector":"VVQQ"})";
        uint32_t len = static_cast<uint32_t>(payload.size());
        bytes.append(reinterpret_cast<const char*>(&len), 4);
        bytes += payload;
        for (int m = 0; m < 1 + round % 5; ++m) {
          bytes[rng() % bytes.size()] = static_cast<char>(byte(rng));
        }
        break;
      }
      case 2:
        // Pure noise, 0..127 bytes.
        for (size_t i = rng() % 128; i > 0; --i) {
          bytes.push_back(static_cast<char>(byte(rng)));
        }
        break;
      default: {
        // A truncated prefix: fewer than 4 header bytes.
        for (size_t i = rng() % 4; i > 0; --i) {
          bytes.push_back(static_cast<char>(byte(rng)));
        }
        break;
      }
    }
    // Drain the connection with and without read-ahead: every frame is
    // accepted, rejected, or ends the stream; none may hang (the writer is
    // closed, so data is finite), a kError must carry a message, and both
    // readers must see the same frames and errors.
    std::vector<ReadStep> runs[2];
    for (bool read_ahead : {false, true}) {
      SocketPair pair;
      ASSERT_EQ(::send(pair.fds[0], bytes.data(), bytes.size(), 0),
                static_cast<ssize_t>(bytes.size()));
      ::close(pair.fds[0]);
      pair.fds[0] = -1;
      runs[read_ahead] = ReadAll(pair.fds[1], read_ahead, kDefaultMaxFrameBytes);
      ASSERT_FALSE(runs[read_ahead].empty());
      const ReadStep& last = runs[read_ahead].back();
      ASSERT_NE(last.result, FrameResult::kFrame) << "more frames than the bytes can hold";
      if (last.result == FrameResult::kError) {
        EXPECT_FALSE(last.error.empty());
      }
    }
    EXPECT_TRUE(runs[0] == runs[1]) << "round " << round;
  }
}

TEST(ProtocolFuzzTest, AdversarialJsonYieldsStableErrorsNotCrashes) {
  runner::PartitionCache cache;
  PlanService service(&cache);

  // Hand-built adversarial payloads: deep nesting (the nested-value scanner
  // is iterative, so recursion depth must not be a resource), control bytes,
  // unterminated tokens, huge numbers, and embedded NULs.
  std::vector<std::string> payloads;
  {
    std::string deep_obj, deep_arr;
    for (int d = 0; d < 200000; ++d) {
      deep_obj += "{\"a\":";
      deep_arr += "[";
    }
    payloads.push_back(R"({"v":1,"op":"plan","selector":)" + deep_obj);
    payloads.push_back(R"({"v":1,"op":"plan","extra":)" + deep_arr + "}");
    payloads.push_back("{\"a\":\"\x01\x02\x03\"}");
    payloads.push_back(std::string("{\"a\":\"b") + '\0' + "c\"}");
    payloads.push_back(R"({"v":1e309,"op":"plan"})");
    payloads.push_back(R"({"v":1,"op":"plan","selector":")" + std::string(100000, 'V'));
    payloads.push_back("{\"v\":1,\"op\":\"plan\",\"selector\":\"VVQQ\",\"nm\":");
  }
  // Seeded mutations of a valid request: flip, insert, and delete bytes.
  std::mt19937 rng(0xfacade);
  std::uniform_int_distribution<int> byte(0, 255);
  const std::string valid = R"({"v":1,"op":"plan","selector":"VVQQ","nm":2})";
  for (int round = 0; round < 300; ++round) {
    std::string mutated = valid;
    for (int m = 0; m < 1 + round % 6; ++m) {
      const size_t at = rng() % mutated.size();
      switch (rng() % 3) {
        case 0:
          mutated[at] = static_cast<char>(byte(rng));
          break;
        case 1:
          mutated.insert(at, 1, static_cast<char>(byte(rng)));
          break;
        default:
          mutated.erase(at, 1);
          break;
      }
      if (mutated.empty()) {
        mutated = "x";
      }
    }
    payloads.push_back(std::move(mutated));
  }

  for (const std::string& payload : payloads) {
    // The raw JSON reader: parses or reports an error, never throws.
    std::map<std::string, JsonValue> object;
    std::string json_error;
    const bool is_object = ParseJsonObject(payload, &object, &json_error);
    if (!is_object) {
      EXPECT_FALSE(json_error.empty());
    }
    // The request decoder: success, or a stable code from the bad_* family.
    // It walks the object with the same reader, so bad JSON is reported the
    // same way by both.
    PlanRequest request;
    ErrorCode code = ErrorCode::kNone;
    std::string error;
    if (!ParsePlanRequest(payload, &request, &code, &error)) {
      EXPECT_TRUE(code == ErrorCode::kBadJson || code == ErrorCode::kBadRequest)
          << ErrorCodeName(code) << " for payload prefix: " << payload.substr(0, 60);
      EXPECT_FALSE(error.empty());
    }
    EXPECT_EQ(code == ErrorCode::kBadJson, !is_object);
    if (!is_object) {
      EXPECT_EQ(error, json_error);
    }
    // The full service: always a response row, never a shutdown, and every
    // failure carries one of the stable error codes.
    bool shutdown = false;
    const runner::ResultRow row = service.HandleJson(payload, &shutdown);
    EXPECT_FALSE(shutdown);
    if (row.Get("ok") != "true") {
      EXPECT_EQ(row.Get("ok"), "false");
      const std::string code_name = row.Get("error_code");
      EXPECT_TRUE(code_name == "bad_json" || code_name == "bad_request" ||
                  code_name == "bad_spec" || code_name == "bad_model" ||
                  code_name == "bad_selector")
          << code_name << " for payload prefix: " << payload.substr(0, 60);
    }
  }
}

}  // namespace
}  // namespace hetpipe::serve
