// perfbench: the repo benchmark binary.
//
//   perfbench --workload repro_cold|plan_cold|plan_warm --seed N --seconds S
//             --trace 0|1 [--commit SHA] [--work-dir DIR] [--golden-dir DIR]
//   perfbench --self-test
//
// Prints "key value" context lines (build, machine, digest), then as its last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones from a traced replay. perfbench/README.md has the details.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload repro_cold|plan_cold|plan_warm "
               "--seed N --seconds S --trace 0|1 [--commit SHA] [--work-dir DIR] "
               "[--golden-dir DIR] | --self-test\n",
               message.c_str());
  std::exit(2);
}

uint64_t ParseUnsigned(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') Usage("bad value for " + flag + ": " + text);
  return value;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string commit = "unknown";
  bool self_test = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (flag != "--self-test") {
      if (i + 1 >= argc) Usage("missing value for " + flag);
      value = argv[++i];
    }
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(ParseUnsigned(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--golden-dir") {
      options.golden_dir = value;
    } else if (flag == "--self-test") {
      self_test = true;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) Usage("cannot create " + options.work_dir + ": " + ec.message());

  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
  if (!release) {
    const char* warning =
        "WARNING: perfbench was built as '" PERFBENCH_BUILD_TYPE
        "', not Release; its numbers are not comparable with Release runs";
    std::printf("%s\n", warning);
    std::fprintf(stderr, "%s\n", warning);
  }
  if (self_test) {
    const int failures = RunSelfTests(options);
    std::printf("self-test: %s (%d failure%s)\n", failures == 0 ? "ok" : "FAILED", failures,
                failures == 1 ? "" : "s");
    return failures == 0 ? 0 : 1;
  }
  if (options.workload.empty() || !have_trace || options.seconds < 1) {
    Usage("--workload, --seed, --seconds (>= 1) and --trace are required");
  }

  RunResult result;
  if (options.workload == "repro_cold") {
    result = RunRepro(options);
  } else if (options.workload == "plan_cold") {
    result = RunPlan(options, /*warm=*/false);
  } else if (options.workload == "plan_warm") {
    result = RunPlan(options, /*warm=*/true);
  } else {
    Usage("unknown workload " + options.workload);
  }

  std::printf("workload %s\nseed %llu\ntrace %d\ncores %d\ncompiler %s\nbuild_type %s\ncommit %s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, CoreCount(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              commit.c_str());
  for (const std::string& line : result.info) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  std::printf("%s\n", ResultJson(result).c_str());
  return result.correct ? 0 : 1;
}
