#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

// repro_cold: the paper-figure experiment lists through core::RunExperiment
// on one thread, a fresh partition cache per pass, rows into a StoreSink.
RunResult RunRepro(const RunOptions& options);

// plan_cold / plan_warm: an in-process serve::PlanServer driven by one
// serve::PlanClient connection in a closed loop.
RunResult RunPlan(const RunOptions& options, bool warm);

// The seeded plan request stream both plan workloads draw from.
struct PlanRequestStream {
  // One plan request per (cluster, model) context, sent during setup so
  // context construction never lands in the timed loop. Their keys appear
  // nowhere else in the stream.
  std::vector<std::string> warmup_json;
  std::vector<std::string> request_json;
  // Cache identity of each request: cluster, model, GPU (class, node)
  // multiset and nm ("max_nm" for max_nm requests, which probe every nm).
  std::vector<std::string> keys;
  std::vector<char> is_plan;
  std::vector<char> is_large;  // 12-16 GPU virtual worker on a spec cluster
};
PlanRequestStream GeneratePlanStream(uint64_t seed, size_t count);
// Length of the stream a plan run draws from: more distinct keys than
// plan_cold asks in a 60 s run at today's speed.
constexpr size_t kPlanStreamLength = 28000;

// Checks run by `perfbench --self-test`; returns the number of failures.
int RunSelfTests(const RunOptions& options);

}  // namespace perfbench
