// perfbench --self-test: checks on the benchmark itself (the generator, the
// workload invariants, and the traced accounting), each printed as ok/FAIL.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  return ok ? 0 : 1;
}

std::map<std::string, double> MetricMap(const RunResult& result) {
  std::map<std::string, double> out;
  for (const Metric& m : result.metrics) out[m.name] = m.value;
  return out;
}

// The layer with the largest share of traced op time.
std::string LargestShare(const std::map<std::string, double>& metrics) {
  std::string best;
  double best_value = -1.0;
  for (int l = 0; l < kNumLayers; ++l) {
    const std::string name = std::string(LayerName(static_cast<Layer>(l))) + ".share";
    const auto it = metrics.find(name);
    if (it != metrics.end() && it->second > best_value) {
      best = name;
      best_value = it->second;
    }
  }
  return best;
}

RunResult Run(const RunOptions& base, const std::string& workload, double seconds, bool trace) {
  RunOptions options = base;
  options.workload = workload;
  options.seconds = seconds;
  options.trace = trace;
  options.seed = 3;
  if (workload == "repro_cold") return RunRepro(options);
  return RunPlan(options, workload == "plan_warm");
}

std::string Describe(const RunResult& result) {
  std::string out = "attempted " + std::to_string(result.attempted) + ", failed " +
                    std::to_string(result.failed);
  for (const std::string& error : result.errors) out += "; " + error;
  return out;
}

}  // namespace

int RunSelfTests(const RunOptions& options) {
  int failures = 0;

  // Generator: deterministic per seed, different across seeds.
  const PlanRequestStream a = GeneratePlanStream(7, 2000);
  const PlanRequestStream b = GeneratePlanStream(7, 2000);
  const PlanRequestStream c = GeneratePlanStream(8, 2000);
  failures += Check(a.request_json == b.request_json && a.warmup_json == b.warmup_json,
                    "generator: the same seed gives the same requests");
  failures += Check(a.request_json != c.request_json, "generator: another seed differs");

  // plan_cold keys: pairwise distinct, never a warm-up key, and no max_nm
  // multiset (whose probes cover every nm) shared with a plan request.
  const PlanRequestStream full = GeneratePlanStream(7, kPlanStreamLength);
  const std::set<std::string> keys(full.keys.begin(), full.keys.end());
  const std::set<std::string> warmups(full.warmup_json.begin(), full.warmup_json.end());
  bool warmup_reused = false;
  for (const std::string& request : full.request_json) {
    warmup_reused = warmup_reused || warmups.count(request) > 0;
  }
  std::set<std::string> max_nm_shapes;
  std::set<std::string> plan_shapes;
  size_t plans = 0;
  size_t large = 0;
  for (size_t i = 0; i < full.keys.size(); ++i) {
    const std::string shape = full.keys[i].substr(0, full.keys[i].rfind('|'));
    (full.is_plan[i] ? plan_shapes : max_nm_shapes).insert(shape);
    plans += full.is_plan[i] ? 1 : 0;
    large += full.is_large[i] ? 1 : 0;
  }
  bool shared_shape = false;
  for (const std::string& shape : max_nm_shapes) {
    shared_shape = shared_shape || plan_shapes.count(shape) > 0;
  }
  failures += Check(full.keys.size() == kPlanStreamLength && keys.size() == full.keys.size() &&
                        !warmup_reused && !shared_shape,
                    "plan_cold: " + std::to_string(full.keys.size()) +
                        " keys pairwise distinct, disjoint from warm-up and max_nm shapes");
  failures += Check(plans * 10 == full.keys.size() * 8 && large * 10 == full.keys.size(),
                    "plan_cold: 80% plan / 20% max_nm, one in ten a 12-16 GPU VW");

  // Workload runs: correct, and the traced shares confirm the design.
  const RunResult warm = Run(options, "plan_warm", 1, false);
  failures += Check(warm.correct && warm.failed == 0,
                    "plan_warm: every timed answer is a cache hit equal to its cold answer (" +
                        Describe(warm) + ")");

  const RunResult repro = Run(options, "repro_cold", 2, true);
  auto repro_m = MetricMap(repro);
  failures += Check(repro.correct, "repro_cold traced: rows bit-identical, goldens match, "
                                   "self times sum to op totals (" + Describe(repro) + ")");
  failures += Check(LargestShare(repro_m) == "sim.share",
                    "repro_cold traced: sim.share is the largest share");

  const RunResult cold = Run(options, "plan_cold", 2, true);
  auto cold_m = MetricMap(cold);
  failures += Check(cold.correct, "plan_cold traced: answers equal PlanServer's, self times sum "
                                  "to op totals (" + Describe(cold) + ")");
  failures += Check(LargestShare(cold_m) == "partition.share" && cold_m["sim.share"] == 0.0,
                    "plan_cold traced: partition.share is the largest share, no sim");
  failures += Check(cold_m["partition.tier_beam_share"] > 0.0 &&
                        cold_m["partition.tier_hier_share"] > 0.0,
                    "plan_cold traced: large requests reach the beam and hierarchical tiers");

  const RunResult warm_traced = Run(options, "plan_warm", 2, true);
  auto warm_m = MetricMap(warm_traced);
  failures += Check(warm_traced.correct, "plan_warm traced: answers equal PlanServer's, self "
                                         "times sum to op totals (" + Describe(warm_traced) +
                                             ")");
  failures += Check(warm_m["cache.hit_rate"] == 1.0 && warm_m["partition.share"] == 0.0 &&
                        warm_m["sim.share"] == 0.0 && warm_m["serve.share"] >= 0.5,
                    "plan_warm traced: hit rate 1, no partition or sim time, serve >= half");
  return failures;
}

}  // namespace perfbench
