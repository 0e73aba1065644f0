// Partitioner hot-path benchmark: times cold exact-tier solves
// (Partitioner::SolveScalable with strategy kExact) against the test oracle
// oracles::SolveReference (tests/oracles: naive O(stage-length) cost sums,
// vector-of-vector DP, factorial order scan with string dedup) across
// models x clusters x virtual-worker shapes x Nm, verifying on every point
// that the two return bit-identical partitions. Also pins the no-allocation
// property of the thread-local DP scratch: repeated warm solves must not grow
// a single buffer.
//
// The JSON rows (--json) are the repo's partitioner perf trajectory; commit a
// run as BENCH_partitioner.json (see README "Partitioner performance").
//
// Flags: --threads=N (default 1: timing stability) --repeat=N (default 5)
//        --out=PATH --json[=PATH] --csv[=PATH] --cache-file=PATH
//        --expect=PATH        compare every point's solve result against a
//                             checked-in expectations file; any divergence
//                             (or a missing/extra point) fails the run. The
//                             comparison covers results only, never timings,
//                             so it is stable across machines and compilers.
//        --write-expect=PATH  regenerate that file from this run
//        --growth[=smoke|full]  run the scalable-tier growth curve instead of
//                             the grid: synthetic racked heterogeneous
//                             clusters from 16 GPUs up to 1024 (full), timing
//                             SolveScalable under the kAuto selector. The
//                             16-GPU point stays on the exact path and is
//                             verified bit-identical to the kExact tier; it
//                             also anchors
//                             beam quality (forced-beam bottleneck vs the
//                             exact optimum).
//        --growth-budget-ms=N fail if any growth solve exceeds N ms wall
//                             clock (the CI ceiling).
//        --width-sweep[=smoke|full]  sweep beam_width x rack_order_limit x
//                             threads over the growth clusters
//                             (runner::RunWidthSweep), reporting quality vs
//                             the exact optimum / the sweep's best and
//                             asserting parallel solves bit-identical to
//                             serial. Emits bench=partitioner_width_sweep
//                             rows.
//
// Growth mode also times each case's solve on a thread pool (--threads=N,
// default 8 when unset) against the serial solve, asserts the two partitions
// bit-identical, and emits bench=partitioner_parallel rows (with the host
// core count, since speedup is bounded by it).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "hw/cluster.h"
#include "hw/cluster_spec.h"
#include "model/model_graph.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "model/transformer.h"
#include "model/vgg.h"
#include "oracles/reference.h"
#include "partition/partitioner.h"
#include "runner/cli.h"
#include "runner/spec_sweep.h"
#include "runner/sweep_runner.h"
#include "runner/thread_pool.h"
#include "runner/width_sweep.h"

namespace {

using namespace hetpipe;
using Clock = std::chrono::steady_clock;

// The generic cluster of the grid: a mixed-class node, a whimpy node, and a
// paper V node (the canonical runner::MixedDemoSpec, also the cluster_sweep
// straggler cluster, which exercises registered GPU classes and multi-class
// order enumeration).
hw::Cluster MixedCluster() { return runner::MixedDemoSpec("mixed-3node").Build(); }

struct GridPoint {
  std::string model;
  std::string cluster;
  std::string vw;  // PickGpus selector
  int nm = 1;
};

struct PointResult {
  GridPoint point;
  int layers = 0;
  int k = 0;
  bool feasible = false;
  double bottleneck_ms = 0.0;
  double ref_ms = 0.0;   // best-of-repeat cold oracles::SolveReference wall time
  double fast_ms = 0.0;  // best-of-repeat cold kExact SolveScalable wall time
  bool identical = false;
  std::string signature;  // timing-free solve result, for --expect
};

// Bit-exact comparison: the optimization must change speed, never results.
bool SamePartition(const partition::Partition& a, const partition::Partition& b) {
  if (a.feasible != b.feasible || a.bottleneck_time != b.bottleneck_time ||
      a.sum_time != b.sum_time || a.stages.size() != b.stages.size()) {
    return false;
  }
  for (size_t q = 0; q < a.stages.size(); ++q) {
    const partition::StageAssignment& x = a.stages[q];
    const partition::StageAssignment& y = b.stages[q];
    if (x.first_layer != y.first_layer || x.last_layer != y.last_layer ||
        x.gpu_id != y.gpu_id || x.gpu_type != y.gpu_type || x.node != y.node ||
        x.fwd_compute_s != y.fwd_compute_s || x.bwd_compute_s != y.bwd_compute_s ||
        x.fwd_comm_in_s != y.fwd_comm_in_s || x.bwd_comm_in_s != y.bwd_comm_in_s ||
        x.param_bytes != y.param_bytes || x.memory_bytes != y.memory_bytes) {
      return false;
    }
  }
  return true;
}

// Timing-free description of a solve result, printed with full double
// precision (%.17g round-trips), so an expectations file pins results across
// machines without pinning wall clock.
std::string Signature(const partition::Partition& p) {
  char buf[96];
  if (!p.feasible) {
    return "infeasible";
  }
  std::string sig;
  std::snprintf(buf, sizeof(buf), "b=%.17g s=%.17g", p.bottleneck_time, p.sum_time);
  sig += buf;
  for (const partition::StageAssignment& stage : p.stages) {
    std::snprintf(buf, sizeof(buf), " %d:%d-%d@%c", stage.gpu_id, stage.first_layer,
                  stage.last_layer, hw::CodeOf(stage.gpu_type));
    sig += buf;
  }
  return sig;
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::vector<GridPoint> BuildGrid() {
  std::vector<GridPoint> grid;
  const std::vector<std::pair<std::string, std::vector<std::string>>> cluster_vws = {
      {"paper", {"VVVV", "RRRR", "GGGG", "QQQQ", "VRGQ", "VVQQ"}},
      {"mixed-3node",
       {"BigCard*2,SmallCard*2", "SmallCard*4", "BigCard*1,SmallCard*1,V*2"}},
  };
  for (const char* model : {"resnet152", "vgg19", "bert-large"}) {
    for (const auto& [cluster, vws] : cluster_vws) {
      for (const std::string& vw : vws) {
        for (int nm : {1, 2, 4}) {
          grid.push_back(GridPoint{model, cluster, vw, nm});
        }
      }
    }
  }
  return grid;
}

model::ModelGraph BuildModelByName(const std::string& name) {
  if (name == "resnet152") {
    return model::BuildResNet152();
  }
  if (name == "vgg19") {
    return model::BuildVgg19();
  }
  return model::BuildBertLarge();
}

PointResult RunPoint(const GridPoint& point, const hw::Cluster& cluster,
                     const model::ModelProfile& profile, int repeat) {
  PointResult out;
  out.point = point;
  out.layers = profile.num_layers();

  const std::vector<int> gpu_ids = core::PickGpus(cluster, point.vw);
  out.k = static_cast<int>(gpu_ids.size());

  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = point.nm;
  options.strategy = partition::SearchStrategy::kExact;

  // One untimed round first: warms the DP scratch and pins equivalence.
  const partition::Partition reference = oracles::SolveReference(partitioner, gpu_ids, options);
  const partition::Partition fast = partitioner.SolveScalable(gpu_ids, options);
  out.identical = SamePartition(reference, fast);
  out.feasible = fast.feasible;
  out.bottleneck_ms = fast.bottleneck_time * 1e3;
  out.signature = Signature(fast);

  // Best-of-N: robust against preemption spikes on busy machines (a single
  // descheduling would otherwise dominate a mean at these microsecond
  // scales).
  for (int r = 0; r < repeat; ++r) {
    const auto start = Clock::now();
    (void)oracles::SolveReference(partitioner, gpu_ids, options);
    const double ms = MsBetween(start, Clock::now());
    out.ref_ms = r == 0 ? ms : std::min(out.ref_ms, ms);
  }
  for (int r = 0; r < repeat; ++r) {
    const auto start = Clock::now();
    (void)partitioner.SolveScalable(gpu_ids, options);
    const double ms = MsBetween(start, Clock::now());
    out.fast_ms = r == 0 ? ms : std::min(out.fast_ms, ms);
  }
  return out;
}

std::string ExpectKey(const GridPoint& point) {
  return point.model + "|" + point.cluster + "|" + point.vw + "|nm" +
         std::to_string(point.nm);
}

int CompareExpectations(const std::vector<PointResult>& results, const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "error: cannot read expectations file %s\n", path.c_str());
    return 1;
  }
  std::map<std::string, std::string> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      std::fprintf(stderr, "error: malformed expectations line: %s\n", line.c_str());
      return 1;
    }
    expected[line.substr(0, tab)] = line.substr(tab + 1);
  }
  int divergent = 0;
  for (const PointResult& r : results) {
    const std::string key = ExpectKey(r.point);
    auto it = expected.find(key);
    if (it == expected.end()) {
      std::fprintf(stderr, "EXPECT MISSING  %s\n", key.c_str());
      ++divergent;
      continue;
    }
    if (it->second != r.signature) {
      std::fprintf(stderr, "EXPECT DIVERGED %s\n  expected: %s\n  got:      %s\n",
                   key.c_str(), it->second.c_str(), r.signature.c_str());
      ++divergent;
    }
    expected.erase(it);
  }
  for (const auto& [key, sig] : expected) {
    std::fprintf(stderr, "EXPECT EXTRA    %s (file has a point this grid no longer runs)\n",
                 key.c_str());
    ++divergent;
  }
  if (divergent > 0) {
    std::fprintf(stderr, "%d expectation(s) diverged — solve results changed\n", divergent);
    return 1;
  }
  std::printf("all %zu solve results match %s\n", results.size(), path.c_str());
  return 0;
}

int WriteExpectations(const std::vector<PointResult>& results, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);  // lint: ofstream-allowed (expectation file, not rows)
  if (!out.is_open()) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  out << "# partitioner_speed solve-result expectations: key \\t signature.\n"
         "# Regenerate with: partitioner_speed --write-expect=<this file>\n";
  for (const PointResult& r : results) {
    out << ExpectKey(r.point) << '\t' << r.signature << '\n';
  }
  return out.good() ? 0 : 1;
}

// ---- The scalable-tier growth curve (--growth). ----

// One synthetic cluster scale: `nodes` homogeneous nodes of `gpus_per_node`
// GPUs cycling through four registered classes, grouped into `racks` racks
// (0 = no rack structure), with a virtual worker of `k` GPUs taken
// `per_node` at a time from evenly-strided nodes.
struct GrowthCase {
  std::string label;
  int nodes = 0;
  int gpus_per_node = 0;
  int racks = 0;
  int k = 0;
  int per_node = 1;
  bool compare_exact = false;  // k small enough for the exact oracle
};

std::vector<GrowthCase> GrowthCases(bool full) {
  std::vector<GrowthCase> cases = {
      // 16 GPUs, 2 racks, VW = 2 GPUs on each of 4 nodes: 8!/(2!^4) = 2520
      // distinct orders, under the selector's exact limit — the growth
      // curve's small end proves the auto path stays exact.
      {"g16-2rack", 4, 4, 2, 8, 2, true},
      // 64 GPUs, one GPU on each of 16 nodes across 4 racks: 16! orders,
      // resolved to the hierarchical search.
      {"g64-4rack", 16, 4, 4, 16, 1, false},
      // The same 64 GPUs with no rack structure: resolved to the flat beam.
      {"g64-norack", 16, 4, 0, 16, 1, false},
  };
  if (full) {
    cases.push_back({"g256-8rack", 64, 4, 8, 24, 1, false});
    cases.push_back({"g1024-16rack", 128, 8, 16, 32, 1, false});
  }
  return cases;
}

hw::Cluster BuildGrowthCluster(const GrowthCase& c) {
  static const char* kClasses[4] = {"GrowV", "GrowR", "GrowG", "GrowQ"};
  hw::ClusterSpec spec;
  spec.Named(c.label)
      .AddGpuClass("GrowV", 14.0, 12.0, 'v')
      .AddGpuClass("GrowR", 16.3, 24.0, 'r')
      .AddGpuClass("GrowG", 11.3, 8.0, 'g')
      .AddGpuClass("GrowQ", 5.3, 32.0, 'q');
  for (int node = 0; node < c.nodes; ++node) {
    spec.AddNode(kClasses[node % 4], c.gpus_per_node);
  }
  if (c.racks > 0) {
    const int per_rack = c.nodes / c.racks;
    for (int rack = 0; rack < c.racks; ++rack) {
      std::vector<int> members;
      for (int node = rack * per_rack; node < (rack + 1) * per_rack; ++node) {
        members.push_back(node);
      }
      spec.AddRack("rack" + std::to_string(rack), members);
    }
    spec.CrossRackGbits(5.0);
  }
  return spec.Build();
}

// The growth VW: `per_node` GPUs from each of k/per_node nodes strided evenly
// across the cluster (and therefore across its racks).
std::vector<int> PickGrowthVw(const hw::Cluster& cluster, const GrowthCase& c) {
  const int nodes_used = c.k / c.per_node;
  const int stride = std::max(1, c.nodes / nodes_used);
  std::vector<int> ids;
  for (int pick = 0; pick < nodes_used; ++pick) {
    const int node = pick * stride;
    int taken = 0;
    for (const hw::Gpu& gpu : cluster.gpus()) {
      if (gpu.node == node && taken < c.per_node) {
        ids.push_back(gpu.id);
        ++taken;
      }
    }
  }
  return ids;
}

// Registers the growth GPU classes (idempotent with AddGpuClass's numbers) —
// the profile only covers classes known at its construction, so these must
// exist before the resnet152 profile is built.
void RegisterGrowthClasses() {
  hw::RegisterGpuType("GrowV", 14.0, 12.0, 'v');
  hw::RegisterGpuType("GrowR", 16.3, 24.0, 'r');
  hw::RegisterGpuType("GrowG", 11.3, 8.0, 'g');
  hw::RegisterGpuType("GrowQ", 5.3, 32.0, 'q');
}

int RunGrowthCurve(bool full, double budget_ms, int repeat, int threads,
                   runner::ResultSink* sink) {
  RegisterGrowthClasses();
  // resnet152 is the deepest profiled model (54 layers), so it admits the
  // k=32 pipeline of the 1024-GPU point.
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const int timing_rounds = std::min(repeat, 3);
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  runner::ThreadPool pool(threads);
  bool ok = true;

  std::printf("scalable-tier growth curve (%s): resnet152, nm=1, kAuto selector, "
              "%d-thread pool on %d core(s)\n\n",
              full ? "full" : "smoke", pool.num_threads(), cores);
  for (const GrowthCase& c : GrowthCases(full)) {
    const hw::Cluster cluster = BuildGrowthCluster(c);
    const std::vector<int> gpu_ids = PickGrowthVw(cluster, c);
    const partition::Partitioner partitioner(profile, cluster);
    partition::PartitionOptions options;  // kAuto, defaults
    const partition::SearchStrategy strategy =
        partition::ResolveSearchStrategy(cluster, gpu_ids, options);
    const uint64_t orders =
        partition::EstimateOrderCount(cluster, gpu_ids, uint64_t{1} << 62);

    const partition::Partition solved = partitioner.SolveScalable(gpu_ids, options);
    double solve_ms = 0.0;
    for (int r = 0; r < timing_rounds; ++r) {
      const auto start = Clock::now();
      (void)partitioner.SolveScalable(gpu_ids, options);
      const double ms = MsBetween(start, Clock::now());
      solve_ms = r == 0 ? ms : std::min(solve_ms, ms);
    }

    // The same solve on the pool: index-ordered reductions make it
    // byte-identical to the serial result, so bit-equality is asserted, not
    // tolerated. Speedup is bounded by the host core count (reported in the
    // row — a 1-core container shows ~1x regardless of pool size).
    partition::PartitionOptions parallel_options = options;
    parallel_options.pool = &pool;
    const partition::Partition parallel_solved =
        partitioner.SolveScalable(gpu_ids, parallel_options);
    const bool parallel_identical = SamePartition(parallel_solved, solved);
    double parallel_ms = 0.0;
    for (int r = 0; r < timing_rounds; ++r) {
      const auto start = Clock::now();
      (void)partitioner.SolveScalable(gpu_ids, parallel_options);
      const double ms = MsBetween(start, Clock::now());
      parallel_ms = r == 0 ? ms : std::min(parallel_ms, ms);
    }

    bool point_ok = solved.feasible && parallel_identical;
    double beam_over_exact = 0.0;
    if (c.compare_exact) {
      // The selector must have kept this point exact, bit-identically; the
      // forced beam anchors approximate quality against the true optimum.
      partition::PartitionOptions exact_options = options;
      exact_options.strategy = partition::SearchStrategy::kExact;
      const partition::Partition exact = partitioner.SolveScalable(gpu_ids, exact_options);
      point_ok = point_ok && strategy == partition::SearchStrategy::kExact &&
                 SamePartition(solved, exact);
      partition::PartitionOptions beam_options = options;
      beam_options.strategy = partition::SearchStrategy::kBeam;
      const partition::Partition beam = partitioner.SolveScalable(gpu_ids, beam_options);
      point_ok = point_ok && beam.feasible &&
                 beam.bottleneck_time >= exact.bottleneck_time - 1e-12;
      beam_over_exact =
          exact.bottleneck_time > 0.0 ? beam.bottleneck_time / exact.bottleneck_time : 0.0;
    }
    const bool within_budget = budget_ms <= 0.0 || solve_ms <= budget_ms;
    ok = ok && point_ok && within_budget;

    std::printf("  %-13s %4d gpus  k=%-2d  %-12s orders~%llu  %8.2f ms serial  "
                "%8.2f ms x%d%s%s  bottleneck %.3f ms%s%s\n",
                c.label.c_str(), c.nodes * c.gpus_per_node, c.k,
                partition::SearchStrategyName(strategy),
                static_cast<unsigned long long>(orders), solve_ms, parallel_ms,
                pool.num_threads(), parallel_identical ? "" : " DIVERGED",
                parallel_identical ? "" : " — BUG", solved.bottleneck_time * 1e3,
                c.compare_exact && beam_over_exact > 0.0
                    ? (" (beam/exact " + std::to_string(beam_over_exact) + ")").c_str()
                    : "",
                point_ok ? (within_budget ? "" : "  OVER BUDGET") : "  FAILED");
    if (sink != nullptr) {
      runner::ResultRow row;
      row.Set("bench", "partitioner_growth")
          .Set("case", c.label)
          .Set("gpus", c.nodes * c.gpus_per_node)
          .Set("nodes", c.nodes)
          .Set("racks", c.racks)
          .Set("k", c.k)
          .Set("strategy", partition::SearchStrategyName(strategy))
          .Set("orders_estimate", static_cast<double>(orders))
          .Set("solve_ms", solve_ms)
          .Set("feasible", solved.feasible)
          .Set("bottleneck_ms", solved.bottleneck_time * 1e3);
      if (c.compare_exact) {
        row.Set("beam_over_exact", beam_over_exact);
      }
      sink->Write(row);
      runner::ResultRow parallel_row;
      parallel_row.Set("bench", "partitioner_parallel")
          .Set("case", c.label)
          .Set("gpus", c.nodes * c.gpus_per_node)
          .Set("k", c.k)
          .Set("strategy", partition::SearchStrategyName(strategy))
          .Set("threads", pool.num_threads())
          .Set("cores", cores)
          .Set("serial_ms", solve_ms)
          .Set("parallel_ms", parallel_ms)
          .Set("speedup", parallel_ms > 0.0 ? solve_ms / parallel_ms : 0.0)
          .Set("identical", parallel_identical);
      sink->Write(parallel_row);
    }
  }
  if (sink != nullptr) {
    sink->Flush();
  }
  std::printf("\ngrowth curve %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

// --width-sweep: the autotuning sweep over the same growth clusters. Clusters
// live in a deque (stable addresses — WidthSweepCase keeps pointers into it).
int RunWidthSweepMode(bool full, int repeat, runner::ResultSink* sink) {
  RegisterGrowthClasses();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);

  std::deque<hw::Cluster> clusters;
  std::vector<runner::WidthSweepCase> cases;
  for (const GrowthCase& c : GrowthCases(full)) {
    clusters.push_back(BuildGrowthCluster(c));
    runner::WidthSweepCase sweep_case;
    sweep_case.label = c.label;
    sweep_case.cluster = &clusters.back();
    sweep_case.gpu_ids = PickGrowthVw(clusters.back(), c);
    sweep_case.has_exact = c.compare_exact;
    cases.push_back(std::move(sweep_case));
  }

  runner::WidthSweepConfig config;
  config.repeat = std::min(repeat, 3);
  return runner::RunWidthSweep(profile, cases, config, sink) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  runner::BenchArgs args = runner::BenchArgs::Parse(argc, argv);
  int repeat = 5;
  std::string expect_path;
  std::string write_expect_path;
  bool growth = false;
  bool growth_full = false;
  bool width_sweep = false;
  bool width_sweep_full = false;
  double growth_budget_ms = 0.0;
  for (const std::string& arg : args.rest) {
    if (arg == "--growth" || arg == "--growth=smoke") {
      growth = true;
    } else if (arg == "--growth=full") {
      growth = true;
      growth_full = true;
    } else if (arg == "--width-sweep" || arg == "--width-sweep=smoke") {
      width_sweep = true;
    } else if (arg == "--width-sweep=full") {
      width_sweep = true;
      width_sweep_full = true;
    } else if (arg.rfind("--growth-budget-ms=", 0) == 0) {
      int parsed = 0;
      if (!runner::ParseIntFlag(arg.substr(19), &parsed) || parsed < 1) {
        std::fprintf(stderr, "error: --growth-budget-ms needs a positive integer, got \"%s\"\n",
                     arg.c_str() + 19);
        return 2;
      }
      growth_budget_ms = parsed;
    } else if (arg.rfind("--repeat=", 0) == 0) {
      int parsed = 0;
      if (!runner::ParseIntFlag(arg.substr(9), &parsed) || parsed < 1) {
        std::fprintf(stderr, "error: --repeat needs a positive integer, got \"%s\"\n",
                     arg.c_str() + 9);
        return 2;
      }
      repeat = parsed;
    } else if (arg.rfind("--expect=", 0) == 0) {
      expect_path = arg.substr(9);
    } else if (arg.rfind("--write-expect=", 0) == 0) {
      write_expect_path = arg.substr(15);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  if (width_sweep) {
    return RunWidthSweepMode(width_sweep_full, repeat, args.sink());
  }
  if (growth) {
    return RunGrowthCurve(growth_full, growth_budget_ms, repeat,
                          args.threads > 1 ? args.threads : 8, args.sink());
  }

  // Shared read-only inputs, built once: profiles are per (model, batch) and
  // clusters per label. GPU classes the mixed spec declares register here.
  const hw::Cluster paper = hw::Cluster::Paper();
  const hw::Cluster mixed = MixedCluster();
  const auto cluster_of = [&](const std::string& label) -> const hw::Cluster& {
    return label == "paper" ? paper : mixed;
  };
  std::map<std::string, model::ModelGraph> graphs;
  for (const char* name : {"resnet152", "vgg19", "bert-large"}) {
    graphs.emplace(name, BuildModelByName(name));
  }
  std::map<std::string, model::ModelProfile> profiles;
  for (const auto& [name, graph] : graphs) {
    profiles.emplace(name, model::ModelProfile(graph, 32));
  }

  const std::vector<GridPoint> grid = BuildGrid();
  std::printf("timing %zu grid points (cold kExact solve vs oracles::SolveReference,\n"
              "best of %d repetitions each)\n\n",
              grid.size(), repeat);

  runner::SweepOptions sweep_options = args.sweep_options();
  sweep_options.threads = args.threads > 0 ? args.threads : 1;
  runner::SweepRunner sweep(sweep_options);
  const std::vector<PointResult> results = sweep.Map<PointResult>(
      static_cast<int64_t>(grid.size()), [&](int64_t i) {
        const GridPoint& point = grid[static_cast<size_t>(i)];
        return RunPoint(point, cluster_of(point.cluster), profiles.at(point.model), repeat);
      });

  bool all_identical = true;
  double resnet_paper_speedup_min = 0.0;
  double resnet_paper_speedup_geo = 1.0;
  int resnet_paper_points = 0;
  for (const PointResult& r : results) {
    all_identical = all_identical && r.identical;
    const double speedup = r.fast_ms > 0.0 ? r.ref_ms / r.fast_ms : 0.0;
    std::printf("  %-10s %-12s %-28s nm=%d  %8.3f -> %7.3f ms  (%5.1fx)%s\n",
                r.point.model.c_str(), r.point.cluster.c_str(), r.point.vw.c_str(),
                r.point.nm, r.ref_ms, r.fast_ms, speedup,
                r.identical ? "" : "  RESULTS DIVERGED — BUG");
    if (r.point.model == "resnet152" && r.point.cluster == "paper" && r.k == 4) {
      resnet_paper_speedup_min = resnet_paper_points == 0
                                     ? speedup
                                     : std::min(resnet_paper_speedup_min, speedup);
      resnet_paper_speedup_geo *= speedup;
      ++resnet_paper_points;
    }
    if (runner::ResultSink* sink = args.sink()) {
      runner::ResultRow row;
      row.Set("bench", "partitioner_speed")
          .Set("model", r.point.model)
          .Set("cluster", r.point.cluster)
          .Set("vw", r.point.vw)
          .Set("nm", r.point.nm)
          .Set("layers", r.layers)
          .Set("k", r.k)
          .Set("feasible", r.feasible)
          .Set("bottleneck_ms", r.bottleneck_ms)
          .Set("ref_solve_ms", r.ref_ms)
          .Set("fast_solve_ms", r.fast_ms)
          .Set("speedup", speedup)
          .Set("identical", r.identical);
      sink->Write(row);
    }
  }

  // Warm-solve allocation check: after the grid every shape has been seen, so
  // further solves on this thread must not grow a single scratch buffer.
  const std::vector<int> warm_ids = core::PickGpus(paper, "VRGQ");
  const partition::Partitioner warm_partitioner(profiles.at("resnet152"), paper);
  partition::PartitionOptions warm_options;
  warm_options.nm = 2;
  warm_options.strategy = partition::SearchStrategy::kExact;
  (void)warm_partitioner.SolveScalable(warm_ids, warm_options);  // warm this thread's scratch
  const int64_t grows_before = partition::DpScratchGrowCount();
  for (int r = 0; r < 50; ++r) {
    (void)warm_partitioner.SolveScalable(warm_ids, warm_options);
  }
  const int64_t scratch_grows = partition::DpScratchGrowCount() - grows_before;

  if (resnet_paper_points > 0) {
    resnet_paper_speedup_geo =
        std::pow(resnet_paper_speedup_geo, 1.0 / resnet_paper_points);
  }
  std::printf("\nresnet152 on the paper 4-GPU VWs: cold-solve speedup geomean %.1fx, min %.1fx "
              "(%d points)\n",
              resnet_paper_speedup_geo, resnet_paper_speedup_min, resnet_paper_points);
  std::printf("scratch buffer grows during 50 repeated warm solves: %lld %s\n",
              static_cast<long long>(scratch_grows),
              scratch_grows == 0 ? "(no per-solve DP allocation)" : "— BUG");
  std::printf("optimized vs reference results bit-identical on all points: %s\n",
              all_identical ? "yes" : "NO — BUG");

  if (runner::ResultSink* sink = args.sink()) {
    runner::ResultRow summary;
    summary.Set("bench", "partitioner_speed_summary")
        .Set("resnet152_paper_speedup_geomean", resnet_paper_speedup_geo)
        .Set("resnet152_paper_speedup_min", resnet_paper_speedup_min)
        .Set("scratch_grows_warm", scratch_grows)
        .Set("all_identical", all_identical);
    sink->Write(summary);
    sink->Flush();
  }

  int exit_code = (all_identical && scratch_grows == 0) ? 0 : 1;
  if (!write_expect_path.empty()) {
    exit_code = std::max(exit_code, WriteExpectations(results, write_expect_path));
  }
  if (!expect_path.empty()) {
    exit_code = std::max(exit_code, CompareExpectations(results, expect_path));
  }
  return exit_code;
}
