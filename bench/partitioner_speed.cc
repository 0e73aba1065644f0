// Partitioner hot-path benchmark: times cold exact-tier solves
// (Partitioner::SolveScalable with strategy kExact) against the test oracle
// oracles::SolveReference (tests/oracles: naive O(stage-length) cost sums,
// vector-of-vector DP, factorial order scan with string dedup) on the 81
// points of oracles::SolveGrid (models x clusters x virtual-worker shapes x
// Nm), verifying on every point that the two return bit-identical
// partitions. partition_test pins the grid's answers in
// tests/golden/partitioner_solves.txt. Also pins the no-allocation
// property of the thread-local DP scratch: repeated warm solves must not grow
// a single buffer.
//
// The JSON rows (--json) are the repo's partitioner perf trajectory; commit a
// run as BENCH_partitioner.json (see README "Partitioner performance").
//
// Flags: --threads=N (default 1: timing stability) --repeat=N (default 5)
//        --out=PATH --json[=PATH] --csv[=PATH] --cache-file=PATH
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
//                             (RunWidthSweep), reporting quality vs
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
#include <limits>
#include <map>
#include <memory>
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
#include "oracles/golden.h"
#include "oracles/reference.h"
#include "partition/partitioner.h"
#include "runner/cli.h"
#include "runner/sweep_runner.h"
#include "runner/thread_pool.h"

namespace {

using namespace hetpipe;
using Clock = std::chrono::steady_clock;

struct PointResult {
  oracles::SolveGridPoint point;
  int layers = 0;
  int k = 0;
  bool feasible = false;
  double bottleneck_ms = 0.0;
  double ref_ms = 0.0;   // per-call cold oracles::SolveReference wall time, best batch
  double fast_ms = 0.0;  // per-call cold kExact SolveScalable wall time, best batch
  bool identical = false;
};

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Timing at microsecond scale. A timed batch repeats one call enough times
// to take about 5 ms (the count doubles from one call until it does), so a
// 5 us solve is timed over a thousand calls. The best of single calls moved
// the ResNet-152 geomean by 10% from run to run, and 1 ms batches by as
// much on a 4-vCPU VM; 5 ms batches held it to about 6%.
constexpr double kBatchMs = 5.0;

// The mean per-call time of one batch of `batch` calls, in ms.
template <typename Solve>
double BatchMs(int batch, const Solve& solve) {
  const auto start = Clock::now();
  for (int i = 0; i < batch; ++i) {
    solve();
  }
  return MsBetween(start, Clock::now()) / batch;
}

template <typename Solve>
int BatchSize(const Solve& solve) {
  int batch = 1;
  while (BatchMs(batch, solve) * batch < kBatchMs) {
    batch *= 2;
  }
  return batch;
}

PointResult RunPoint(const oracles::SolveGridPoint& point, const hw::Cluster& cluster,
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
  out.identical = oracles::SamePartition(reference, fast);
  out.feasible = fast.feasible;
  out.bottleneck_ms = fast.bottleneck_time * 1e3;

  // Best of `repeat` batches each, the reference's and the solver's batches
  // alternating so that both see the same host speed: the best batch shrugs
  // off a preemption, and the ratio is not skewed by a host that slows down
  // between the two.
  const auto solve_ref = [&] { (void)oracles::SolveReference(partitioner, gpu_ids, options); };
  const auto solve_fast = [&] { (void)partitioner.SolveScalable(gpu_ids, options); };
  const int ref_batch = BatchSize(solve_ref);
  const int fast_batch = BatchSize(solve_fast);
  out.ref_ms = std::numeric_limits<double>::infinity();
  out.fast_ms = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeat; ++r) {
    out.ref_ms = std::min(out.ref_ms, BatchMs(ref_batch, solve_ref));
    out.fast_ms = std::min(out.fast_ms, BatchMs(fast_batch, solve_fast));
  }
  return out;
}

// ---- The scalable-tier growth curve (--growth). ----

// One synthetic cluster scale: `nodes` homogeneous nodes of `gpus_per_node`
// GPUs cycling through four declared classes, grouped into `racks` racks
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

int RunGrowthCurve(bool full, double budget_ms, int repeat, int threads,
                   runner::ResultSink* sink) {
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
    const bool parallel_identical = oracles::SamePartition(parallel_solved, solved);
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
                 oracles::SamePartition(solved, exact);
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

// ---- --width-sweep ----
//
// The width/limit autotuning sweep for the scalable partitioner tier: solves each
// case under a grid of beam widths, rack order limits, and thread counts,
// anchoring quality against the exact optimum where one is tractable and
// against the sweep's own best elsewhere. Doubles as the parallel-determinism
// harness: every multi-threaded solve is compared field-for-field against its
// serial twin, and any divergence fails the sweep — the searches reduce in
// index order, so the comparison demands bit-identity, not tolerance.

// One cluster/virtual-worker input of a width sweep. The sweep does not own
// the cluster; callers keep it alive for the duration (RunWidthSweepMode
// passes its growth clusters).
struct WidthSweepCase {
  std::string label;
  const hw::Cluster* cluster = nullptr;
  std::vector<int> gpu_ids;
  // When true, k is small enough for the exact order enumeration; the sweep
  // solves it once as the quality baseline (quality_vs_exact).
  bool has_exact = false;
};

// The sweep grid. Per case: kBeam over every beam width, plus — when the
// auto selector would pick the hierarchical search for that case —
// kHierarchical over every rack order limit; each configuration is solved at
// every thread count. thread value 1 means no pool (the serial path); larger
// values run on a ThreadPool of that size, and the result is asserted
// byte-identical to the serial solve (index-ordered reductions make parallel
// and serial the same bytes at any thread count).
struct WidthSweepConfig {
  std::vector<int> beam_widths = {2, 4, 8, 16, 32};
  std::vector<int64_t> rack_order_limits = {24, 120, 720};
  std::vector<int> thread_counts = {1, 2, 8};
  int repeat = 3;  // best-of-N timing per configuration
  // nm / memory knobs for every solve; strategy, beam_width, rack_order_limit
  // and pool are overwritten by the sweep.
  partition::PartitionOptions base;
};

struct WidthSweepRow {
  std::string case_label;
  std::string strategy;  // "beam" | "hierarchical"
  int beam_width = 0;
  int64_t rack_order_limit = 0;
  int threads = 1;  // 1 = serial (no pool)
  bool feasible = false;
  double solve_ms = 0.0;
  double bottleneck_ms = 0.0;
  // bottleneck / exact-optimum bottleneck (0 when the case has no exact
  // baseline) and bottleneck / best bottleneck any swept configuration of
  // this case found (1.0 = this configuration ties the sweep's best).
  double quality_vs_exact = 0.0;
  double quality_vs_best = 0.0;
  // Parallel solve bit-identical to the serial one (always true for the
  // serial rows themselves). Any false fails the sweep.
  bool thread_identical = true;
};

// One (strategy, knob) point of the per-case grid.
struct ConfigPoint {
  partition::SearchStrategy strategy = partition::SearchStrategy::kBeam;
  int beam_width = 0;
  int64_t rack_order_limit = 0;
};

// Runs the sweep, prints one table line per row, and emits
// bench=partitioner_width_sweep JSON rows (plus a per-core "cores" field) to
// `sink` when non-null. Returns false if any solve was infeasible or any
// parallel solve diverged from its serial twin. docs/benchmarks.md documents
// the row schema.
bool RunWidthSweep(const model::ModelProfile& profile,
                   const std::vector<WidthSweepCase>& cases, const WidthSweepConfig& config,
                   runner::ResultSink* sink) {
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int timing_rounds = std::max(1, config.repeat);

  // Pools are shared across cases and built lazily per distinct thread count.
  std::vector<std::pair<int, std::unique_ptr<runner::ThreadPool>>> pools;
  const auto pool_of = [&](int threads) -> runner::ThreadPool* {
    if (threads <= 1) return nullptr;  // 1 = the serial path, no pool at all
    for (auto& [count, pool] : pools) {
      if (count == threads) return pool.get();
    }
    pools.emplace_back(threads, std::make_unique<runner::ThreadPool>(threads));
    return pools.back().second.get();
  };

  std::printf("width sweep: %zu case(s), %d hardware core(s), best of %d\n",
              cases.size(), cores, timing_rounds);
  std::printf("  %-13s %-12s %5s %6s %3s  %9s  %12s  %8s %8s\n", "case", "strategy",
              "width", "limit", "thr", "solve_ms", "bottleneck", "vs_exact", "vs_best");

  bool ok = true;
  for (const WidthSweepCase& c : cases) {
    const partition::Partitioner partitioner(profile, *c.cluster);
    partition::PartitionOptions base = config.base;
    base.pool = nullptr;

    double exact_bottleneck = 0.0;
    if (c.has_exact) {
      partition::PartitionOptions exact_options = base;
      exact_options.strategy = partition::SearchStrategy::kExact;
      const partition::Partition exact = partitioner.SolveScalable(c.gpu_ids, exact_options);
      if (exact.feasible) exact_bottleneck = exact.bottleneck_time;
    }

    // kBeam is swept everywhere; the rack-limit axis only matters where the
    // auto selector would run the hierarchical search (a rack-less or
    // single-rack case degrades it to the beam anyway).
    const bool sweep_hier =
        partition::ResolveSearchStrategy(*c.cluster, c.gpu_ids, base) ==
        partition::SearchStrategy::kHierarchical;
    std::vector<ConfigPoint> points;
    for (int width : config.beam_widths) {
      points.push_back({partition::SearchStrategy::kBeam, width, base.rack_order_limit});
    }
    if (sweep_hier) {
      for (int64_t limit : config.rack_order_limits) {
        points.push_back({partition::SearchStrategy::kHierarchical, base.beam_width, limit});
      }
    }

    std::vector<WidthSweepRow> case_rows;
    double best_bottleneck = std::numeric_limits<double>::infinity();
    for (const ConfigPoint& point : points) {
      partition::PartitionOptions options = base;
      options.strategy = point.strategy;
      options.beam_width = point.beam_width;
      options.rack_order_limit = point.rack_order_limit;

      options.pool = nullptr;
      const partition::Partition serial = partitioner.SolveScalable(c.gpu_ids, options);
      if (serial.feasible) {
        best_bottleneck = std::min(best_bottleneck, serial.bottleneck_time);
      }

      for (int threads : config.thread_counts) {
        options.pool = pool_of(threads);
        const partition::Partition solved =
            options.pool == nullptr ? serial : partitioner.SolveScalable(c.gpu_ids, options);

        WidthSweepRow row;
        row.case_label = c.label;
        row.strategy = partition::SearchStrategyName(point.strategy);
        row.beam_width = point.beam_width;
        row.rack_order_limit = point.rack_order_limit;
        row.threads = threads;
        row.feasible = solved.feasible;
        row.bottleneck_ms = solved.bottleneck_time * 1e3;
        row.thread_identical = oracles::SamePartition(solved, serial);
        if (exact_bottleneck > 0.0) {
          row.quality_vs_exact = solved.bottleneck_time / exact_bottleneck;
        }
        for (int r = 0; r < timing_rounds; ++r) {
          const auto start = Clock::now();
          (void)partitioner.SolveScalable(c.gpu_ids, options);
          const double ms = MsBetween(start, Clock::now());
          row.solve_ms = r == 0 ? ms : std::min(row.solve_ms, ms);
        }
        ok = ok && row.feasible && row.thread_identical;
        case_rows.push_back(std::move(row));
      }
    }

    for (WidthSweepRow& row : case_rows) {
      if (best_bottleneck > 0.0 && std::isfinite(best_bottleneck)) {
        row.quality_vs_best = (row.bottleneck_ms * 1e-3) / best_bottleneck;
      }
      char vs_exact[32] = "-";
      if (row.quality_vs_exact > 0.0) {
        std::snprintf(vs_exact, sizeof(vs_exact), "%.4f", row.quality_vs_exact);
      }
      std::printf("  %-13s %-12s %5d %6lld %3d  %9.3f  %9.3f ms  %8s %8.4f%s\n",
                  row.case_label.c_str(), row.strategy.c_str(), row.beam_width,
                  static_cast<long long>(row.rack_order_limit), row.threads, row.solve_ms,
                  row.bottleneck_ms, vs_exact, row.quality_vs_best,
                  row.feasible ? (row.thread_identical ? "" : "  PARALLEL DIVERGED — BUG")
                               : "  INFEASIBLE");
      if (sink != nullptr) {
        runner::ResultRow out;
        out.Set("bench", "partitioner_width_sweep")
            .Set("case", row.case_label)
            .Set("strategy", row.strategy)
            .Set("beam_width", row.beam_width)
            .Set("rack_order_limit", row.rack_order_limit)
            .Set("threads", row.threads)
            .Set("cores", cores)
            .Set("feasible", row.feasible)
            .Set("solve_ms", row.solve_ms)
            .Set("bottleneck_ms", row.bottleneck_ms)
            .Set("quality_vs_best", row.quality_vs_best)
            .Set("thread_identical", row.thread_identical);
        if (row.quality_vs_exact > 0.0) {
          out.Set("quality_vs_exact", row.quality_vs_exact);
        }
        sink->Write(out);
      }
    }

    // Default-retuning summary: the narrowest serial beam that already ties
    // the sweep's best bottleneck for this case (quality saturates there —
    // anything wider only costs time).
    int saturating_width = 0;
    for (const WidthSweepRow& row : case_rows) {
      if (row.strategy == std::string("beam") && row.threads == 1 && row.feasible &&
          row.quality_vs_best <= 1.0 + 1e-12) {
        saturating_width = saturating_width == 0 ? row.beam_width
                                                 : std::min(saturating_width, row.beam_width);
      }
    }
    if (saturating_width > 0) {
      std::printf("  %-13s beam quality saturates at width %d\n", c.label.c_str(),
                  saturating_width);
    }
  }
  if (sink != nullptr) {
    sink->Flush();
  }
  std::printf("width sweep %s\n", ok ? "ok" : "FAILED");
  return ok;
}


// --width-sweep: the autotuning sweep over the same growth clusters. Clusters
// live in a deque (stable addresses — WidthSweepCase keeps pointers into it).
int RunWidthSweepMode(bool full, int repeat, runner::ResultSink* sink) {
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);

  std::deque<hw::Cluster> clusters;
  std::vector<WidthSweepCase> cases;
  for (const GrowthCase& c : GrowthCases(full)) {
    clusters.push_back(BuildGrowthCluster(c));
    WidthSweepCase sweep_case;
    sweep_case.label = c.label;
    sweep_case.cluster = &clusters.back();
    sweep_case.gpu_ids = PickGrowthVw(clusters.back(), c);
    sweep_case.has_exact = c.compare_exact;
    cases.push_back(std::move(sweep_case));
  }

  WidthSweepConfig config;
  config.repeat = std::min(repeat, 3);
  return RunWidthSweep(profile, cases, config, sink) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  runner::BenchArgs args = runner::BenchArgs::Parse(argc, argv);
  int repeat = 5;
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
  // clusters per label.
  const hw::Cluster paper = oracles::SolveGridCluster("paper");
  const hw::Cluster mixed = oracles::SolveGridCluster("mixed-3node");
  const auto cluster_of = [&](const std::string& label) -> const hw::Cluster& {
    return label == "paper" ? paper : mixed;
  };
  std::map<std::string, model::ModelGraph> graphs;
  for (const char* name : {"resnet152", "vgg19", "bert-large"}) {
    graphs.emplace(name, core::BuildModel(core::ParseModelKind(name)));
  }
  std::map<std::string, model::ModelProfile> profiles;
  for (const auto& [name, graph] : graphs) {
    profiles.emplace(name, model::ModelProfile(graph, oracles::kSolveGridBatch));
  }

  const std::vector<oracles::SolveGridPoint> grid = oracles::SolveGrid();
  std::printf("timing %zu grid points (cold kExact solve vs oracles::SolveReference,\n"
              "best of %d ~5 ms batches each)\n\n",
              grid.size(), repeat);

  runner::SweepOptions sweep_options = args.sweep_options();
  sweep_options.threads = args.threads > 0 ? args.threads : 1;
  runner::SweepRunner sweep(sweep_options);
  const std::vector<PointResult> results = sweep.Map<PointResult>(
      static_cast<int64_t>(grid.size()), [&](int64_t i) {
        const oracles::SolveGridPoint& point = grid[static_cast<size_t>(i)];
        return RunPoint(point, cluster_of(point.cluster), profiles.at(point.model), repeat);
      });

  bool all_identical = true;
  double resnet_paper_speedup_min = 0.0;
  double resnet_paper_speedup_geo = 1.0;
  // The per-call times the speedup geomean divides, so a re-record shows
  // which side of the ratio moved.
  double resnet_paper_ref_ms_geo = 1.0;
  double resnet_paper_fast_ms_geo = 1.0;
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
      resnet_paper_ref_ms_geo *= r.ref_ms;
      resnet_paper_fast_ms_geo *= r.fast_ms;
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
    resnet_paper_ref_ms_geo = std::pow(resnet_paper_ref_ms_geo, 1.0 / resnet_paper_points);
    resnet_paper_fast_ms_geo = std::pow(resnet_paper_fast_ms_geo, 1.0 / resnet_paper_points);
  }
  std::printf("\nresnet152 on the paper 4-GPU VWs: cold-solve speedup geomean %.1fx, min %.1fx "
              "(%d points)\n",
              resnet_paper_speedup_geo, resnet_paper_speedup_min, resnet_paper_points);
  std::printf("  per-call solve geomean: reference %.4f ms, optimized %.4f ms\n",
              resnet_paper_ref_ms_geo, resnet_paper_fast_ms_geo);
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
        .Set("resnet152_paper_ref_solve_ms_geomean", resnet_paper_ref_ms_geo)
        .Set("resnet152_paper_fast_solve_ms_geomean", resnet_paper_fast_ms_geo)
        .Set("scratch_grows_warm", scratch_grows)
        .Set("all_identical", all_identical);
    sink->Write(summary);
    sink->Flush();
  }

  return (all_identical && scratch_grows == 0) ? 0 : 1;
}
