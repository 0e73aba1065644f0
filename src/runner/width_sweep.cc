// Width/limit autotuning sweep for the scalable partitioner tier: solves each
// case under a grid of beam widths, rack order limits, and thread counts,
// anchoring quality against the exact optimum where one is tractable and
// against the sweep's own best elsewhere. Doubles as the parallel-determinism
// harness: every multi-threaded solve is compared field-for-field against its
// serial twin, and any divergence fails the sweep — the searches reduce in
// index order, so the comparison demands bit-identity, not tolerance.
#include "runner/width_sweep.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "runner/result_sink.h"
#include "runner/thread_pool.h"

namespace hetpipe::runner {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Bit-exact comparison (every field, no tolerance) — the parallel searches
// promise byte-identical results, so approximate equality would hide bugs.
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

// One (strategy, knob) point of the per-case grid.
struct ConfigPoint {
  partition::SearchStrategy strategy = partition::SearchStrategy::kBeam;
  int beam_width = 0;
  int64_t rack_order_limit = 0;
};

}  // namespace

bool RunWidthSweep(const model::ModelProfile& profile,
                   const std::vector<WidthSweepCase>& cases, const WidthSweepConfig& config,
                   ResultSink* sink, std::vector<WidthSweepRow>* rows_out) {
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int timing_rounds = std::max(1, config.repeat);

  // Pools are shared across cases and built lazily per distinct thread count.
  std::vector<std::pair<int, std::unique_ptr<ThreadPool>>> pools;
  const auto pool_of = [&](int threads) -> ThreadPool* {
    if (threads <= 1) return nullptr;  // 1 = the serial path, no pool at all
    for (auto& [count, pool] : pools) {
      if (count == threads) return pool.get();
    }
    pools.emplace_back(threads, std::make_unique<ThreadPool>(threads));
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
        row.thread_identical = SamePartition(solved, serial);
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
        ResultRow out;
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
      if (rows_out != nullptr) {
        rows_out->push_back(row);
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

}  // namespace hetpipe::runner
