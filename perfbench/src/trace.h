#pragma once

// Wall-clock spans for the traced run. The benchmark opens a span around each
// call it makes into a layer's public functions (the program itself carries no
// instrumentation), folds every op's spans into per-layer self times, and
// exports the first ops as Chrome-trace JSON through sim::Tracer — op id as
// the lane, layer as the category.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "partition/partitioner.h"
#include "runner/partition_cache.h"
#include "sim/trace.h"

namespace perfbench {

// Layers are the repo's src/ modules the workloads call into, plus the
// benchmark harness itself (kBench) and experiment orchestration (kCore).
enum class Layer : int {
  kBench,
  kCore,
  kHw,
  kModel,
  kCluster,
  kPartition,
  kCache,
  kSim,
  kDp,
  kSink,
  kServe,
  kCount,
};
constexpr int kNumLayers = static_cast<int>(Layer::kCount);
const char* LayerName(Layer layer);

struct Span {
  Layer layer = Layer::kBench;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the op's span list; -1 for the root
};

// The spans of one op on one thread; nesting follows Begin/End order.
class SpanLog {
 public:
  void Clear() {
    spans_.clear();
    stack_.clear();
  }
  int Begin(Layer layer, const char* name);
  void End(int id);
  std::vector<Span>& spans() { return spans_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Opens a span on construction and closes it on destruction; a null log makes
// it a no-op, so untraced code paths share the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Layer layer, const char* name)
      : log_(log), id_(log != nullptr ? log->Begin(layer, name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// Self time of every span: its duration minus the part its direct children
// cover (children never outlast their parent here, so this is exact).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Per-layer self-time totals over every op of a traced run.
class TraceSummary {
 public:
  // Spans are exported to Chrome JSON for the first `export_ops` ops, with
  // timestamps relative to `origin_ns`.
  TraceSummary(int64_t origin_ns, int64_t export_ops)
      : origin_ns_(origin_ns), export_ops_(export_ops) {}

  // Folds one op; spans[0] is its root.
  void AddOp(const std::vector<Span>& spans);

  int64_t ops() const { return ops_; }
  double op_total_ns() const { return op_total_ns_; }
  double self_ns(Layer layer) const { return self_ns_[static_cast<size_t>(layer)]; }
  double self_sum_ns() const;
  // Share of traced op time spent in `layer`'s own code.
  double share(Layer layer) const {
    return op_total_ns_ > 0.0 ? self_ns(layer) / op_total_ns_ : 0.0;
  }
  bool WriteChromeJson(const std::string& path, std::string* error) const;

 private:
  int64_t origin_ns_;
  int64_t export_ops_;
  int64_t ops_ = 0;
  double op_total_ns_ = 0.0;
  std::array<double, kNumLayers> self_ns_{};
  hetpipe::sim::Tracer tracer_;
};

// PartitionCache::Solve calls seen by the traced replays.
struct CacheLookups {
  int64_t lookups = 0;
  int64_t hits = 0;
  std::vector<double> hit_us;
  void Add(const CacheLookups& other);
};

// A PartitionCache::Solve call that missed: enough to run its solve again.
struct CacheMiss {
  const hetpipe::partition::Partitioner* partitioner = nullptr;
  std::vector<int> gpu_ids;
  hetpipe::partition::PartitionOptions options;
  int span = -1;  // the miss's cache span
};

// PartitionCache::Solve inside a "cache.solve" span on `log`; counts the
// lookup and, on a miss, records it in `misses`.
hetpipe::partition::Partition TracedCacheSolve(hetpipe::runner::PartitionCache* cache,
                                               const hetpipe::partition::Partitioner& partitioner,
                                               const std::vector<int>& gpu_ids,
                                               const hetpipe::partition::PartitionOptions& options,
                                               SpanLog* log, CacheLookups* lookups,
                                               std::vector<CacheMiss>* misses, bool* was_hit);

// The solves behind cache misses, each run again alone right after its op.
struct SolveStats {
  std::vector<double> solve_us;
  std::vector<double> miss_overhead_us;  // miss span minus its solve
  double orders_sum = 0.0;               // EstimateOrderCount over the solves
  std::array<int64_t, 3> tiers{};        // resolved tier per solve: exact, beam, hierarchical
  void Add(const SolveStats& other);
};

// Counts and distributions the workloads gather alongside the spans.
struct LayerCounters {
  int64_t profiles = 0;  // model::ModelProfile constructions
  SolveStats solves;
  CacheLookups cache;
  double cache_entries = 0.0;
  int64_t cache_evictions = 0;
  int64_t sim_events = 0;
  int64_t sink_rows = 0;
  double sink_close_ns = 0.0;  // StoreSink::Close, outside any op
  double sink_bytes = 0.0;
  std::vector<double> parse_us;
  std::vector<double> handle_us;
  std::vector<double> handle_self_us;
  std::vector<double> encode_us;
  std::vector<double> transport_us;
  int64_t context_builds = 0;
  double context_build_ns = 0.0;
};

// Solves each miss again alone and adds that solve as a "partition.solve"
// span ending where the miss's cache span ends, so the cache span's own time
// is the cache's overhead (key, lookup, insert). Call right after the op, on
// its thread, so the solve runs under the same conditions as the miss did.
void AddSolveSpans(const std::vector<CacheMiss>& misses, std::vector<Span>* spans,
                   SolveStats* stats);

// Relative slack allowed between the summed per-layer self times and the
// summed op totals (clamping a self time at zero is the only source of drift).
constexpr double kSelfTimeTolerance = 0.01;

// Appends every per-layer metric, in the order BENCHMARK.json lists them, and
// fails the run when the self times do not add up to the op totals.
void AddPerLayerMetrics(const TraceSummary& trace, const LayerCounters& counters,
                        double overhead_ratio, RunResult* result);

}  // namespace perfbench
