#include "trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

namespace perfbench {

const char* LayerName(Layer layer) {
  static const char* kNames[kNumLayers] = {"bench",     "core",  "hw",  "model", "cluster",
                                           "partition", "cache", "sim", "dp",    "sink",
                                           "serve"};
  return kNames[static_cast<int>(layer)];
}

int SpanLog::Begin(Layer layer, const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({layer, name, NowNs(), 0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  stack_.pop_back();
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  for (int64_t& value : self) {
    value = std::max<int64_t>(value, 0);
  }
  return self;
}

void CacheLookups::Add(const CacheLookups& other) {
  lookups += other.lookups;
  hits += other.hits;
  hit_us.insert(hit_us.end(), other.hit_us.begin(), other.hit_us.end());
}

hetpipe::partition::Partition TracedCacheSolve(hetpipe::runner::PartitionCache* cache,
                                               const hetpipe::partition::Partitioner& partitioner,
                                               const std::vector<int>& gpu_ids,
                                               const hetpipe::partition::PartitionOptions& options,
                                               SpanLog* log, CacheLookups* lookups,
                                               std::vector<CacheMiss>* misses, bool* was_hit) {
  hetpipe::partition::Partition result;
  int span_id = -1;
  {
    ScopedSpan span(log, Layer::kCache, "cache.solve");
    span_id = span.id();
    result = cache->Solve(partitioner, gpu_ids, options, was_hit);
  }
  ++lookups->lookups;
  if (*was_hit) {
    const Span& span = log->spans()[static_cast<size_t>(span_id)];
    ++lookups->hits;
    lookups->hit_us.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
  } else {
    misses->push_back({&partitioner, gpu_ids, options, span_id});
  }
  return result;
}

void SolveStats::Add(const SolveStats& other) {
  solve_us.insert(solve_us.end(), other.solve_us.begin(), other.solve_us.end());
  miss_overhead_us.insert(miss_overhead_us.end(), other.miss_overhead_us.begin(),
                          other.miss_overhead_us.end());
  orders_sum += other.orders_sum;
  for (size_t t = 0; t < tiers.size(); ++t) tiers[t] += other.tiers[t];
}

void AddSolveSpans(const std::vector<CacheMiss>& misses, std::vector<Span>* spans,
                   SolveStats* stats) {
  using hetpipe::partition::SearchStrategy;
  for (const CacheMiss& miss : misses) {
    const int64_t t0 = NowNs();
    const hetpipe::partition::Partition again =
        miss.partitioner->SolveScalable(miss.gpu_ids, miss.options);
    const int64_t solve_ns = NowNs() - t0;
    (void)again;
    const Span parent = (*spans)[static_cast<size_t>(miss.span)];
    const int64_t inside = std::min(solve_ns, parent.end_ns - parent.start_ns);
    spans->push_back(
        {Layer::kPartition, "partition.solve", parent.end_ns - inside, parent.end_ns, miss.span});
    stats->solve_us.push_back(static_cast<double>(solve_ns) * 1e-3);
    stats->miss_overhead_us.push_back(
        static_cast<double>(parent.end_ns - parent.start_ns - inside) * 1e-3);
    const hetpipe::hw::Cluster& cluster = miss.partitioner->cluster();
    stats->orders_sum += static_cast<double>(hetpipe::partition::EstimateOrderCount(
        cluster, miss.gpu_ids, static_cast<uint64_t>(miss.options.exact_order_limit)));
    const SearchStrategy tier =
        hetpipe::partition::ResolveSearchStrategy(cluster, miss.gpu_ids, miss.options);
    ++stats->tiers[tier == SearchStrategy::kBeam ? 1
                   : tier == SearchStrategy::kHierarchical ? 2
                                                            : 0];
  }
}

void TraceSummary::AddOp(const std::vector<Span>& spans) {
  if (spans.empty()) {
    return;
  }
  const std::vector<int64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    self_ns_[static_cast<size_t>(spans[i].layer)] += static_cast<double>(self[i]);
  }
  op_total_ns_ += static_cast<double>(spans[0].end_ns - spans[0].start_ns);
  if (ops_ < export_ops_) {
    for (const Span& span : spans) {
      tracer_.Add({span.name, LayerName(span.layer), static_cast<int>(ops_),
                   static_cast<double>(span.start_ns - origin_ns_) * 1e-9,
                   static_cast<double>(span.end_ns - origin_ns_) * 1e-9});
    }
  }
  ++ops_;
}

double TraceSummary::self_sum_ns() const {
  return std::accumulate(self_ns_.begin(), self_ns_.end(), 0.0);
}

bool TraceSummary::WriteChromeJson(const std::string& path, std::string* error) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  tracer_.ExportChromeJson(out);
  out.flush();
  if (!out) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

void AddPerLayerMetrics(const TraceSummary& trace, const LayerCounters& c,
                        double overhead_ratio, RunResult* result) {
  const double ops = static_cast<double>(std::max<int64_t>(trace.ops(), 1));
  const SolveStats& solve = c.solves;
  const double solves = static_cast<double>(solve.solve_us.size());
  const auto per_op_us = [&](Layer layer) { return trace.self_ns(layer) * 1e-3 / ops; };
  const auto tier_share = [&](size_t tier) {
    return solves > 0.0 ? static_cast<double>(solve.tiers[tier]) / solves : 0.0;
  };

  result->Add("hw.build_us_per_op", per_op_us(Layer::kHw), "us");
  result->Add("model.profile_us_per_op", per_op_us(Layer::kModel), "us");
  result->Add("model.profiles_per_op", static_cast<double>(c.profiles) / ops, "count");

  result->Add("partition.solve_us_p50", Percentile(solve.solve_us, 0.50), "us");
  result->Add("partition.solve_us_p99", Percentile(solve.solve_us, 0.99), "us");
  result->Add("partition.solves_per_op", solves / ops, "count");
  result->Add("partition.orders_per_solve", solves > 0.0 ? solve.orders_sum / solves : 0.0,
              "count");
  result->Add("partition.tier_exact_share", tier_share(0), "ratio");
  result->Add("partition.tier_beam_share", tier_share(1), "ratio");
  result->Add("partition.tier_hier_share", tier_share(2), "ratio");

  result->Add("cache.lookups_per_op", static_cast<double>(c.cache.lookups) / ops, "count");
  result->Add("cache.hit_rate",
              c.cache.lookups > 0
                  ? static_cast<double>(c.cache.hits) / static_cast<double>(c.cache.lookups)
                  : 0.0,
              "ratio");
  result->Add("cache.hit_us_p50", Percentile(c.cache.hit_us, 0.50), "us");
  result->Add("cache.miss_overhead_us", Median(solve.miss_overhead_us), "us");
  result->Add("cache.entries", c.cache_entries, "count");
  result->Add("cache.evictions", static_cast<double>(c.cache_evictions), "count");

  result->Add("sim.run_us_per_op", per_op_us(Layer::kSim), "us");
  result->Add("sim.events_per_op", static_cast<double>(c.sim_events) / ops, "count");
  result->Add("sim.ns_per_event",
              c.sim_events > 0 ? trace.self_ns(Layer::kSim) / static_cast<double>(c.sim_events)
                               : 0.0,
              "ns");

  const double rows = static_cast<double>(std::max<int64_t>(c.sink_rows, 1));
  result->Add("dp.baseline_us_per_op", per_op_us(Layer::kDp), "us");
  result->Add("sink.write_us_per_row",
              c.sink_rows > 0 ? (trace.self_ns(Layer::kSink) + c.sink_close_ns) * 1e-3 / rows
                              : 0.0,
              "us");
  result->Add("sink.bytes_per_row", c.sink_rows > 0 ? c.sink_bytes / rows : 0.0, "B");

  result->Add("serve.parse_us", Median(c.parse_us), "us");
  result->Add("serve.handle_us_p50", Median(c.handle_us), "us");
  result->Add("serve.handle_self_us_p50", Median(c.handle_self_us), "us");
  result->Add("serve.encode_us", Median(c.encode_us), "us");
  result->Add("serve.transport_us_p50", Median(c.transport_us), "us");
  result->Add("serve.context_builds", static_cast<double>(c.context_builds), "count");
  result->Add("serve.context_build_us",
              c.context_builds > 0
                  ? c.context_build_ns * 1e-3 / static_cast<double>(c.context_builds)
                  : 0.0,
              "us");

  for (int l = 0; l < kNumLayers; ++l) {
    const Layer layer = static_cast<Layer>(l);
    result->Add(std::string(LayerName(layer)) + ".share", trace.share(layer), "ratio");
  }
  result->Add("trace.overhead_ratio", overhead_ratio, "ratio");
  result->Add("trace.ops", static_cast<double>(trace.ops()), "count");

  const double total = trace.op_total_ns();
  if (trace.ops() == 0 || std::abs(trace.self_sum_ns() - total) > kSelfTimeTolerance * total) {
    result->Fail("per-layer self times (" + std::to_string(trace.self_sum_ns()) +
                 " ns) do not sum to the op total (" + std::to_string(total) + " ns)");
  }
}

}  // namespace perfbench
