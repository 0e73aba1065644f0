#include "serve/plan_service.h"

#include <charconv>
#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/experiment.h"
#include "hw/gpu_spec.h"
#include "partition/partitioner.h"
#include "runner/thread_pool.h"

namespace hetpipe::serve {
namespace {

// Renders a solved partition into the response's stage list: one
// "first-last:gpu<id>:node<node>:<class>" term per stage, joined by "|".
// Kept as a single string field so responses stay flat (the protocol's JSON
// reader only decodes flat objects) and diff cleanly in JSONL logs.
std::string StagesToString(const partition::Partition& partition) {
  const auto append_int = [](std::string* out, int value) {
    char buf[16];
    out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  };
  // A term is its class name, four numbers and 12 bytes of punctuation.
  size_t size = 0;
  for (const partition::StageAssignment& stage : partition.stages) {
    size += std::strlen(hw::SpecOf(stage.gpu_type).name) + 4 * 11 + 12;
  }
  std::string out;
  out.reserve(size);
  for (const partition::StageAssignment& stage : partition.stages) {
    if (!out.empty()) out.push_back('|');
    append_int(&out, stage.first_layer);
    out.push_back('-');
    append_int(&out, stage.last_layer);
    out.append(":gpu");
    append_int(&out, stage.gpu_id);
    out.append(":node");
    append_int(&out, stage.node);
    out.push_back(':');
    out.append(hw::SpecOf(stage.gpu_type).name);
  }
  return out;
}

void FillPartition(const partition::Partition& partition, runner::ResultRow* row) {
  row->Set("feasible", partition.feasible);
  row->Set("num_stages", partition.num_stages());
  row->Set("bottleneck_time_s", partition.bottleneck_time);
  row->Set("sum_time_s", partition.sum_time);
  row->Set("stages", StagesToString(partition));
}

}  // namespace

PlanService::PlanService(runner::PartitionCache* cache, PlanServiceOptions options)
    : cache_(cache), options_(options) {}

runner::ResultRow PlanService::Handle(const PlanRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);

  runner::ResultRow row;
  row.Reserve(16);  // the most fields any response carries
  row.Set("v", kProtocolVersion);
  if (!request.id.empty()) row.Set("id", request.id);
  row.Set("op", request.op);

  auto fail = [&](ErrorCode code, const std::string& message) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    row.Set("ok", false);
    row.Set("error_code", ErrorCodeName(code));
    row.Set("error", message);
  };
  // Stamps the latency and moves the finished row out.
  auto finish = [&]() {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    row.Set("latency_us",
            std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
    return std::move(row);
  };

  if (request.op == "shutdown") {
    row.Set("ok", true);
    return finish();
  }
  if (request.op == "stats") {
    row.Set("ok", true);
    row.Set("requests", requests());
    row.Set("errors", errors());
    row.Set("contexts", cache_->contexts());
    row.Set("cache_size", cache_->size());
    row.Set("cache_capacity", cache_->capacity());
    row.Set("cache_hits", cache_->hits());
    row.Set("cache_misses", cache_->misses());
    row.Set("cache_evictions", cache_->evictions());
    return finish();
  }

  // plan / max_nm (the only ops ParsePlanRequest lets through).
  core::ModelKind model = core::ModelKind::kResNet152;
  try {
    model = core::ParseModelKind(request.model);
  } catch (const std::exception& e) {
    fail(ErrorCode::kBadModel, e.what());
    return finish();
  }
  const bool from_spec = !request.cluster_spec.empty();
  std::shared_ptr<const core::Context> context;
  try {
    context = cache_->GetContext({from_spec, from_spec ? request.cluster_spec : request.cluster_nodes,
                                  model, request.batch_size});
  } catch (const std::exception& e) {
    fail(ErrorCode::kBadSpec, e.what());
    return finish();
  }

  std::vector<int> gpu_ids;
  try {
    gpu_ids = core::PickGpus(context->cluster, request.selector);
  } catch (const std::exception& e) {
    fail(ErrorCode::kBadSelector, e.what());
    return finish();
  }

  partition::PartitionOptions options;
  options.nm = request.nm;
  options.search_gpu_orders = request.search_orders;
  options.pool = options_.pool;
  // Already validated by ParsePlanRequest; re-parse into the enum here so a
  // Handle() caller that bypassed parsing still gets a defined strategy.
  if (!partition::ParseSearchStrategy(request.strategy, &options.strategy)) {
    fail(ErrorCode::kBadRequest, "unknown strategy \"" + request.strategy + "\"");
    return finish();
  }
  options.beam_width = request.beam_width;
  options.rack_order_limit = request.rack_order_limit;

  // Echo the RESOLVED strategy (never "auto"), plus the knobs that shaped the
  // search — mirroring what the partition-cache key records, so a client can
  // tell which tier actually answered. Resolution ignores nm and the pool, so
  // one resolution covers every max_nm probe too: the cache and the solver
  // get it as an explicit strategy, which resolves to itself.
  options.strategy = partition::ResolveSearchStrategy(context->cluster, gpu_ids, options);
  row.Set("strategy", partition::SearchStrategyName(options.strategy));
  if (options.strategy != partition::SearchStrategy::kExact) {
    row.Set("beam_width", options.beam_width);
    if (options.strategy == partition::SearchStrategy::kHierarchical) {
      row.Set("rack_order_limit", options.rack_order_limit);
    }
  }

  try {
    if (request.op == "plan") {
      bool was_hit = false;
      partition::Partition partition =
          cache_->Solve(context->partitioner, gpu_ids, options, &was_hit);
      row.Set("ok", true);
      row.Set("nm", request.nm);
      FillPartition(partition, &row);
      row.Set("cache_hit", was_hit);
    } else {  // max_nm
      // Every probe (nm_cap first, then a bisection below it when the cap is
      // infeasible) goes through the shared cache; cache_hit means the whole
      // query — every probe — was served from it. The answer is the winning
      // probe's partition, cold or hit: the two place tied GPUs (same class
      // and node) alike, because PickGpus lists them in id order, which is
      // both the order a hit fills them in and the order a cold solve does.
      bool all_hits = false;
      partition::Partition winner;
      const int max_nm = cache_->FindMaxNm(context->partitioner, gpu_ids, request.nm_cap,
                                           options, &all_hits, &winner);
      row.Set("ok", true);
      row.Set("max_nm", max_nm);
      row.Set("nm_cap", request.nm_cap);
      if (max_nm > 0) {
        FillPartition(winner, &row);
      } else {
        row.Set("feasible", false);
      }
      row.Set("cache_hit", all_hits);
    }
  } catch (const std::exception& e) {
    fail(ErrorCode::kInternal, e.what());
  }
  return finish();
}

runner::ResultRow PlanService::HandleJson(const std::string& payload, bool* shutdown) {
  if (shutdown) *shutdown = false;
  PlanRequest request;
  ErrorCode code = ErrorCode::kNone;
  std::string error;
  if (!ParsePlanRequest(payload, &request, &code, &error)) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    errors_.fetch_add(1, std::memory_order_relaxed);
    runner::ResultRow row;
    row.Set("v", kProtocolVersion);
    if (!request.id.empty()) row.Set("id", request.id);
    row.Set("ok", false);
    row.Set("error_code", ErrorCodeName(code));
    row.Set("error", error);
    return row;
  }
  if (shutdown && request.op == "shutdown") *shutdown = true;
  return Handle(request);
}

}  // namespace hetpipe::serve
