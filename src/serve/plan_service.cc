#include "serve/plan_service.h"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/experiment.h"
#include "hw/cluster.h"
#include "hw/cluster_spec.h"
#include "hw/gpu_spec.h"
#include "model/model_graph.h"
#include "model/profiler.h"
#include "partition/partitioner.h"
#include "runner/thread_pool.h"

namespace hetpipe::serve {
namespace {

// Renders a solved partition into the response's stage list: one
// "first-last:gpu<id>:node<node>:<class>" term per stage, joined by "|".
// Kept as a single string field so responses stay flat (the protocol's JSON
// reader only decodes flat objects) and diff cleanly in JSONL logs.
std::string StagesToString(const partition::Partition& partition) {
  std::string out;
  for (const partition::StageAssignment& stage : partition.stages) {
    if (!out.empty()) out += "|";
    out += std::to_string(stage.first_layer);
    out += "-";
    out += std::to_string(stage.last_layer);
    out += ":gpu";
    out += std::to_string(stage.gpu_id);
    out += ":node";
    out += std::to_string(stage.node);
    out += ":";
    out += hw::SpecOf(stage.gpu_type).name;
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

// Everything a plan query needs that depends only on (cluster, model,
// batch_size): the built cluster, the model graph, its profile on that batch
// size, and a partitioner over both. Members reference each other by pointer
// (profile -> graph, partitioner -> profile + cluster), so a Context is
// constructed in place, held by shared_ptr, and never copied or moved.
// Immutable after construction, hence safe to share across request threads.
// The request fields it was built from are kept as its key.
struct PlanService::Context {
  bool from_spec;
  std::string cluster_text;
  std::string model_name;
  int batch_size;
  ContextKey key;  // views the strings above
  hw::Cluster cluster;
  model::ModelGraph graph;
  model::ModelProfile profile;
  partition::Partitioner partitioner;

  Context(const PlanRequest& request, hw::Cluster built_cluster, model::ModelGraph built_graph)
      : from_spec(!request.cluster_spec.empty()),
        cluster_text(from_spec ? request.cluster_spec : request.cluster_nodes),
        model_name(request.model),
        batch_size(request.batch_size),
        key{from_spec, cluster_text, model_name, batch_size},
        cluster(std::move(built_cluster)),
        graph(std::move(built_graph)),
        profile(graph, batch_size),
        partitioner(profile, cluster) {}
};

size_t PlanService::ContextKeyHash::operator()(const ContextKey& key) const {
  const std::hash<std::string_view> hash;
  size_t h = hash(key.cluster);
  h = h * 31 + hash(key.model);
  return h * 31 + static_cast<size_t>(key.batch_size) * 2 + (key.from_spec ? 1 : 0);
}

PlanService::PlanService(runner::PartitionCache* cache, PlanServiceOptions options)
    : cache_(cache), options_(options) {}

PlanService::~PlanService() = default;

int64_t PlanService::contexts() const {
  util::ReaderMutexLock lock(contexts_mu_);
  return static_cast<int64_t>(contexts_.size());
}

std::shared_ptr<const PlanService::Context> PlanService::GetContext(const PlanRequest& request,
                                                                    ErrorCode* code,
                                                                    std::string* error) {
  const bool from_spec = !request.cluster_spec.empty();
  const ContextKey key{from_spec, from_spec ? request.cluster_spec : request.cluster_nodes,
                       request.model, request.batch_size};
  {
    util::ReaderMutexLock lock(contexts_mu_);
    const auto it = contexts_.find(key);
    if (it != contexts_.end()) return it->second;
  }

  // Miss: build outside the lock (construction parses a spec and profiles a
  // model — milliseconds). Two threads racing on one key both build; the
  // first insert wins and the loser's copy is dropped, which is cheaper than
  // holding the exclusive lock across a build.
  core::ModelKind kind;
  if (request.model == core::ModelName(core::ModelKind::kResNet152)) {
    kind = core::ModelKind::kResNet152;
  } else if (request.model == core::ModelName(core::ModelKind::kVgg19)) {
    kind = core::ModelKind::kVgg19;
  } else {
    *code = ErrorCode::kBadModel;
    *error = "unknown model \"" + request.model + "\" (expected resnet152 or vgg19)";
    return nullptr;
  }

  std::shared_ptr<const Context> built;
  try {
    hw::Cluster cluster = request.cluster_spec.empty()
                              ? hw::Cluster::PaperSubset(request.cluster_nodes)
                              : hw::ClusterSpec::Parse(request.cluster_spec).Build();
    built = std::make_shared<const Context>(request, std::move(cluster), core::BuildModel(kind));
  } catch (const std::exception& e) {
    *code = ErrorCode::kBadSpec;
    *error = e.what();
    return nullptr;
  }

  util::WriterMutexLock lock(contexts_mu_);
  const auto [it, inserted] = contexts_.emplace(built->key, built);
  if (!inserted) return it->second;
  context_order_.push_back(built);
  while (options_.max_contexts > 0 &&
         static_cast<int64_t>(context_order_.size()) > options_.max_contexts) {
    // The deque's reference keeps the evicted context's key strings alive
    // through the erase.
    contexts_.erase(context_order_.front()->key);
    context_order_.pop_front();
  }
  return built;
}

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
    row.Set("contexts", contexts());
    row.Set("cache_size", cache_->size());
    row.Set("cache_capacity", cache_->capacity());
    row.Set("cache_hits", cache_->hits());
    row.Set("cache_misses", cache_->misses());
    row.Set("cache_evictions", cache_->evictions());
    return finish();
  }

  // plan / max_nm (the only ops ParsePlanRequest lets through).
  ErrorCode code = ErrorCode::kNone;
  std::string error;
  std::shared_ptr<const Context> context = GetContext(request, &code, &error);
  if (!context) {
    fail(code, error);
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
  // one resolution covers every max_nm probe too.
  const partition::SearchStrategy resolved =
      partition::ResolveSearchStrategy(context->cluster, gpu_ids, options);
  row.Set("strategy", partition::SearchStrategyName(resolved));
  if (resolved != partition::SearchStrategy::kExact) {
    row.Set("beam_width", options.beam_width);
    if (resolved == partition::SearchStrategy::kHierarchical) {
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
      // query — every probe — was served from it.
      bool all_hits = false;
      const int max_nm =
          cache_->FindMaxNm(context->partitioner, gpu_ids, request.nm_cap, options, &all_hits);
      row.Set("ok", true);
      row.Set("max_nm", max_nm);
      row.Set("nm_cap", request.nm_cap);
      if (max_nm > 0) {
        // The search probed max_nm, though not necessarily last (nm_cap 4
        // with answer 3 probes 4, 2, 3), and cached every probe, so this
        // re-solve is a cache hit that fetches the winning partition.
        options.nm = max_nm;
        FillPartition(cache_->Solve(context->partitioner, gpu_ids, options), &row);
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
