// plan_cold / plan_warm: a scheduler asking an in-process serve::PlanServer
// for partition plans over one serve::PlanClient connection, in a closed loop
// (one request in flight; the next is sent when the answer arrives).
//
//   plan_cold  every request is a new (cluster, model, VW multiset, nm) key,
//              so every answer is a solve plus a cache insert.
//   plan_warm  setup asks a pool of keys once; the timed loop draws seeded
//              Zipf picks from that pool, so every answer is a cache hit.
//
// The traced run swaps PlanServer for a replay of its connection loop and of
// PlanService::Handle built from the serve, hw, model, partition and runner
// public functions, with a span around each call; every traced answer must
// equal the untraced one.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <thread>

#include "core/experiment.h"
#include "hw/cluster_spec.h"
#include "hw/gpu_spec.h"
#include "partition/partitioner.h"
#include "runner/partition_cache.h"
#include "runner/result_sink.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace hetpipe;

// ---- The request stream. ----

constexpr int kNodes = 8;         // every cluster of the workload has 8 nodes of 4 GPUs
constexpr int kGpusPerNode = 4;
constexpr int kMaxNmCap = 4;      // nm_cap of the max_nm requests
constexpr int kSmallNmMax = 4;    // plan nm range for the 3-6 GPU requests
constexpr int kLargeNmMax = 2;    // plan nm range for the 12-16 GPU requests

// Paper-class clusters: 8 nodes named by Table 1 codes (cluster_nodes).
constexpr const char* kPaperClusters[] = {"VRGQVRGQ", "VVRRGGQQ", "QGRVVRGQ", "VRQGQGRV",
                                          "RVGQRVGQ", "GQVRGQVR", "VQRGVQRG", "RRVVQQGG",
                                          "GGQQVVRR", "QVGRQVGR", "VGRQVGRQ", "RQGVRQGV"};
constexpr const char* kModelNames[] = {"resnet152", "vgg19"};
constexpr const char* kSpecClasses[] = {"BenchV", "BenchR", "BenchG", "BenchQ"};

// Racked (4 racks of 2 nodes: 12-16 GPU VWs resolve to the hierarchical
// tier) or flat (they resolve to beam) 8-node cluster_spec cluster.
std::string SpecClusterText(bool racked) {
  hw::ClusterSpec spec;
  spec.Named(racked ? "bench-racked" : "bench-flat")
      .AddGpuClass(kSpecClasses[0], 14.0, 12.0)
      .AddGpuClass(kSpecClasses[1], 16.3, 24.0)
      .AddGpuClass(kSpecClasses[2], 11.3, 8.0)
      .AddGpuClass(kSpecClasses[3], 5.3, 32.0);
  for (int node = 0; node < kNodes; ++node) {
    spec.AddNode(kSpecClasses[node % 4], kGpusPerNode);
  }
  if (racked) {
    for (int rack = 0; rack < kNodes / 2; ++rack) {
      spec.AddRack("rack" + std::to_string(rack), {2 * rack, 2 * rack + 1});
    }
    spec.CrossRackGbits(5.0);
  }
  return spec.ToString();
}

struct ContextDef {
  std::string id;  // short label used in keys
  std::string cluster_nodes;
  std::string cluster_spec;
  std::string model;
  std::vector<std::string> node_class;  // selector class token per node
};

// GPUs per node of one virtual worker, rendered as a PickGpus selector.
std::string Selector(const ContextDef& context, const std::vector<int>& per_node) {
  std::string out;
  for (int node = 0; node < kNodes; ++node) {
    const int count = per_node[static_cast<size_t>(node)];
    if (count == 0) continue;
    if (!out.empty()) out += ",";
    out += context.node_class[static_cast<size_t>(node)];
    if (count > 1) out += "*" + std::to_string(count);
    out += "@" + std::to_string(node);
  }
  return out;
}

std::string KeyOf(const ContextDef& context, const std::vector<int>& per_node,
                  const std::string& nm) {
  std::string key = context.id + "|";
  for (int count : per_node) key += static_cast<char>('0' + count);
  return key + "|" + nm;
}

struct Draw {
  int context = 0;
  std::vector<int> per_node;
  int nm = 0;  // 0 for max_nm
};

std::vector<int> MaskCounts(int mask, int doubled) {
  std::vector<int> per_node(kNodes, 0);
  for (int node = 0; node < kNodes; ++node) {
    if (mask & (1 << node)) per_node[static_cast<size_t>(node)] = node == doubled ? 2 : 1;
  }
  return per_node;
}

}  // namespace

PlanRequestStream GeneratePlanStream(uint64_t seed, size_t count) {
  std::vector<ContextDef> contexts;
  for (const char* nodes : kPaperClusters) {
    for (const char* model : kModelNames) {
      ContextDef c;
      c.id = std::string(nodes) + "/" + model;
      c.cluster_nodes = nodes;
      c.model = model;
      for (int node = 0; node < kNodes; ++node) c.node_class.push_back(std::string(1, nodes[node]));
      contexts.push_back(std::move(c));
    }
  }
  const size_t num_paper = contexts.size();
  for (bool racked : {true, false}) {
    for (const char* model : kModelNames) {
      ContextDef c;
      c.id = std::string(racked ? "racked" : "flat") + "/" + model;
      c.cluster_spec = SpecClusterText(racked);
      c.model = model;
      for (int node = 0; node < kNodes; ++node) c.node_class.push_back(kSpecClasses[node % 4]);
      contexts.push_back(std::move(c));
    }
  }

  // Small plan keys: 3-6 GPUs on distinct nodes, nm 1..4. max_nm keys: one
  // node doubled (3-6 GPUs on 2-5 nodes), so no max_nm probe can ever land
  // on a small plan key. Both universes are enumerated, then shuffled.
  std::vector<Draw> small;
  std::vector<Draw> max_nm;
  for (size_t c = 0; c < num_paper; ++c) {
    for (int mask = 0; mask < (1 << kNodes); ++mask) {
      const int bits = __builtin_popcount(static_cast<unsigned>(mask));
      if (bits >= 3 && bits <= 6) {
        for (int nm = 1; nm <= kSmallNmMax; ++nm) {
          small.push_back({static_cast<int>(c), MaskCounts(mask, -1), nm});
        }
      }
      if (bits >= 2 && bits <= 5) {
        for (int node = 0; node < kNodes; ++node) {
          if (mask & (1 << node)) max_nm.push_back({static_cast<int>(c), MaskCounts(mask, node), 0});
        }
      }
    }
  }
  Rng rng(seed);
  rng.Shuffle(&small);
  rng.Shuffle(&max_nm);

  PlanRequestStream stream;
  const auto emit = [&](const Draw& draw, bool large) {
    const ContextDef& context = contexts[static_cast<size_t>(draw.context)];
    serve::PlanRequest request;
    request.op = draw.nm > 0 ? "plan" : "max_nm";
    request.cluster_nodes = context.cluster_nodes.empty() ? "VRGQ" : context.cluster_nodes;
    request.cluster_spec = context.cluster_spec;
    request.model = context.model;
    request.selector = Selector(context, draw.per_node);
    if (draw.nm > 0) {
      request.nm = draw.nm;
    } else {
      request.nm_cap = kMaxNmCap;
    }
    stream.request_json.push_back(request.ToJson());
    stream.keys.push_back(
        KeyOf(context, draw.per_node, draw.nm > 0 ? std::to_string(draw.nm) : "max_nm"));
    stream.is_plan.push_back(draw.nm > 0);
    stream.is_large.push_back(large);
  };

  // Warm-up: 2 GPUs on nodes 0 and 1 at nm 1, a shape no universe contains.
  for (const ContextDef& context : contexts) {
    serve::PlanRequest request;
    request.cluster_nodes = context.cluster_nodes.empty() ? "VRGQ" : context.cluster_nodes;
    request.cluster_spec = context.cluster_spec;
    request.model = context.model;
    std::vector<int> per_node(kNodes, 0);
    per_node[0] = per_node[1] = 1;
    request.selector = Selector(context, per_node);
    stream.warmup_json.push_back(request.ToJson());
  }

  // Blocks of ten: seven small plans, two max_nm, one large plan, shuffled.
  std::set<std::string> large_keys;
  size_t next_small = 0;
  size_t next_max = 0;
  while (stream.request_json.size() < count) {
    std::vector<char> block = {'s', 's', 's', 's', 's', 's', 's', 'm', 'm', 'l'};
    rng.Shuffle(&block);
    for (char kind : block) {
      if (kind == 's') {
        if (next_small == small.size()) return stream;
        emit(small[next_small++], false);
      } else if (kind == 'm') {
        if (next_max == max_nm.size()) return stream;
        emit(max_nm[next_max++], false);
      } else {
        // 12-16 GPUs over the 8 nodes (at most 4 per node), nm 1..2, on a
        // spec cluster; redrawn until the key is new.
        for (;;) {
          Draw draw;
          draw.context = static_cast<int>(num_paper + rng.Below(contexts.size() - num_paper));
          const int total = 12 + static_cast<int>(rng.Below(5));
          draw.per_node.assign(kNodes, 0);
          for (int placed = 0; placed < total;) {
            const size_t node = static_cast<size_t>(rng.Below(kNodes));
            if (draw.per_node[node] < kGpusPerNode) {
              ++draw.per_node[node];
              ++placed;
            }
          }
          draw.nm = 1 + static_cast<int>(rng.Below(kLargeNmMax));
          const ContextDef& context = contexts[static_cast<size_t>(draw.context)];
          if (large_keys.insert(KeyOf(context, draw.per_node, std::to_string(draw.nm))).second) {
            emit(draw, true);
            break;
          }
        }
      }
    }
  }
  return stream;
}

namespace {

// ---- Response checks. ----

// The answer without the fields that legitimately differ between a cold and
// a warm reply to the same request.
std::string Normalize(const std::string& response) {
  std::string out = response;
  for (const char* field : {",\"cache_hit\":", ",\"latency_us\":"}) {
    const size_t at = out.find(field);
    if (at == std::string::npos) continue;
    size_t end = at + std::strlen(field);
    while (end < out.size() && out[end] != ',' && out[end] != '}') ++end;
    out.erase(at, end - at);
  }
  return out;
}

bool IsOk(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}
bool IsHit(const std::string& response) {
  return response.find("\"cache_hit\":true") != std::string::npos;
}

// ---- Untraced: the real PlanServer. ----

constexpr size_t kWarmPool = 300;
constexpr double kZipfExponent = 0.9;
constexpr int kSetupRepeats = 5;
constexpr size_t kDigestOps = 1000;
constexpr size_t kRecheckStride = 10;  // plan_cold re-asks every 10th key warm
// Ops per timing slice. plan_cold: fifty blocks of ten, so every slice holds
// the same request mix, and about a second long, so the calibrations around
// it follow the host (1000-op slices spread p50 four times as wide over five
// seeds); its p99 thus has five samples beyond it per slice. plan_warm:
// about a quarter second.
constexpr int64_t kColdSliceOps = 500;
constexpr int64_t kWarmSliceOps = 5000;

struct ServeStack {
  std::unique_ptr<runner::PartitionCache> cache;
  std::unique_ptr<serve::PlanServer> server;
  serve::PlanClient client;
};

bool Call(serve::PlanClient* client, const std::string& request, std::string* response,
          RunResult* result) {
  std::string error;
  if (!client->CallRaw(request, response, &error)) {
    result->Fail("round trip failed: " + error);
    return false;
  }
  return true;
}

// Starts a server with the smallest request executor PlanServer allows (2
// pool threads, i.e. one dedicated worker) and connects one client.
bool StartStack(ServeStack* stack, RunResult* result) {
  stack->cache = std::make_unique<runner::PartitionCache>();
  serve::PlanServerOptions options;
  options.threads = 2;
  stack->server = std::make_unique<serve::PlanServer>(stack->cache.get(), options);
  std::string error;
  if (!stack->server->Start(&error) ||
      !stack->client.Connect("127.0.0.1", stack->server->port(), &error)) {
    result->Fail("cannot start the plan server: " + error);
    return false;
  }
  return true;
}

struct PlanSetup {
  uint64_t seed = 0;
  PlanRequestStream stream;
  std::vector<uint64_t> pool_hash;  // plan_warm: normalized cold answer per pool key
  uint64_t digest = 0;
};

// Sends the warm-up requests (and, for plan_warm, the pool) through `call`.
template <typename CallFn>
bool Prime(const PlanSetup& setup, bool warm, CallFn call, CpuRotation* rotation,
           std::vector<uint64_t>* pool_hash, RunResult* result) {
  std::string response;
  for (const std::string& request : setup.stream.warmup_json) {
    rotation->Tick();
    if (!call(request, &response)) return false;
    if (!IsOk(response)) {
      result->Fail("warm-up request failed: " + response);
      return false;
    }
  }
  if (!warm) return true;
  for (size_t i = 0; i < kWarmPool; ++i) {
    rotation->Tick();
    if (!call(setup.stream.request_json[i], &response)) return false;
    if (!IsOk(response) || IsHit(response)) {
      result->Fail("pool request " + std::to_string(i) + " was not a cold success: " + response);
      return false;
    }
    pool_hash->push_back(Fnv1a(Normalize(response)));
  }
  return true;
}

// Zipf(kZipfExponent) over the first n keys of the stream. Rank r goes to a
// key of the kind kRankPattern[r % 10] names, kinds taken in stream order.
// The seed picks the keys, but every seed puts the same kind at every rank:
// when ranks were shuffled freely, whether a 16-GPU key (long answer) drew a
// top rank moved plan_warm's cost per op by up to 20% from seed to seed.
constexpr char kRankPattern[] = "sssmsssmsl";  // a block of ten: 7 small, 2 max_nm, 1 large

class ZipfPicker {
 public:
  ZipfPicker(const PlanRequestStream& stream, size_t n) {
    std::map<char, std::vector<size_t>> by_kind;
    for (size_t i = 0; i < n; ++i) {
      by_kind[stream.is_large[i] ? 'l' : stream.is_plan[i] ? 's' : 'm'].push_back(i);
    }
    std::map<char, size_t> next;
    for (size_t r = 0; r < n; ++r) {
      const char kind = kRankPattern[r % 10];
      rank_to_index_.push_back(by_kind[kind].at(next[kind]++));
    }
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += std::pow(static_cast<double>(r + 1), -kZipfExponent);
      cdf_.push_back(sum);
    }
    for (double& value : cdf_) value /= sum;
  }
  size_t Pick(Rng* rng) const {
    const size_t rank = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), rng->Unit()) - cdf_.begin());
    return rank_to_index_[std::min(rank, rank_to_index_.size() - 1)];
  }

 private:
  std::vector<size_t> rank_to_index_;
  std::vector<double> cdf_;
};

// What the client saw in one timed loop.
struct ClientLoop {
  LoopStats loop;
  double paused_ns = 0.0;  // waiting for the replay server between ops
  std::vector<uint64_t> cold_hash;  // plan_cold: normalized answer per stream index
  std::vector<std::vector<Span>> op_spans;  // traced: client spans per op
};

// The closed loop shared by the untraced and traced runs. `cold_reference`
// (plan_cold, traced run) holds the untraced answers to compare against;
// `between_ops`, when set, runs after each op outside its time.
ClientLoop RunClientLoop(const PlanSetup& setup, bool warm, double seconds,
                         serve::PlanClient* client, bool traced,
                         const std::vector<uint64_t>* cold_reference,
                         const std::function<void()>& between_ops, RunResult* result) {
  ClientLoop out;
  Rng rng(setup.seed ^ 0x5eedULL);
  std::optional<ZipfPicker> zipf;
  if (warm) zipf.emplace(setup.stream, kWarmPool);
  std::string response;
  SpanLog log;
  CpuRotation rotation;
  LoopTimer timer(warm ? kWarmSliceOps : kColdSliceOps);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0; NowNs() < deadline; ++i) {
    if (!warm && i >= setup.stream.request_json.size()) {
      // Every distinct key has been asked: end the loop early rather than
      // repeat one (only a program far faster than today's gets here).
      result->info.push_back("stream_exhausted_after_s " +
                             std::to_string(static_cast<double>(NowNs() - start) * 1e-9));
      break;
    }
    const size_t index = warm ? zipf->Pick(&rng) : i;
    const std::string& request = setup.stream.request_json[index];
    log.Clear();
    const int root = traced ? log.Begin(Layer::kBench, "op") : -1;
    const int rtt = traced ? log.Begin(Layer::kServe, "serve.round_trip") : -1;
    const int64_t t0 = NowNs();
    std::string error;
    const bool sent = client->CallRaw(request, &response, &error);
    timer.Op(NowNs() - t0);
    if (traced) log.End(rtt);
    rotation.Tick();
    ++result->attempted;
    if (!sent) {
      ++result->failed;
      result->Fail("round trip failed: " + error);
      break;
    }
    const uint64_t hash = Fnv1a(Normalize(response));
    bool good = IsOk(response) && IsHit(response) == warm;
    if (warm) {
      good = good && hash == setup.pool_hash[index];
    } else {
      out.cold_hash.push_back(hash);
      if (cold_reference != nullptr && i < cold_reference->size()) {
        good = good && hash == (*cold_reference)[i];
      }
    }
    if (!good) {
      ++result->failed;
      result->Fail("wrong answer to request " + std::to_string(index) + ": " + response);
    }
    if (traced) {
      log.End(root);
      out.op_spans.push_back(log.spans());
    }
    if (between_ops) {
      const int64_t p0 = NowNs();
      between_ops();
      out.paused_ns += static_cast<double>(NowNs() - p0);
    }
  }
  out.loop = timer.Finish();
  return out;
}

// plan_cold: every tenth key asked again must come back as a hit with the
// same answer (outside the timed loop).
void RecheckWarm(const PlanSetup& setup, const ClientLoop& run, serve::PlanClient* client,
                 RunResult* result) {
  std::string response;
  for (size_t i = 0; i < run.cold_hash.size(); i += kRecheckStride) {
    if (!Call(client, setup.stream.request_json[i], &response, result)) return;
    if (!IsOk(response) || !IsHit(response) || Fnv1a(Normalize(response)) != run.cold_hash[i]) {
      result->Fail("warm answer differs from the cold one for request " + std::to_string(i));
    }
  }
}

// ---- Traced: a replay of PlanServer's connection loop and PlanService::Handle. ----

struct Served {
  std::vector<Span> spans;  // top-level spans have parent -1
  std::vector<CacheMiss> misses;
  CacheLookups lookups;
  SolveStats solves;
};

class ReplayServer {
 public:
  explicit ReplayServer(runner::PartitionCache* cache) : cache_(cache) {}
  ~ReplayServer() { Join(); }
  ReplayServer(const ReplayServer&) = delete;
  ReplayServer& operator=(const ReplayServer&) = delete;

  bool Start(std::string* error);
  int port() const { return port_; }
  // Waits for the served connection to end; the client must have closed it.
  void Join();
  // Waits until the server has finished with every request it has read,
  // including re-solving that request's cache misses after answering it.
  void WaitIdle() const {
    while (done_.load(std::memory_order_acquire) < received_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }

  // Valid after Join: one entry per request, in arrival order.
  const std::vector<Served>& served() const { return served_; }
  int64_t context_builds() const { return context_builds_; }
  double context_build_ns() const { return context_build_ns_; }

 private:
  struct Context {
    std::optional<hw::Cluster> cluster;
    std::optional<model::ModelGraph> graph;
    std::optional<model::ModelProfile> profile;
    std::optional<partition::Partitioner> partitioner;
  };

  void Serve();
  runner::ResultRow Handle(const serve::PlanRequest& request, SpanLog* log, Served* served);
  const Context* GetContext(const serve::PlanRequest& request, SpanLog* log, std::string* error);

  runner::PartitionCache* cache_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<int64_t> received_{0};
  std::atomic<int64_t> done_{0};
  // Touched only by the serving thread until Join.
  std::map<std::string, std::unique_ptr<Context>> contexts_;
  std::vector<Served> served_;
  int64_t context_builds_ = 0;
  double context_build_ns_ = 0.0;
};

bool ReplayServer::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = "socket: " + serve::ErrnoString(errno);
    return false;
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 1) != 0 ||
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    *error = "listen: " + serve::ErrnoString(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  port_ = ntohs(addr.sin_port);
  thread_ = std::thread(&ReplayServer::Serve, this);
  return true;
}

void ReplayServer::Join() {
  if (listen_fd_ < 0) return;
  ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept if no client ever came
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

// PlanServer::HandleConnection for one connection: frame in, HandleJson
// (parse + Handle), RowToJson, frame out.
void ReplayServer::Serve() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;
  std::string payload;
  std::string error;
  SpanLog log;
  while (serve::ReadFrame(fd, serve::kDefaultMaxFrameBytes, &payload, &error) ==
         serve::FrameResult::kFrame) {
    received_.fetch_add(1, std::memory_order_acq_rel);
    log.Clear();
    Served served;
    serve::PlanRequest request;
    serve::ErrorCode code = serve::ErrorCode::kNone;
    bool parsed = false;
    {
      ScopedSpan span(&log, Layer::kServe, "serve.parse");
      parsed = serve::ParsePlanRequest(payload, &request, &code, &error);
    }
    runner::ResultRow row;
    if (parsed) {
      ScopedSpan span(&log, Layer::kServe, "serve.handle");
      row = Handle(request, &log, &served);
    } else {
      row.Set("v", serve::kProtocolVersion).Set("ok", false).Set("error", error);
    }
    std::string response;
    {
      ScopedSpan span(&log, Layer::kServe, "serve.encode");
      response = runner::RowToJson(row);
    }
    const bool written = serve::WriteFrame(fd, response, serve::kDefaultMaxFrameBytes, &error);
    served.spans = log.spans();
    AddSolveSpans(served.misses, &served.spans, &served.solves);
    served_.push_back(std::move(served));
    done_.fetch_add(1, std::memory_order_acq_rel);
    if (!written) break;
  }
  ::close(fd);
}

const ReplayServer::Context* ReplayServer::GetContext(const serve::PlanRequest& request,
                                                      SpanLog* log, std::string* error) {
  const std::string key = (request.cluster_spec.empty() ? "nodes:" + request.cluster_nodes
                                                        : "spec:" + request.cluster_spec) +
                          "\n" + request.model + "\n" + std::to_string(request.batch_size);
  const auto it = contexts_.find(key);
  if (it != contexts_.end()) return it->second.get();

  const int64_t t0 = NowNs();
  auto context = std::make_unique<Context>();
  try {
    {
      ScopedSpan span(log, Layer::kHw, "hw.build_cluster");
      context->cluster.emplace(request.cluster_spec.empty()
                                   ? hw::Cluster::PaperSubset(request.cluster_nodes)
                                   : hw::ClusterSpec::Parse(request.cluster_spec).Build());
    }
    {
      ScopedSpan span(log, Layer::kModel, "model.build");
      context->graph.emplace(core::BuildModel(request.model == "vgg19"
                                                  ? core::ModelKind::kVgg19
                                                  : core::ModelKind::kResNet152));
    }
    {
      ScopedSpan span(log, Layer::kModel, "model.profile");
      context->profile.emplace(*context->graph, request.batch_size);
    }
    {
      ScopedSpan span(log, Layer::kPartition, "partition.init");
      context->partitioner.emplace(*context->profile, *context->cluster);
    }
  } catch (const std::exception& e) {
    *error = e.what();
    return nullptr;
  }
  ++context_builds_;
  context_build_ns_ += static_cast<double>(NowNs() - t0);
  return contexts_.emplace(key, std::move(context)).first->second.get();
}

// Same rendering as PlanService (serve/plan_service.cc).
void FillPartition(const partition::Partition& partition, runner::ResultRow* row) {
  std::string stages;
  for (const partition::StageAssignment& stage : partition.stages) {
    if (!stages.empty()) stages += "|";
    stages += std::to_string(stage.first_layer) + "-" + std::to_string(stage.last_layer) +
              ":gpu" + std::to_string(stage.gpu_id) + ":node" + std::to_string(stage.node) +
              ":" + hw::SpecOf(stage.gpu_type).name;
  }
  row->Set("feasible", partition.feasible);
  row->Set("num_stages", partition.num_stages());
  row->Set("bottleneck_time_s", partition.bottleneck_time);
  row->Set("sum_time_s", partition.sum_time);
  row->Set("stages", stages);
}

// PlanService::Handle for the plan and max_nm ops.
runner::ResultRow ReplayServer::Handle(const serve::PlanRequest& request, SpanLog* log,
                                       Served* served) {
  const auto start = std::chrono::steady_clock::now();
  runner::ResultRow row;
  row.Set("v", serve::kProtocolVersion);
  if (!request.id.empty()) row.Set("id", request.id);
  row.Set("op", request.op);
  const auto finish = [&]() {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    row.Set("latency_us",
            std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
    return row;
  };
  const auto fail = [&](const std::string& message) {
    row.Set("ok", false).Set("error", message);
    return finish();
  };
  if (request.op != "plan" && request.op != "max_nm") return fail("unsupported op");

  std::string error;
  const Context* context = GetContext(request, log, &error);
  if (context == nullptr) return fail(error);
  std::vector<int> gpu_ids;
  try {
    gpu_ids = core::PickGpus(*context->cluster, request.selector);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  partition::PartitionOptions options;
  options.nm = request.nm;
  options.search_gpu_orders = request.search_orders;
  if (!partition::ParseSearchStrategy(request.strategy, &options.strategy)) {
    return fail("unknown strategy");
  }
  options.beam_width = request.beam_width;
  options.rack_order_limit = request.rack_order_limit;
  const partition::SearchStrategy resolved =
      partition::ResolveSearchStrategy(*context->cluster, gpu_ids, options);
  row.Set("strategy", partition::SearchStrategyName(resolved));
  if (resolved != partition::SearchStrategy::kExact) {
    row.Set("beam_width", options.beam_width);
    if (resolved == partition::SearchStrategy::kHierarchical) {
      row.Set("rack_order_limit", options.rack_order_limit);
    }
  }

  try {
    bool was_hit = false;
    if (request.op == "plan") {
      const partition::Partition partition = TracedCacheSolve(
          cache_, *context->partitioner, gpu_ids, options, log, &served->lookups,
          &served->misses, &was_hit);
      row.Set("ok", true);
      row.Set("nm", request.nm);
      FillPartition(partition, &row);
      row.Set("cache_hit", was_hit);
    } else {
      bool all_hits = true;
      const int max_nm = partition::FindMaxNmWith(
          [&](const partition::PartitionOptions& probe_options) {
            const partition::Partition probe =
                TracedCacheSolve(cache_, *context->partitioner, gpu_ids, probe_options, log,
                                 &served->lookups, &served->misses, &was_hit);
            all_hits = all_hits && was_hit;
            return probe;
          },
          request.nm_cap, options);
      row.Set("ok", true);
      row.Set("max_nm", max_nm);
      row.Set("nm_cap", request.nm_cap);
      if (max_nm > 0) {
        options.nm = max_nm;
        FillPartition(TracedCacheSolve(cache_, *context->partitioner, gpu_ids, options, log,
                                       &served->lookups, &served->misses, &was_hit),
                      &row);
      } else {
        row.Set("feasible", false);
      }
      row.Set("cache_hit", all_hits);
    }
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  return finish();
}

// Runs the traced half: a fresh cache behind the replay server, primed like
// the untraced setup, then the same closed loop with spans.
void RunTraced(const PlanSetup& setup, bool warm, double seconds,
               const std::vector<uint64_t>& cold_reference, double untraced_rate,
               const RunOptions& options, RunResult* result) {
  runner::PartitionCache cache;
  ReplayServer server(&cache);
  serve::PlanClient client;
  std::string error;
  if (!server.Start(&error) || !client.Connect("127.0.0.1", server.port(), &error)) {
    result->Fail("cannot start the replay server: " + error);
    return;
  }
  std::vector<uint64_t> pool_hash;
  CpuRotation rotation(kSetupSliceNs);
  const bool primed = Prime(
      setup, warm,
      [&](const std::string& request, std::string* response) {
        return Call(&client, request, response, result);
      },
      &rotation, &pool_hash, result);
  if (primed && warm && pool_hash != setup.pool_hash) {
    result->Fail("replayed pool answers differ from PlanServer's");
  }
  const size_t setup_requests = setup.stream.warmup_json.size() + (warm ? kWarmPool : 0);
  ClientLoop run;
  const int64_t origin = NowNs();
  if (primed) {
    run = RunClientLoop(setup, warm, seconds, &client, /*traced=*/true,
                        warm ? nullptr : &cold_reference, [&] { server.WaitIdle(); }, result);
  }
  client.Close();
  server.Join();

  LayerCounters counters;
  TraceSummary summary(origin, /*export_ops=*/2000);
  const std::vector<Served>& served = server.served();
  for (size_t op = 0; op < run.op_spans.size() && setup_requests + op < served.size(); ++op) {
    const Served& s = served[setup_requests + op];
    std::vector<Span> spans = run.op_spans[op];
    const int offset = static_cast<int>(spans.size());
    for (Span span : s.spans) {
      span.parent = span.parent < 0 ? 1 : span.parent + offset;  // under the round trip
      spans.push_back(span);
    }
    counters.solves.Add(s.solves);
    counters.cache.Add(s.lookups);
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const double dur_us = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-3;
      const std::string name = spans[i].name;
      if (name == "serve.parse") counters.parse_us.push_back(dur_us);
      if (name == "serve.encode") counters.encode_us.push_back(dur_us);
      if (name == "serve.round_trip") {
        counters.transport_us.push_back(static_cast<double>(self[i]) * 1e-3);
      }
      if (name == "serve.handle") {
        counters.handle_us.push_back(dur_us);
        counters.handle_self_us.push_back(static_cast<double>(self[i]) * 1e-3);
      }
    }
    summary.AddOp(spans);
  }
  if (summary.ops() != static_cast<int64_t>(run.op_spans.size())) {
    result->Fail("replay server answered fewer requests than the client sent");
  }
  counters.cache_entries = static_cast<double>(cache.size());
  counters.cache_evictions = cache.evictions();
  counters.context_builds = server.context_builds();
  counters.context_build_ns = server.context_build_ns();
  const double traced_wall_s = run.loop.wall_s - run.paused_ns * 1e-9;
  const double traced_rate = traced_wall_s > 0.0 ? run.loop.ops / traced_wall_s : 0.0;
  AddPerLayerMetrics(summary, counters, untraced_rate > 0.0 ? traced_rate / untraced_rate : 0.0,
                     result);
  result->info.push_back("threads " + std::to_string(run.loop.threads));
  const std::string path = options.work_dir + "/trace_" + options.workload + "_seed" +
                           std::to_string(options.seed) + ".json";
  if (summary.WriteChromeJson(path, &error)) {
    result->info.push_back("chrome_trace " + path);
  } else {
    result->Fail(error);
  }
}

}  // namespace

RunResult RunPlan(const RunOptions& options, bool warm) {
  RunResult result;
  PlanSetup setup;
  std::unique_ptr<ServeStack> stack;
  std::vector<double> setup_s;
  // One rotation across every repeat, so each repeat starts on another CPU.
  CpuRotation rotation(kSetupSliceNs);
  for (int i = 0; i < kSetupRepeats && result.correct; ++i) {
    const double cal_before_ns = CalibrationNs();
    const int64_t t0 = NowNs();
    stack.reset();  // joins the previous repeat's server first
    stack = std::make_unique<ServeStack>();
    PlanSetup again;
    again.seed = options.seed;
    again.stream = GeneratePlanStream(options.seed, kPlanStreamLength);
    rotation.Tick();
    if (!StartStack(stack.get(), &result)) break;
    Prime(
        again, warm,
        [&](const std::string& request, std::string* response) {
          return Call(&stack->client, request, response, &result);
        },
        &rotation, &again.pool_hash, &result);
    setup_s.push_back(Calibrated(static_cast<double>(NowNs() - t0) * 1e-9, cal_before_ns));
    again.digest = Fnv1a(options.workload + std::to_string(options.seed));
    for (uint64_t hash : again.pool_hash) again.digest = Fnv1a(Hex(hash), again.digest);
    if (i > 0 && again.digest != setup.digest) result.Fail("setup repeats disagree");
    setup = std::move(again);
  }
  if (!result.correct) return result;

  const int64_t setup_misses = stack->cache->misses();
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  ClientLoop run =
      RunClientLoop(setup, warm, untraced_seconds, &stack->client, false, nullptr, {}, &result);
  if (warm && stack->cache->misses() != setup_misses) {
    result.Fail("plan_warm missed the cache after setup");
  }
  if (!warm) {
    if (!options.trace && run.cold_hash.size() < kDigestOps) {
      result.Fail("plan_cold finished fewer than " + std::to_string(kDigestOps) + " requests");
    }
    for (size_t i = 0; i < std::min(kDigestOps, run.cold_hash.size()); ++i) {
      setup.digest = Fnv1a(Hex(run.cold_hash[i]), setup.digest);
    }
    RecheckWarm(setup, run, &stack->client, &result);
  }
  stack.reset();
  result.info.push_back("digest " + Hex(setup.digest));
  result.info.push_back("ops " + std::to_string(run.loop.ops));
  if (!options.trace) {
    result.info.push_back("threads " + std::to_string(run.loop.threads));
    AddEndToEndMetrics(run.loop, Median(setup_s), &result);
    return result;
  }
  RunTraced(setup, warm, options.seconds / 2, run.cold_hash,
            run.loop.wall_s > 0.0 ? run.loop.ops / run.loop.wall_s : 0.0, options, &result);
  return result;
}

}  // namespace perfbench
