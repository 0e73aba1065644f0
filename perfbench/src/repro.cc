// repro_cold: what a researcher reproducing the paper waits on. Every op is
// one experiment of the figure benches' lists (Fig. 3 Nm sweeps, Fig. 4
// policies + Horovod, Table 4 whimpy-GPU scaling, Figs. 5/6, the §8.4 D
// sweep) plus the golden-pinned Fig. 3 / Fig. 4 / Table 4 lists, run through
// core::RunExperiment on one thread. Each pass starts with a fresh
// runner::PartitionCache and writes its rows through a store::StoreSink.
//
// The traced run replays RunExperiment (and HetPipe::Run inside it) from the
// layers' public functions with a span around each call; its rows must be
// bit-identical to RunExperiment's.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>

#include "cluster/allocator.h"
#include "core/experiment.h"
#include "core/hetpipe.h"
#include "dp/horovod.h"
#include "hw/cluster_spec.h"
#include "partition/partitioner.h"
#include "pipeline/virtual_worker.h"
#include "runner/partition_cache.h"
#include "runner/sweep_runner.h"
#include "serve/protocol.h"
#include "sim/simulator.h"
#include "store/extent_writer.h"
#include "trace.h"
#include "workloads.h"
#include "wsp/param_server.h"
#include "wsp/sync_policy.h"

namespace perfbench {
namespace {

using namespace hetpipe;

// ---- The experiment lists. ----

core::Experiment Fig3Point(core::ModelKind model, const char* codes, int nm, int waves,
                           int warmup) {
  core::Experiment e;
  e.kind = core::ExperimentKind::kSingleVirtualWorker;
  e.model = model;
  e.vw_codes = codes;
  e.config.nm = nm;
  e.config.jitter_cv = 0.0;
  e.config.waves = waves;
  e.config.warmup_waves = warmup;
  return e;
}

struct PolicyRow {
  const char* label;
  cluster::AllocationPolicy allocation;
  wsp::PlacementPolicy placement;
};
constexpr PolicyRow kPolicies[] = {
    {"NP", cluster::AllocationPolicy::kNodePartition, wsp::PlacementPolicy::kRoundRobin},
    {"ED", cluster::AllocationPolicy::kEqualDistribution, wsp::PlacementPolicy::kRoundRobin},
    {"ED-local", cluster::AllocationPolicy::kEqualDistribution, wsp::PlacementPolicy::kLocal},
    {"HD", cluster::AllocationPolicy::kHybridDistribution, wsp::PlacementPolicy::kRoundRobin},
};

core::Experiment Horovod(const std::string& name, core::ModelKind model, const char* nodes) {
  core::Experiment e;
  e.name = name;
  e.kind = core::ExperimentKind::kHorovod;
  e.model = model;
  e.cluster_nodes = nodes;
  return e;
}

core::Experiment FullCluster(const std::string& name, core::ModelKind model, const char* nodes,
                             cluster::AllocationPolicy allocation,
                             wsp::PlacementPolicy placement, double jitter, int waves) {
  core::Experiment e;
  e.name = name;
  e.kind = core::ExperimentKind::kFullCluster;
  e.model = model;
  e.cluster_nodes = nodes;
  e.config.allocation = allocation;
  e.config.placement = placement;
  e.config.sync = wsp::SyncPolicy::Wsp(0);
  e.config.jitter_cv = jitter;
  e.config.waves = waves;
  return e;
}

core::Experiment EdLocal(const std::string& name, core::ModelKind model, const char* nodes, int d,
                         double jitter) {
  core::Experiment e;
  e.name = name;
  e.kind = core::ExperimentKind::kFullCluster;
  e.model = model;
  e.cluster_nodes = nodes;
  e.config = core::EdLocalConfig(d, jitter);
  return e;
}

core::Experiment Table4HetPipe(const std::string& name, core::ModelKind model, const char* nodes,
                               double jitter, int waves) {
  return FullCluster(name, model, nodes,
                     std::string(nodes).size() == 1
                         ? cluster::AllocationPolicy::kNodePartition
                         : cluster::AllocationPolicy::kEqualDistribution,
                     wsp::PlacementPolicy::kLocal, jitter, waves);
}

constexpr const char* kGoldenSuites[] = {"fig3", "fig4", "table4"};
constexpr const char* kTable4Subsets[] = {"V", "VR", "VRQ", "VRQG"};
constexpr core::ModelKind kModels[] = {core::ModelKind::kResNet152, core::ModelKind::kVgg19};

struct ReproList {
  std::vector<core::Experiment> experiments;
  // Index into kGoldenSuites for the golden-pinned experiments, else -1.
  std::vector<int> golden_suite;
};

// The figure benches' lists (same parameters as bench/fig*_*.cc, table4,
// sec84 via core::RunFig3Config / RunFig4 / RunTable4 / RunFig5 / RunFig6 /
// RunStalenessWaitStudy), then the lists tests/golden_test.cc pins.
ReproList BuildReproList() {
  ReproList list;
  const auto add = [&](core::Experiment e, int suite) {
    list.experiments.push_back(std::move(e));
    list.golden_suite.push_back(suite);
  };
  for (core::ModelKind model : kModels) {
    for (const char* codes : {"VVVV", "RRRR", "GGGG", "QQQQ", "VRGQ", "VVQQ", "RRGG"}) {
      for (int nm = 1; nm <= 7; ++nm) {
        add(Fig3Point(model, codes, nm, /*waves=*/40, /*warmup=*/5), -1);
      }
    }
  }
  for (core::ModelKind model : kModels) {
    add(Horovod("Horovod", model, "VRGQ"), -1);
    for (const PolicyRow& policy : kPolicies) {
      add(FullCluster(policy.label, model, "VRGQ", policy.allocation, policy.placement, 0.1, 40),
          -1);
    }
  }
  for (core::ModelKind model : {core::ModelKind::kVgg19, core::ModelKind::kResNet152}) {
    for (const char* nodes : kTable4Subsets) {
      core::Experiment horovod = Horovod("", model, nodes);
      add(std::move(horovod), -1);
      add(Table4HetPipe("", model, nodes, 0.1, 40), -1);
    }
  }
  add(Horovod("Horovod (12 GPUs)", core::ModelKind::kResNet152, "VRQ"), -1);
  add(EdLocal("HetPipe (12 GPUs)", core::ModelKind::kResNet152, "VRQ", 0, 0.1), -1);
  add(EdLocal("HetPipe (16 GPUs)", core::ModelKind::kResNet152, "VRGQ", 0, 0.1), -1);
  add(Horovod("Horovod", core::ModelKind::kVgg19, "VRGQ"), -1);
  for (int d : {0, 4, 32}) {
    add(EdLocal("HetPipe D=" + std::to_string(d), core::ModelKind::kVgg19, "VRGQ", d, 0.15), -1);
  }
  for (int d : {0, 1, 4, 32}) {
    add(EdLocal("D=" + std::to_string(d), core::ModelKind::kVgg19, "VRGQ", d, 0.15), -1);
  }

  // Golden-pinned lists (tests/golden_test.cc).
  for (const char* codes : {"VVVV", "GGGG", "VRGQ", "VVQQ"}) {
    for (int nm = 1; nm <= 4; ++nm) {
      add(Fig3Point(core::ModelKind::kResNet152, codes, nm, /*waves=*/20, /*warmup=*/3), 0);
    }
  }
  for (core::ModelKind model : kModels) {
    const std::string name = core::ModelName(model);
    add(Horovod(name + " Horovod", model, "VRGQ"), 1);
    for (const PolicyRow& policy : kPolicies) {
      add(FullCluster(name + " " + policy.label, model, "VRGQ", policy.allocation,
                      policy.placement, 0.05, 20),
          1);
    }
  }
  for (const char* nodes : kTable4Subsets) {
    add(Horovod(std::string("Horovod ") + nodes, core::ModelKind::kResNet152, nodes), 2);
    add(Table4HetPipe(std::string("HetPipe ") + nodes, core::ModelKind::kResNet152, nodes, 0.05,
                      20),
        2);
  }
  return list;
}

// ---- Golden comparison (the golden suite's 1e-6 relative tolerance). ----

constexpr double kGoldenRelTol = 1e-6;
constexpr double kGoldenAbsTol = 1e-9;

bool RowMatchesGolden(const std::string& golden, const std::string& actual, std::string* why) {
  std::map<std::string, serve::JsonValue> want;
  std::map<std::string, serve::JsonValue> got;
  std::string error;
  if (!serve::ParseJsonObject(golden, &want, &error) ||
      !serve::ParseJsonObject(actual, &got, &error)) {
    *why = "unparsable row: " + error;
    return false;
  }
  if (want.size() != got.size()) {
    *why = "field count differs";
    return false;
  }
  for (const auto& [key, value] : want) {
    const auto it = got.find(key);
    if (it == got.end() || it->second.type != value.type) {
      *why = "field " + key + " missing or retyped";
      return false;
    }
    const bool same = value.type == serve::JsonValue::Type::kNumber
                          ? std::abs(value.num - it->second.num) <=
                                kGoldenAbsTol + kGoldenRelTol * std::abs(value.num)
                          : value.str == it->second.str && value.boolean == it->second.boolean;
    if (!same) {
      *why = "field " + key + " differs";
      return false;
    }
  }
  return true;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// ---- Traced replay of core::RunExperiment. ----

struct Replay {
  // What one experiment builds. Owned here rather than on the replay's stack
  // so the op's cache misses can be solved again after the op closes.
  struct OpState {
    std::optional<hw::Cluster> cluster;
    std::optional<model::ModelGraph> graph;
    std::optional<model::ModelProfile> profile;
    std::optional<partition::Partitioner> partitioner;
  };
  std::unique_ptr<OpState> op;
  SpanLog* log = nullptr;
  runner::PartitionCache* cache = nullptr;
  LayerCounters* counters = nullptr;
  std::vector<CacheMiss> misses;  // of the current op, solved again after it closes
};

partition::Partition TracedSolve(Replay* r, const partition::Partitioner& partitioner,
                                 const std::vector<int>& gpu_ids,
                                 const partition::PartitionOptions& options) {
  bool hit = false;
  return TracedCacheSolve(r->cache, partitioner, gpu_ids, options, r->log, &r->counters->cache,
                          &r->misses, &hit);
}

const model::ModelProfile& TracedProfile(Replay* r, const model::ModelGraph& graph,
                                         int batch_size) {
  ScopedSpan span(r->log, Layer::kModel, "model.profile");
  r->op->profile.emplace(graph, batch_size);
  ++r->counters->profiles;
  return *r->op->profile;
}

const partition::Partitioner& TracedPartitioner(Replay* r, const model::ModelProfile& profile,
                                                const hw::Cluster& cluster) {
  ScopedSpan span(r->log, Layer::kPartition, "partition.init");
  r->op->partitioner.emplace(profile, cluster);
  return *r->op->partitioner;
}

// HetPipe::RunSingleVirtualWorker, call for call.
core::HetPipeReport ReplaySingleVw(Replay* r, const hw::Cluster& cluster,
                                   const model::ModelGraph& graph,
                                   const std::vector<int>& gpu_ids, int nm,
                                   const core::HetPipeConfig& config) {
  core::HetPipeReport report;
  const model::ModelProfile& profile = TracedProfile(r, graph, config.batch_size);
  const partition::Partitioner& partitioner = TracedPartitioner(r, profile, cluster);
  partition::PartitionOptions popt;
  popt.nm = nm;
  popt.mem_params = config.mem_params;
  popt.pool = config.pool;
  const partition::Partition partition = TracedSolve(r, partitioner, gpu_ids, popt);
  if (!partition.feasible) {
    report.infeasible_reason = "partition infeasible at Nm=" + std::to_string(nm);
    return report;
  }

  sim::Simulator simulator;
  pipeline::OpenGate gate;
  pipeline::VirtualWorkerOptions vopt;
  vopt.nm = nm;
  vopt.jitter_cv = config.jitter_cv;
  vopt.seed = config.seed;
  vopt.max_minibatches = config.waves * nm;
  std::optional<pipeline::VirtualWorkerSim> vw;
  {
    ScopedSpan span(r->log, Layer::kSim, "sim.run");
    vw.emplace(0, simulator, partition, gate, vopt);
    vw->Start();
    simulator.Run();
  }
  r->counters->sim_events += static_cast<int64_t>(simulator.events_processed());

  report.feasible = true;
  report.nm = nm;
  report.s_local = wsp::LocalStaleness(nm);
  report.s_global = -1;
  const int64_t warmup = config.warmup_waves * nm;
  core::VwReport vr;
  vr.gpu_ids = gpu_ids;
  vr.partition = partition;
  vr.max_nm = nm;
  vr.throughput_img_s =
      core::SteadyStateThroughput(vw->completion_times(), warmup, config.batch_size);
  const sim::SimTime warm_time = vw->completion_times().size() > static_cast<size_t>(warmup)
                                     ? vw->completion_times()[static_cast<size_t>(warmup)]
                                     : 0.0;
  vr.max_stage_utilization = vw->MaxStageUtilization(warm_time, simulator.now());
  report.throughput_img_s = vr.throughput_img_s;
  report.vws.push_back(std::move(vr));
  return report;
}

// HetPipe::Run, call for call.
core::HetPipeReport ReplayFullCluster(Replay* r, const hw::Cluster& cluster,
                                      const model::ModelGraph& graph,
                                      const core::HetPipeConfig& config) {
  core::HetPipeReport report;
  std::optional<cluster::Allocation> alloc_slot;
  {
    ScopedSpan span(r->log, Layer::kCluster, "cluster.allocate");
    alloc_slot.emplace(cluster::Allocate(cluster, config.allocation));
  }
  const cluster::Allocation& alloc = *alloc_slot;
  const model::ModelProfile& profile = TracedProfile(r, graph, config.batch_size);
  const partition::Partitioner& partitioner = TracedPartitioner(r, profile, cluster);

  partition::PartitionOptions popt;
  popt.mem_params = config.mem_params;
  popt.pool = config.pool;

  int nm_cap = config.nm_cap;
  std::vector<int> max_nms;
  for (const std::vector<int>& gpus : alloc.vw_gpus) {
    const int max_nm = partition::FindMaxNmWith(
        [&](const partition::PartitionOptions& at_nm) {
          return TracedSolve(r, partitioner, gpus, at_nm);
        },
        config.nm_cap, popt);
    if (max_nm == 0) {
      report.infeasible_reason = "no feasible partition for a virtual worker";
      return report;
    }
    max_nms.push_back(max_nm);
    nm_cap = std::min(nm_cap, max_nm);
  }
  if (config.nm > 0) {
    nm_cap = std::min(nm_cap, config.nm);
  }

  int common_nm = nm_cap;
  if (config.nm == 0) {
    std::vector<double> estimates(static_cast<size_t>(nm_cap) + 1, -1.0);
    double best_estimate = -1.0;
    for (int nm = 1; nm <= nm_cap; ++nm) {
      partition::PartitionOptions nm_opt = popt;
      nm_opt.nm = nm;
      double estimate = 0.0;
      bool all_feasible = true;
      for (const std::vector<int>& gpus : alloc.vw_gpus) {
        const partition::Partition p = TracedSolve(r, partitioner, gpus, nm_opt);
        if (!p.feasible) {
          all_feasible = false;
          break;
        }
        const double per_minibatch =
            std::max(p.sum_time / static_cast<double>(nm), p.bottleneck_time);
        estimate += config.batch_size / per_minibatch;
      }
      if (all_feasible) {
        estimates[static_cast<size_t>(nm)] = estimate;
        best_estimate = std::max(best_estimate, estimate);
      }
    }
    for (int nm = 1; nm <= nm_cap; ++nm) {
      if (estimates[static_cast<size_t>(nm)] >= 0.97 * best_estimate) {
        common_nm = nm;
      }
    }
  }

  popt.nm = common_nm;
  std::vector<partition::Partition> partitions;
  std::vector<wsp::VwCommTimes> comm;
  for (const std::vector<int>& gpus : alloc.vw_gpus) {
    partitions.push_back(TracedSolve(r, partitioner, gpus, popt));
    ScopedSpan span(r->log, Layer::kSim, "wsp.comm_times");
    comm.push_back(wsp::ComputePsCommTimes(partitions.back(), cluster, config.placement));
  }

  sim::Simulator simulator;
  wsp::WspCoordinatorOptions wopt;
  wopt.num_vws = alloc.num_vws();
  wopt.nm = common_nm;
  wopt.policy = config.sync;
  std::optional<wsp::WspCoordinator> coordinator;
  std::vector<std::unique_ptr<pipeline::VirtualWorkerSim>> vws;
  {
    ScopedSpan span(r->log, Layer::kSim, "sim.run");
    coordinator.emplace(simulator, wopt, comm);
    for (int v = 0; v < alloc.num_vws(); ++v) {
      pipeline::VirtualWorkerOptions vopt;
      vopt.nm = common_nm;
      vopt.jitter_cv = config.jitter_cv;
      vopt.drift_cv = config.drift_cv;
      vopt.speed_bias_cv = config.speed_bias_cv;
      vopt.seed = config.seed;
      vopt.max_minibatches = config.waves * common_nm;
      vws.push_back(std::make_unique<pipeline::VirtualWorkerSim>(
          v, simulator, partitions[static_cast<size_t>(v)], *coordinator, vopt));
    }
    for (auto& vw : vws) {
      vw->Start();
    }
    simulator.Run();
  }
  r->counters->sim_events += static_cast<int64_t>(simulator.events_processed());

  report.feasible = true;
  report.nm = common_nm;
  report.s_local = wsp::LocalStaleness(common_nm);
  report.s_global = (config.sync.mode == wsp::SyncMode::kWsp)
                        ? wsp::GlobalStaleness(common_nm, config.sync.d)
                        : -1;
  const int64_t warmup = config.warmup_waves * common_nm;
  const sim::SimTime end = simulator.now();
  double total_idle = 0.0;
  for (int v = 0; v < alloc.num_vws(); ++v) {
    const auto& vw = *vws[static_cast<size_t>(v)];
    core::VwReport vr;
    vr.gpu_ids = alloc.vw_gpus[static_cast<size_t>(v)];
    vr.partition = partitions[static_cast<size_t>(v)];
    vr.max_nm = max_nms[static_cast<size_t>(v)];
    vr.throughput_img_s =
        core::SteadyStateThroughput(vw.completion_times(), warmup, config.batch_size);
    const sim::SimTime warm_time = vw.completion_times().size() > static_cast<size_t>(warmup)
                                       ? vw.completion_times()[static_cast<size_t>(warmup)]
                                       : 0.0;
    vr.max_stage_utilization = vw.MaxStageUtilization(warm_time, end);
    vr.wait_s = vw.total_wait_s();
    vr.idle_during_wait_s = vw.IdleDuringWait();
    report.throughput_img_s += vr.throughput_img_s;
    report.total_wait_s += vr.wait_s;
    total_idle += vr.idle_during_wait_s;
    report.vws.push_back(std::move(vr));
  }
  report.idle_fraction_of_wait =
      report.total_wait_s > 0.0 ? total_idle / report.total_wait_s : 0.0;
  report.avg_clock_distance = coordinator->clock_distance().mean();
  report.avg_global_lag_waves = coordinator->observed_lag_waves().mean();
  return report;
}

// core::RunExperiment for the kinds the repro lists use.
core::ExperimentResult ReplayExperiment(Replay* r, const core::Experiment& e) {
  r->op = std::make_unique<Replay::OpState>();
  std::optional<hw::Cluster>& cluster = r->op->cluster;
  {
    ScopedSpan span(r->log, Layer::kHw, "hw.build_cluster");
    cluster.emplace(e.cluster_spec.empty() ? hw::Cluster::PaperSubset(e.cluster_nodes)
                                           : hw::ClusterSpec::Parse(e.cluster_spec).Build());
  }
  std::optional<model::ModelGraph>& graph = r->op->graph;
  {
    ScopedSpan span(r->log, Layer::kModel, "model.build");
    graph.emplace(core::BuildModel(e.model));
  }
  core::ExperimentResult result;
  switch (e.kind) {
    case core::ExperimentKind::kFullCluster:
      result.report = ReplayFullCluster(r, *cluster, *graph, e.config);
      result.feasible = result.report.feasible;
      result.throughput_img_s = result.report.throughput_img_s;
      break;
    case core::ExperimentKind::kSingleVirtualWorker: {
      const std::vector<int> gpu_ids = core::PickGpus(*cluster, e.vw_codes);
      result.report =
          ReplaySingleVw(r, *cluster, *graph, gpu_ids, std::max(1, e.config.nm), e.config);
      result.feasible = result.report.feasible;
      result.throughput_img_s = result.report.throughput_img_s;
      if (result.feasible && !result.report.vws.empty()) {
        result.partition = result.report.vws.front().partition;
      }
      break;
    }
    case core::ExperimentKind::kHorovod: {
      const model::ModelProfile& profile = TracedProfile(r, *graph, e.config.batch_size);
      ScopedSpan span(r->log, Layer::kDp, "dp.horovod");
      result.horovod = dp::SimulateHorovod(*cluster, profile);
      result.feasible = result.horovod.feasible;
      result.throughput_img_s = result.horovod.throughput_img_s;
      break;
    }
    default: {  // not in the repro lists; run it whole
      ScopedSpan span(r->log, Layer::kCore, "core.run_experiment");
      return core::RunExperiment(e);
    }
  }
  result.name = e.name.empty() ? e.Describe() : e.name;
  return result;
}

// ---- The workload. ----

struct Reference {
  std::vector<uint64_t> row_hash;  // per experiment, RowToJson of the first pass
  uint64_t digest = 0;
};

std::string PassPath(const RunOptions& options) {
  return options.work_dir + "/repro_pass.hds";
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

// Setup: the reference pass. Its rows are what every timed pass must match
// bit for bit, and its golden-pinned rows must match tests/golden.
Reference SetUp(const RunOptions& options, CpuRotation* rotation, ReproList* list,
                RunResult* result) {
  *list = BuildReproList();
  std::vector<std::vector<std::string>> goldens;
  for (const char* suite : kGoldenSuites) {
    goldens.push_back(ReadLines(options.golden_dir + "/" + suite + ".jsonl"));
    if (goldens.back().empty()) {
      result->Fail("missing golden file " + options.golden_dir + "/" + suite + ".jsonl");
    }
  }
  runner::PartitionCache cache;
  std::string error;
  std::unique_ptr<store::StoreSink> sink = store::StoreSink::Open(PassPath(options), &error);
  if (!sink) {
    result->Fail("cannot open store sink: " + error);
    return {};
  }
  Reference reference;
  reference.digest = Fnv1a("repro_cold");
  std::vector<size_t> golden_next(std::size(kGoldenSuites), 0);
  for (size_t i = 0; i < list->experiments.size(); ++i) {
    rotation->Tick();
    core::Experiment& e = list->experiments[i];
    e.config.partition_cache = &cache;
    const runner::ResultRow row = runner::RowFor(e, core::RunExperiment(e));
    sink->Write(row);
    const std::string json = runner::RowToJson(row);
    reference.row_hash.push_back(Fnv1a(json));
    reference.digest = Fnv1a(json, reference.digest);
    const int suite = list->golden_suite[i];
    if (suite >= 0) {
      const std::vector<std::string>& lines = goldens[static_cast<size_t>(suite)];
      const size_t at = golden_next[static_cast<size_t>(suite)]++;
      std::string why;
      if (at >= lines.size() || !RowMatchesGolden(lines[at], json, &why)) {
        result->Fail(std::string("golden mismatch in ") + kGoldenSuites[suite] + " row " +
                     std::to_string(at) + ": " + why);
      }
    }
  }
  for (size_t s = 0; s < goldens.size(); ++s) {
    if (golden_next[s] != goldens[s].size()) {
      result->Fail(std::string("golden row count differs for ") + kGoldenSuites[s]);
    }
  }
  if (!sink->Close(&error)) {
    result->Fail("store sink close failed: " + error);
  }
  return reference;
}

// A timing slice is whole passes, so every slice holds the same work, and
// over 1000 ops, so a slice's p99 has ten samples beyond it.
constexpr int64_t kPassesPerSlice = 6;

struct PassLoop {
  LoopStats loop;
  // Re-solving the op's cache misses and freeing what it built, both after
  // the op's spans close; excluded from the traced throughput.
  double paused_ns = 0.0;
};

// Runs whole passes until `seconds` have elapsed. With `trace` set, each op is
// the traced replay and its spans are folded into `summary`.
PassLoop RunPasses(const RunOptions& options, double seconds, ReproList* list,
                   const Reference& reference, Rng* rng, TraceSummary* summary,
                   LayerCounters* counters, RunResult* result) {
  PassLoop out;
  std::vector<size_t> order(list->experiments.size());
  std::iota(order.begin(), order.end(), 0);
  SpanLog log;
  Replay replay;
  replay.log = &log;
  replay.counters = counters;
  int64_t passes = 0;
  CpuRotation rotation;
  LoopTimer timer(static_cast<int64_t>(order.size()) * kPassesPerSlice);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    rng->Shuffle(&order);
    runner::PartitionCache cache;
    replay.cache = &cache;
    for (core::Experiment& e : list->experiments) {
      e.config.partition_cache = &cache;
    }
    std::string error;
    std::unique_ptr<store::StoreSink> sink = store::StoreSink::Open(PassPath(options), &error);
    if (!sink) {
      result->Fail("cannot open store sink: " + error);
      break;
    }
    for (size_t idx : order) {
      const core::Experiment& e = list->experiments[idx];
      const int64_t t0 = NowNs();
      runner::ResultRow row;
      if (summary == nullptr) {
        row = runner::RowFor(e, core::RunExperiment(e));
        sink->Write(row);
      } else {
        log.Clear();
        const int root = log.Begin(Layer::kCore, "experiment");
        row = runner::RowFor(e, ReplayExperiment(&replay, e));
        {
          ScopedSpan span(&log, Layer::kSink, "sink.write");
          sink->Write(row);
        }
        log.End(root);
      }
      timer.Op(NowNs() - t0);
      rotation.Tick();
      ++result->attempted;
      if (Fnv1a(runner::RowToJson(row)) != reference.row_hash[idx]) {
        ++result->failed;
        result->Fail("row differs from the reference pass: " + row.Get("name"));
      }
      if (summary != nullptr) {
        const int64_t p0 = NowNs();
        AddSolveSpans(replay.misses, &log.spans(), &counters->solves);
        replay.misses.clear();
        replay.op.reset();
        out.paused_ns += static_cast<double>(NowNs() - p0);
        summary->AddOp(log.spans());
      }
    }
    const int64_t c0 = NowNs();
    if (!sink->Close(&error)) {
      result->Fail("store sink close failed: " + error);
    }
    ++passes;
    if (summary != nullptr) {
      counters->sink_close_ns += static_cast<double>(NowNs() - c0);
      counters->sink_rows += static_cast<int64_t>(order.size());
      counters->sink_bytes += FileBytes(PassPath(options));
      counters->cache_entries += static_cast<double>(cache.size());
      counters->cache_evictions += cache.evictions();
    }
  }
  out.loop = timer.Finish();
  if (summary != nullptr && passes > 0) {
    counters->cache_entries /= static_cast<double>(passes);
  }
  return out;
}

constexpr int kSetupRepeats = 5;

}  // namespace

RunResult RunRepro(const RunOptions& options) {
  RunResult result;
  ReproList list;
  Reference reference;
  std::vector<double> setup_s;
  // One rotation across every repeat, so each repeat starts on another CPU.
  CpuRotation rotation(kSetupSliceNs);
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double cal_before_ns = CalibrationNs();
    const int64_t t0 = NowNs();
    Reference again = SetUp(options, &rotation, &list, &result);
    setup_s.push_back(Calibrated(static_cast<double>(NowNs() - t0) * 1e-9, cal_before_ns));
    if (i > 0 && again.digest != reference.digest) {
      result.Fail("setup passes disagree");
    }
    reference = std::move(again);
  }
  result.info.push_back("digest " + Hex(reference.digest));
  result.info.push_back("experiments_per_pass " + std::to_string(list.experiments.size()));
  if (!result.correct) {
    return result;
  }

  Rng rng(options.seed);
  if (!options.trace) {
    const PassLoop run =
        RunPasses(options, options.seconds, &list, reference, &rng, nullptr, nullptr, &result);
    result.info.push_back("threads " + std::to_string(run.loop.threads));
    AddEndToEndMetrics(run.loop, Median(setup_s), &result);
    return result;
  }

  const PassLoop plain =
      RunPasses(options, options.seconds / 2, &list, reference, &rng, nullptr, nullptr, &result);
  LayerCounters counters;
  TraceSummary summary(NowNs(), /*export_ops=*/1000);
  const PassLoop traced = RunPasses(options, options.seconds / 2, &list, reference, &rng,
                                    &summary, &counters, &result);
  result.info.push_back("threads " + std::to_string(traced.loop.threads));
  const double plain_rate = plain.loop.ops / plain.loop.wall_s;
  const double traced_rate =
      traced.loop.ops / (traced.loop.wall_s - traced.paused_ns * 1e-9);
  AddPerLayerMetrics(summary, counters, traced_rate / plain_rate, &result);
  const std::string path =
      options.work_dir + "/trace_repro_cold_seed" + std::to_string(options.seed) + ".json";
  std::string error;
  if (summary.WriteChromeJson(path, &error)) {
    result.info.push_back("chrome_trace " + path);
  } else {
    result.Fail(error);
  }
  return result;
}

}  // namespace perfbench
