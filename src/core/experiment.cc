#include "core/experiment.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "hw/cluster_spec.h"
#include "model/resnet.h"
#include "model/vgg.h"
#include "pipeline/virtual_worker.h"
#include "runner/partition_cache.h"
#include "runner/sweep_runner.h"
#include "sim/simulator.h"

namespace hetpipe::core {
namespace {

// Strict non-negative integer parse: the whole token must be digits, so
// malformed selector suffixes ("2junk", "0*2") fail loudly instead of
// silently truncating at the first non-digit, and overflow reports a clear
// error instead of escaping as a raw std::out_of_range.
int ParseSelectorInt(const std::string& token, const std::string& what) {
  int value = 0;
  const char* begin = token.c_str();
  const auto [ptr, ec] = std::from_chars(begin, begin + token.size(), value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("selector: number out of range for " + what + ": \"" + token +
                                "\"");
  }
  if (ec != std::errc() || ptr != begin + token.size() || token.empty() || value < 0) {
    throw std::invalid_argument("selector: expected a number for " + what + ", got \"" +
                                token + "\"");
  }
  return value;
}

// Picks `count` unused GPUs of `type` (on `node` unless -1), in id order.
void PickByType(const hw::Cluster& cluster, hw::GpuType type, int count, int node,
                const std::string& what, std::vector<bool>& used, std::vector<int>& picked) {
  for (int c = 0; c < count; ++c) {
    bool found = false;
    for (const hw::Gpu& gpu : cluster.gpus()) {
      if (gpu.type == type && (node < 0 || gpu.node == node) &&
          !used[static_cast<size_t>(gpu.id)]) {
        used[static_cast<size_t>(gpu.id)] = true;
        picked.push_back(gpu.id);
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::invalid_argument("cluster has no free GPU matching " + what);
    }
  }
}

}  // namespace

std::vector<int> PickGpusByCode(const hw::Cluster& cluster, const std::string& codes) {
  std::vector<int> picked;
  std::vector<bool> used(static_cast<size_t>(cluster.num_gpus()), false);
  for (char code : codes) {
    PickByType(cluster, hw::TypeFromCode(code), 1, /*node=*/-1,
               "type " + std::string(1, code), used, picked);
  }
  return picked;
}

std::vector<int> PickGpus(const hw::Cluster& cluster, const std::string& selector) {
  const bool term_form = selector.find_first_of(",*@") != std::string::npos;
  if (!term_form && hw::FindGpuTypeByName(selector) == nullptr) {
    // A code string ("VVQQ") when every character is a known code letter and
    // the selector is not itself a class name (names win, so a class called
    // "GQ" is never shadowed by the G/Q code letters).
    const bool all_codes = !selector.empty() &&
                           std::all_of(selector.begin(), selector.end(), [](char c) {
                             try {
                               hw::TypeFromCode(c);
                               return true;
                             } catch (const std::invalid_argument&) {
                               return false;
                             }
                           });
    if (all_codes) {
      return PickGpusByCode(cluster, selector);
    }
  }

  std::vector<int> picked;
  std::vector<bool> used(static_cast<size_t>(cluster.num_gpus()), false);
  size_t start = 0;
  while (start <= selector.size()) {
    const size_t comma = std::min(selector.find(',', start), selector.size());
    std::string term = selector.substr(start, comma - start);
    start = comma + 1;
    if (term.empty()) {
      continue;
    }
    int node = -1;
    const size_t at = term.find('@');
    if (at != std::string::npos) {
      node = ParseSelectorInt(term.substr(at + 1), "node in \"" + term + "\"");
      term.resize(at);
    }
    int count = 1;
    const size_t star = term.find('*');
    if (star != std::string::npos) {
      count = ParseSelectorInt(term.substr(star + 1), "count in \"" + term + "\"");
      term.resize(star);
    }
    const hw::GpuSpec* spec = hw::FindGpuTypeByName(term);
    const hw::GpuType type = spec != nullptr
                                 ? spec->type
                                 : (term.size() == 1 ? hw::TypeFromCode(term[0])
                                                     : throw std::invalid_argument(
                                                           "unknown GPU class \"" + term + "\""));
    if (count <= 0) {
      throw std::invalid_argument("selector term " + term + " needs a positive count");
    }
    PickByType(cluster, type, count, node, "\"" + term + "\"", used, picked);
  }
  if (picked.empty()) {
    throw std::invalid_argument("empty GPU selector");
  }
  return picked;
}

const char* ModelName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kResNet152:
      return "resnet152";
    case ModelKind::kVgg19:
      return "vgg19";
  }
  return "unknown";
}

model::ModelGraph BuildModel(ModelKind kind) {
  switch (kind) {
    case ModelKind::kResNet152:
      return model::BuildResNet152();
    case ModelKind::kVgg19:
      return model::BuildVgg19();
  }
  throw std::invalid_argument("unknown model kind");
}

ModelKind ModelKindOf(const model::ModelGraph& graph) {
  switch (graph.family()) {
    case model::ModelFamily::kResNet152:
      return ModelKind::kResNet152;
    case model::ModelFamily::kVgg19:
      return ModelKind::kVgg19;
    case model::ModelFamily::kGeneric:
      break;
  }
  throw std::invalid_argument("no ModelKind for graph " + graph.name());
}

const char* StrategyName(PartitionStrategy strategy) {
  switch (strategy) {
    case PartitionStrategy::kMinMaxDp:
      return "min_max_dp";
    case PartitionStrategy::kEqualLayers:
      return "equal_layers";
    case PartitionStrategy::kParamBalanced:
      return "param_balanced";
  }
  return "unknown";
}

const char* KindName(ExperimentKind kind) {
  switch (kind) {
    case ExperimentKind::kFullCluster:
      return "full_cluster";
    case ExperimentKind::kSingleVirtualWorker:
      return "single_vw";
    case ExperimentKind::kPartitionOnly:
      return "partition";
    case ExperimentKind::kHorovod:
      return "horovod";
    case ExperimentKind::kPsDataParallel:
      return "ps_dp";
    case ExperimentKind::kAdPsgd:
      return "ad_psgd";
  }
  return "unknown";
}

std::string NodeCodesOf(const hw::Cluster& cluster) {
  std::string codes;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    codes.push_back(hw::CodeOf(cluster.NodeType(n)));
  }
  return codes;
}

Experiment& Experiment::UseGraph(const model::ModelGraph& model_graph) {
  graph = &model_graph;
  model_name = model_graph.name();
  switch (model_graph.family()) {
    case model::ModelFamily::kResNet152:
      model = ModelKind::kResNet152;
      break;
    case model::ModelFamily::kVgg19:
      model = ModelKind::kVgg19;
      break;
    case model::ModelFamily::kGeneric:
      break;  // only the pointer + name describe it
  }
  return *this;
}

Experiment& Experiment::UseCluster(const hw::Cluster& cluster) {
  if (!cluster.spec_text().empty()) {
    cluster_spec = cluster.spec_text();
    cluster_label = cluster.name().empty() ? "spec" : cluster.name();
    return *this;
  }
  // Without spec text the cluster can only be carried as paper node codes,
  // which RunExperiment rebuilds via PaperSubset (4 homogeneous GPUs per
  // node, default links). Refuse anything that reduction would silently
  // misrepresent — mixed-class nodes, and non-default link models, which two
  // transfer-time probes per link fully detect (the models are affine in the
  // byte count, so probes at two distinct non-zero sizes pin down both the
  // latency/intercept and the slope; a 0-byte probe would miss latency
  // because TransferTime(0) is 0 by definition).
  const hw::PcieLink default_pcie;
  const hw::InfinibandLink default_ib;
  const bool default_links =
      cluster.pcie().TransferTime(1) == default_pcie.TransferTime(1) &&
      cluster.pcie().TransferTime(1ULL << 20) == default_pcie.TransferTime(1ULL << 20) &&
      cluster.infiniband().TransferTime(1) == default_ib.TransferTime(1) &&
      cluster.infiniband().TransferTime(1ULL << 20) == default_ib.TransferTime(1ULL << 20);
  bool paper_nodes = true;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    paper_nodes = paper_nodes && static_cast<int>(cluster.NodeType(n)) < hw::kNumGpuTypes &&
                  cluster.NodeGpuCount(n) == 4 && cluster.NodeHomogeneous(n);
  }
  // A rack topology or per-pair override cannot be expressed as node codes
  // either; PaperSubset always rebuilds a uniform, rack-free fabric. Racks
  // matter even with uniform links: the traffic accounting reads them.
  if (!paper_nodes || !default_links || !cluster.UniformFabric() ||
      cluster.NodeRack(0) >= 0) {
    throw std::invalid_argument(
        "UseCluster: non-paper clusters must be built from a hw::ClusterSpec "
        "(spec_text is empty, so this cluster cannot be rebuilt faithfully)");
  }
  cluster_nodes = NodeCodesOf(cluster);
  cluster_label.clear();
  return *this;
}

std::string Experiment::ModelLabel() const {
  return model_name.empty() ? ModelName(model) : model_name;
}

std::string Experiment::ClusterLabel() const {
  if (!cluster_label.empty()) {
    return cluster_label;
  }
  return cluster_spec.empty() ? cluster_nodes : "spec";
}

std::string Experiment::Describe() const {
  std::ostringstream os;
  os << KindName(kind) << " " << ModelLabel() << " " << ClusterLabel();
  if (!vw_codes.empty()) {
    os << " vw=" << vw_codes;
  }
  if (kind == ExperimentKind::kPartitionOnly) {
    os << " " << StrategyName(strategy);
  }
  if (config.nm > 0) {
    os << " nm=" << config.nm;
  }
  if (kind == ExperimentKind::kFullCluster) {
    os << " " << cluster::PolicyName(config.allocation) << " d=" << config.sync.d;
  }
  return os.str();
}

HetPipeConfig EdLocalConfig(int d, double jitter_cv) {
  HetPipeConfig config;
  config.allocation = cluster::AllocationPolicy::kEqualDistribution;
  config.placement = wsp::PlacementPolicy::kLocal;
  config.sync = wsp::SyncPolicy::Wsp(d);
  config.jitter_cv = jitter_cv;
  // Correlated slowdowns accompany the iid jitter in the convergence and
  // wait-time studies: they are what the clock-distance threshold D absorbs.
  config.drift_cv = jitter_cv * 2.0;
  config.speed_bias_cv = jitter_cv > 0.0 ? 0.05 : 0.0;
  config.waves = 60;
  return config;
}

namespace {

ExperimentResult RunPartitionOnly(const Experiment& experiment, const hw::Cluster& cluster,
                                  const model::ModelGraph& graph) {
  ExperimentResult result;
  const model::ModelProfile profile(graph, experiment.config.batch_size);
  const partition::Partitioner partitioner(profile, cluster);
  const std::vector<int> gpu_ids = PickGpus(cluster, experiment.vw_codes);
  const int nm = std::max(1, experiment.config.nm);

  if (experiment.strategy == PartitionStrategy::kMinMaxDp) {
    partition::PartitionOptions options;
    options.nm = nm;
    options.mem_params = experiment.config.mem_params;
    options.pool = experiment.config.pool;
    result.partition = experiment.config.partition_cache != nullptr
                           ? experiment.config.partition_cache->Solve(partitioner, gpu_ids, options)
                           : partitioner.SolveScalable(gpu_ids, options);
  } else {
    const partition::NaiveSplit kind = experiment.strategy == PartitionStrategy::kEqualLayers
                                           ? partition::NaiveSplit::kEqualLayers
                                           : partition::NaiveSplit::kParamBalanced;
    result.partition = partition::BuildFixedPartition(
        profile, cluster, gpu_ids,
        partition::NaiveStageLasts(graph, static_cast<int>(gpu_ids.size()), kind), nm,
        experiment.config.mem_params);
  }
  result.feasible = !result.partition.stages.empty();

  // The ablations simulate naive splits even when they blow the memory cap;
  // `partition.feasible` still records whether every stage fits.
  if (experiment.simulate && result.feasible) {
    sim::Simulator simulator;
    pipeline::OpenGate gate;
    pipeline::VirtualWorkerOptions options;
    options.nm = nm;
    options.jitter_cv = experiment.config.jitter_cv;
    options.seed = experiment.config.seed;
    options.max_minibatches = experiment.config.waves * nm;
    pipeline::VirtualWorkerSim vw(0, simulator, result.partition, gate, options);
    vw.Start();
    simulator.Run();
    result.throughput_img_s =
        SteadyStateThroughput(vw.completion_times(), experiment.config.warmup_waves * nm,
                              experiment.config.batch_size);
  }
  return result;
}

}  // namespace

ExperimentResult RunExperiment(const Experiment& experiment) {
  const hw::Cluster cluster = experiment.cluster_spec.empty()
                                  ? hw::Cluster::PaperSubset(experiment.cluster_nodes)
                                  : hw::ClusterSpec::Parse(experiment.cluster_spec).Build();
  std::optional<model::ModelGraph> built_model;
  if (experiment.graph == nullptr) {
    built_model.emplace(BuildModel(experiment.model));
  }
  const model::ModelGraph& graph =
      experiment.graph != nullptr ? *experiment.graph : *built_model;

  ExperimentResult result;
  switch (experiment.kind) {
    case ExperimentKind::kFullCluster: {
      result.report = HetPipe(cluster, graph, experiment.config).Run();
      result.feasible = result.report.feasible;
      result.throughput_img_s = result.report.throughput_img_s;
      break;
    }
    case ExperimentKind::kSingleVirtualWorker: {
      const std::vector<int> gpu_ids = PickGpus(cluster, experiment.vw_codes);
      const int nm = std::max(1, experiment.config.nm);
      result.report =
          HetPipe::RunSingleVirtualWorker(cluster, graph, gpu_ids, nm, experiment.config);
      result.feasible = result.report.feasible;
      result.throughput_img_s = result.report.throughput_img_s;
      if (result.feasible && !result.report.vws.empty()) {
        result.partition = result.report.vws.front().partition;
      }
      break;
    }
    case ExperimentKind::kPartitionOnly: {
      result = RunPartitionOnly(experiment, cluster, graph);
      break;
    }
    case ExperimentKind::kHorovod: {
      const model::ModelProfile profile(graph, experiment.config.batch_size);
      result.horovod = dp::SimulateHorovod(cluster, profile);
      result.feasible = result.horovod.feasible;
      result.throughput_img_s = result.horovod.throughput_img_s;
      break;
    }
    case ExperimentKind::kPsDataParallel: {
      const model::ModelProfile profile(graph, experiment.config.batch_size);
      result.ps = dp::SimulatePsDataParallel(cluster, profile, experiment.ps);
      result.feasible = result.ps.feasible;
      result.throughput_img_s = result.ps.throughput_img_s;
      break;
    }
    case ExperimentKind::kAdPsgd: {
      const model::ModelProfile profile(graph, experiment.config.batch_size);
      result.adpsgd = dp::SimulateAdPsgd(cluster, profile);
      result.feasible = result.adpsgd.feasible;
      result.throughput_img_s = result.adpsgd.throughput_img_s;
      break;
    }
  }
  result.name = experiment.name.empty() ? experiment.Describe() : experiment.name;
  return result;
}

namespace {

// Runs on the caller's runner when given, else on a transient local one.
std::vector<ExperimentResult> RunOn(runner::SweepRunner* runner,
                                    const std::vector<Experiment>& experiments) {
  if (runner != nullptr) {
    return runner->Run(experiments);
  }
  runner::SweepRunner local;
  return local.Run(experiments);
}

}  // namespace

std::vector<Fig3Point> RunFig3Config(const hw::Cluster& cluster, const model::ModelGraph& graph,
                                     const std::string& codes, int nm_max,
                                     runner::SweepRunner* runner) {
  std::vector<Experiment> experiments;
  for (int nm = 1; nm <= nm_max; ++nm) {
    Experiment e;
    e.kind = ExperimentKind::kSingleVirtualWorker;
    e.UseGraph(graph).UseCluster(cluster);
    e.vw_codes = codes;
    e.config.nm = nm;
    e.config.waves = 40;
    e.config.warmup_waves = 5;
    e.config.jitter_cv = 0.0;  // Fig. 3 is a deterministic single-VW sweep
    experiments.push_back(std::move(e));
  }
  const std::vector<ExperimentResult> results = RunOn(runner, experiments);

  std::vector<Fig3Point> points;
  double base = 0.0;
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    Fig3Point point;
    point.nm = experiments[i].config.nm;
    point.feasible = r.feasible;
    if (r.feasible) {
      point.throughput_img_s = r.throughput_img_s;
      point.max_utilization = r.report.vws.front().max_stage_utilization;
      if (point.nm == 1) {
        base = r.throughput_img_s;
      }
      point.normalized = base > 0.0 ? r.throughput_img_s / base : 0.0;
    }
    points.push_back(point);
  }
  return points;
}

std::vector<Fig4Row> RunFig4(const hw::Cluster& cluster, const model::ModelGraph& graph,
                             double jitter_cv, runner::SweepRunner* runner) {
  struct PolicyRow {
    const char* label;
    cluster::AllocationPolicy allocation;
    wsp::PlacementPolicy placement;
  };
  const PolicyRow kPolicies[] = {
      {"NP", cluster::AllocationPolicy::kNodePartition, wsp::PlacementPolicy::kRoundRobin},
      {"ED", cluster::AllocationPolicy::kEqualDistribution, wsp::PlacementPolicy::kRoundRobin},
      {"ED-local", cluster::AllocationPolicy::kEqualDistribution, wsp::PlacementPolicy::kLocal},
      {"HD", cluster::AllocationPolicy::kHybridDistribution, wsp::PlacementPolicy::kRoundRobin},
  };

  std::vector<Experiment> experiments;
  {
    Experiment e;
    e.name = "Horovod";
    e.kind = ExperimentKind::kHorovod;
    e.UseGraph(graph).UseCluster(cluster);
    experiments.push_back(std::move(e));
  }
  for (const PolicyRow& policy : kPolicies) {
    Experiment e;
    e.name = policy.label;
    e.kind = ExperimentKind::kFullCluster;
    e.UseGraph(graph).UseCluster(cluster);
    e.config.allocation = policy.allocation;
    e.config.placement = policy.placement;
    e.config.sync = wsp::SyncPolicy::Wsp(0);
    e.config.jitter_cv = jitter_cv;
    e.config.waves = 40;
    experiments.push_back(std::move(e));
  }
  const std::vector<ExperimentResult> results = RunOn(runner, experiments);

  std::vector<Fig4Row> rows;
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    Fig4Row row;
    row.label = experiments[i].name;
    row.feasible = r.feasible;
    if (experiments[i].kind == ExperimentKind::kHorovod) {
      row.gpus_used = static_cast<int>(r.horovod.worker_gpus.size());
      row.throughput_img_s = r.horovod.throughput_img_s;
    } else if (r.feasible) {
      row.nm = r.report.nm;
      row.throughput_img_s = r.throughput_img_s;
      row.gpus_used = cluster.num_gpus();
    }
    rows.push_back(row);
  }
  return rows;
}

std::vector<Table4Cell> RunTable4(const model::ModelGraph& graph, double jitter_cv,
                                  runner::SweepRunner* runner) {
  const struct {
    const char* nodes;
    const char* label;
  } kSubsets[] = {
      {"V", "4 GPUs 4[V]"},
      {"VR", "8 GPUs 4[VR]"},
      {"VRQ", "12 GPUs 4[VRQ]"},
      {"VRQG", "16 GPUs 4[VRQG]"},
  };

  std::vector<Experiment> experiments;
  for (const auto& subset : kSubsets) {
    Experiment horovod;
    horovod.kind = ExperimentKind::kHorovod;
    horovod.UseGraph(graph);
    horovod.cluster_nodes = subset.nodes;
    experiments.push_back(std::move(horovod));

    Experiment hetpipe;
    hetpipe.kind = ExperimentKind::kFullCluster;
    hetpipe.UseGraph(graph);
    hetpipe.cluster_nodes = subset.nodes;
    // A single node forms one virtual worker (the paper's V4 case); multiple
    // nodes use ED with local parameter placement.
    hetpipe.config.allocation = std::string(subset.nodes).size() == 1
                                    ? cluster::AllocationPolicy::kNodePartition
                                    : cluster::AllocationPolicy::kEqualDistribution;
    hetpipe.config.placement = wsp::PlacementPolicy::kLocal;
    hetpipe.config.sync = wsp::SyncPolicy::Wsp(0);
    hetpipe.config.jitter_cv = jitter_cv;
    hetpipe.config.waves = 40;
    experiments.push_back(std::move(hetpipe));
  }
  const std::vector<ExperimentResult> results = RunOn(runner, experiments);

  std::vector<Table4Cell> cells;
  for (size_t s = 0; s < std::size(kSubsets); ++s) {
    const ExperimentResult& horovod = results[2 * s];
    const ExperimentResult& hetpipe = results[2 * s + 1];
    Table4Cell cell;
    cell.cluster_label = kSubsets[s].label;
    cell.num_gpus = hw::Cluster::PaperSubset(kSubsets[s].nodes).num_gpus();
    cell.horovod_feasible =
        horovod.horovod.feasible &&
        horovod.horovod.num_excluded == 0;  // the paper reports X otherwise
    cell.horovod_img_s = horovod.horovod.feasible ? horovod.horovod.throughput_img_s : 0.0;
    if (hetpipe.feasible) {
      cell.hetpipe_img_s = hetpipe.throughput_img_s;
      cell.total_concurrent_minibatches =
          hetpipe.report.nm * static_cast<int>(hetpipe.report.vws.size());
    }
    cells.push_back(cell);
  }
  return cells;
}

namespace {

ConvergenceSeries MakeSeries(const std::string& label, const ConvergenceModel& model,
                             double throughput, double missing_updates, double target,
                             double max_hours) {
  ConvergenceSeries series;
  series.label = label;
  series.throughput_img_s = throughput;
  series.avg_missing_updates = missing_updates;
  ConvergenceInput input;
  input.throughput_img_s = throughput;
  input.avg_missing_updates = missing_updates;
  series.hours_to_target = model.HoursToAccuracy(input, target);
  series.curve = model.Curve(input, max_hours, max_hours / 144.0);
  return series;
}

Experiment EdLocalExperiment(const std::string& name, ModelKind model,
                             const std::string& cluster_nodes, int d, double jitter_cv) {
  Experiment e;
  e.name = name;
  e.kind = ExperimentKind::kFullCluster;
  e.model = model;
  e.cluster_nodes = cluster_nodes;
  e.config = EdLocalConfig(d, jitter_cv);
  return e;
}

}  // namespace

std::vector<ConvergenceSeries> RunFig5(double jitter_cv, double target_accuracy,
                                       runner::SweepRunner* runner) {
  const ConvergenceModel model = ConvergenceModel::For(model::ModelFamily::kResNet152);
  constexpr double kMaxHours = 72.0;

  // Horovod cannot use the G GPUs (ResNet-152 exceeds their 6 GiB), so its
  // best configuration is the 12-GPU V/R/Q subset.
  std::vector<Experiment> experiments;
  {
    Experiment horovod;
    horovod.name = "Horovod (12 GPUs)";
    horovod.kind = ExperimentKind::kHorovod;
    horovod.model = ModelKind::kResNet152;
    horovod.cluster_nodes = "VRQ";
    experiments.push_back(std::move(horovod));
  }
  experiments.push_back(
      EdLocalExperiment("HetPipe (12 GPUs)", ModelKind::kResNet152, "VRQ", 0, jitter_cv));
  experiments.push_back(
      EdLocalExperiment("HetPipe (16 GPUs)", ModelKind::kResNet152, "VRGQ", 0, jitter_cv));
  const std::vector<ExperimentResult> results = RunOn(runner, experiments);

  std::vector<ConvergenceSeries> out;
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    const double staleness = experiments[i].kind == ExperimentKind::kHorovod
                                 ? 0.0
                                 : r.report.AvgMissingUpdates();
    out.push_back(MakeSeries(r.name, model, r.throughput_img_s, staleness, target_accuracy,
                             kMaxHours));
  }
  return out;
}

std::vector<ConvergenceSeries> RunFig6(double jitter_cv, double target_accuracy,
                                       runner::SweepRunner* runner) {
  const ConvergenceModel model = ConvergenceModel::For(model::ModelFamily::kVgg19);
  constexpr double kMaxHours = 144.0;

  std::vector<Experiment> experiments;
  {
    Experiment horovod;
    horovod.name = "Horovod";
    horovod.kind = ExperimentKind::kHorovod;
    horovod.model = ModelKind::kVgg19;
    experiments.push_back(std::move(horovod));
  }
  for (int d : {0, 4, 32}) {
    experiments.push_back(EdLocalExperiment("HetPipe D=" + std::to_string(d), ModelKind::kVgg19,
                                            "VRGQ", d, jitter_cv));
  }
  const std::vector<ExperimentResult> results = RunOn(runner, experiments);

  std::vector<ConvergenceSeries> out;
  for (size_t i = 0; i < results.size(); ++i) {
    const ExperimentResult& r = results[i];
    const double staleness = experiments[i].kind == ExperimentKind::kHorovod
                                 ? 0.0
                                 : r.report.AvgMissingUpdates();
    out.push_back(MakeSeries(r.name, model, r.throughput_img_s, staleness, target_accuracy,
                             kMaxHours));
  }
  return out;
}

std::vector<StalenessWaitRow> RunStalenessWaitStudy(const model::ModelGraph& graph,
                                                    const std::vector<int>& d_values,
                                                    double jitter_cv,
                                                    runner::SweepRunner* runner) {
  std::vector<Experiment> experiments;
  for (int d : d_values) {
    Experiment e = EdLocalExperiment("D=" + std::to_string(d), ModelKind::kResNet152, "VRGQ",
                                     d, jitter_cv);
    e.UseGraph(graph);
    experiments.push_back(std::move(e));
  }
  const std::vector<ExperimentResult> results = RunOn(runner, experiments);

  std::vector<StalenessWaitRow> rows;
  for (size_t i = 0; i < results.size(); ++i) {
    const HetPipeReport& report = results[i].report;
    StalenessWaitRow row;
    row.d = d_values[i];
    row.throughput_img_s = report.throughput_img_s;
    row.total_wait_s = report.total_wait_s;
    row.idle_fraction_of_wait = report.idle_fraction_of_wait;
    row.avg_clock_distance = report.avg_clock_distance;
    row.avg_global_lag_waves = report.avg_global_lag_waves;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace hetpipe::core
