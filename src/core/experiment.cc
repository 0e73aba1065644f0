#include "core/experiment.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "runner/partition_cache.h"
#include "runner/sweep_runner.h"
#include "wsp/sync_policy.h"

namespace hetpipe::core {
namespace {

// Strict non-negative integer parse of the `what` ("count" or "node") of
// selector term `term`: the whole token must be digits, so malformed
// selector suffixes ("2junk", "0*2") fail loudly instead of silently
// truncating at the first non-digit, and overflow reports a clear error
// instead of escaping as a raw std::out_of_range.
int ParseSelectorInt(std::string_view token, const char* what, std::string_view term) {
  int value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("selector: number out of range for " + std::string(what) +
                                " in \"" + std::string(term) + "\": \"" + std::string(token) +
                                "\"");
  }
  if (ec != std::errc() || ptr != end || token.empty() || value < 0) {
    throw std::invalid_argument("selector: expected a number for " + std::string(what) +
                                " in \"" + std::string(term) + "\", got \"" +
                                std::string(token) + "\"");
  }
  return value;
}

// Picks `count` unused GPUs of `type` (on `node` unless -1), in id order;
// false when the cluster runs out of them.
bool PickByType(const hw::Cluster& cluster, hw::GpuType type, int count, int node,
                std::vector<bool>& used, std::vector<int>& picked) {
  const std::vector<hw::Gpu>& gpus = cluster.gpus();
  // Every GPU before the last one picked is used or does not match.
  size_t next = 0;
  for (int c = 0; c < count; ++c) {
    while (next < gpus.size() && (gpus[next].type != type ||
                                  (node >= 0 && gpus[next].node != node) || used[next])) {
      ++next;
    }
    if (next == gpus.size()) {
      return false;
    }
    used[next] = true;
    picked.push_back(gpus[next].id);
  }
  return true;
}

// Selectors resolve class names and code letters among the classes the
// cluster has GPUs of, in its class order.
const hw::GpuType* ClassNamed(const hw::Cluster& cluster, std::string_view name) {
  for (const hw::GpuType& type : cluster.classes()) {
    if (name == hw::SpecOf(type).name) {
      return &type;
    }
  }
  return nullptr;
}

const hw::GpuType* ClassWithCode(const hw::Cluster& cluster, char code) {
  for (const hw::GpuType& type : cluster.classes()) {
    if (code == hw::CodeOf(type)) {
      return &type;
    }
  }
  return nullptr;
}

}  // namespace

std::vector<int> PickGpus(const hw::Cluster& cluster, const std::string& selector) {
  std::vector<int> picked;
  std::vector<bool> used(static_cast<size_t>(cluster.num_gpus()), false);
  // A code string ("VVQQ") when every character is the code letter of one of
  // the cluster's classes and the selector does not name one (names win, so
  // a class called "GQ" is never shadowed by the G/Q code letters).
  const bool code_string =
      !selector.empty() && selector.find_first_of(",*@") == std::string::npos &&
      ClassNamed(cluster, selector) == nullptr &&
      std::all_of(selector.begin(), selector.end(),
                  [&](char c) { return ClassWithCode(cluster, c) != nullptr; });
  if (code_string) {
    picked.reserve(selector.size());
    for (char code : selector) {
      if (!PickByType(cluster, *ClassWithCode(cluster, code), 1, /*node=*/-1, used, picked)) {
        throw std::invalid_argument(std::string("cluster has no free GPU matching type ") + code);
      }
    }
    return picked;
  }

  const std::string_view terms = selector;
  size_t start = 0;
  while (start <= terms.size()) {
    const size_t comma = std::min(terms.find(',', start), terms.size());
    std::string_view term = terms.substr(start, comma - start);
    start = comma + 1;
    if (term.empty()) {
      continue;
    }
    int node = -1;
    const size_t at = term.find('@');
    if (at != std::string_view::npos) {
      node = ParseSelectorInt(term.substr(at + 1), "node", term);
      term = term.substr(0, at);
    }
    int count = 1;
    const size_t star = term.find('*');
    if (star != std::string_view::npos) {
      count = ParseSelectorInt(term.substr(star + 1), "count", term);
      term = term.substr(0, star);
    }
    const hw::GpuType* type = ClassNamed(cluster, term);
    if (type == nullptr && term.size() == 1) {
      type = ClassWithCode(cluster, term[0]);
    }
    if (type == nullptr) {
      throw std::invalid_argument("unknown GPU class \"" + std::string(term) + "\"");
    }
    if (count <= 0) {
      throw std::invalid_argument("selector term " + std::string(term) +
                                  " needs a positive count");
    }
    if (!PickByType(cluster, *type, count, node, used, picked)) {
      throw std::invalid_argument("cluster has no free GPU matching \"" + std::string(term) +
                                  "\"");
    }
  }
  if (picked.empty()) {
    throw std::invalid_argument("empty GPU selector");
  }
  return picked;
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

std::string Experiment::ClusterLabel() const {
  if (!cluster_label.empty()) {
    return cluster_label;
  }
  return cluster_spec.empty() ? cluster_nodes : "spec";
}

std::string Experiment::Describe() const {
  std::ostringstream os;
  os << KindName(kind) << " " << ModelName(model) << " " << ClusterLabel();
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

// The min-max partition of the virtual worker `gpu_ids` at `nm`, through the
// experiment's partition cache when it has one.
partition::Partition SolveVirtualWorker(const Experiment& experiment, const Context& context,
                                        const std::vector<int>& gpu_ids, int nm) {
  partition::PartitionOptions options;
  options.nm = nm;
  options.mem_params = experiment.config.mem_params;
  options.pool = experiment.config.pool;
  return experiment.config.partition_cache != nullptr
             ? experiment.config.partition_cache->Solve(context.partitioner, gpu_ids, options)
             : context.partitioner.SolveScalable(gpu_ids, options);
}

// Fig. 3: one virtual worker at a fixed nm, no global gate.
HetPipeReport RunSingleVirtualWorker(const Experiment& experiment, const Context& context) {
  const std::vector<int> gpu_ids = PickGpus(context.cluster, experiment.vw_codes);
  const int nm = std::max(1, experiment.config.nm);
  HetPipeReport report;
  const partition::Partition partition = SolveVirtualWorker(experiment, context, gpu_ids, nm);
  if (!partition.feasible) {
    report.infeasible_reason = "partition infeasible at Nm=" + std::to_string(nm);
    return report;
  }
  VwReport vw = SimulateOpenGate(partition, nm, experiment.config);
  vw.gpu_ids = gpu_ids;
  vw.max_nm = nm;
  report.feasible = true;
  report.nm = nm;
  report.s_local = wsp::LocalStaleness(nm);
  report.s_global = -1;
  report.throughput_img_s = vw.throughput_img_s;
  report.vws.push_back(std::move(vw));
  return report;
}

ExperimentResult RunPartitionOnly(const Experiment& experiment, const Context& context) {
  ExperimentResult result;
  const std::vector<int> gpu_ids = PickGpus(context.cluster, experiment.vw_codes);
  const int nm = std::max(1, experiment.config.nm);

  if (experiment.strategy == PartitionStrategy::kMinMaxDp) {
    result.partition = SolveVirtualWorker(experiment, context, gpu_ids, nm);
  } else {
    const partition::NaiveSplit kind = experiment.strategy == PartitionStrategy::kEqualLayers
                                           ? partition::NaiveSplit::kEqualLayers
                                           : partition::NaiveSplit::kParamBalanced;
    result.partition = partition::BuildFixedPartition(
        context.profile, context.cluster, gpu_ids,
        partition::NaiveStageLasts(context.graph, static_cast<int>(gpu_ids.size()), kind), nm,
        experiment.config.mem_params);
  }
  result.feasible = !result.partition.stages.empty();

  // The ablations simulate naive splits even when they blow the memory cap;
  // `partition.feasible` still records whether every stage fits.
  if (experiment.simulate && result.feasible) {
    result.throughput_img_s =
        SimulateOpenGate(result.partition, nm, experiment.config).throughput_img_s;
  }
  return result;
}

// The experiment's context: memoised in its partition cache when it has one.
std::shared_ptr<const Context> ContextFor(const Experiment& experiment) {
  const bool from_spec = !experiment.cluster_spec.empty();
  const ContextKey key{from_spec, from_spec ? experiment.cluster_spec : experiment.cluster_nodes,
                       experiment.model, experiment.config.batch_size};
  return experiment.config.partition_cache != nullptr
             ? experiment.config.partition_cache->GetContext(key)
             : std::make_shared<const Context>(key);
}

}  // namespace

ExperimentResult RunExperiment(const Experiment& experiment) {
  const std::shared_ptr<const Context> context = ContextFor(experiment);

  ExperimentResult result;
  switch (experiment.kind) {
    case ExperimentKind::kFullCluster: {
      result.report = HetPipe(context, experiment.config).Run();
      result.feasible = result.report.feasible;
      result.throughput_img_s = result.report.throughput_img_s;
      break;
    }
    case ExperimentKind::kSingleVirtualWorker: {
      result.report = RunSingleVirtualWorker(experiment, *context);
      result.feasible = result.report.feasible;
      result.throughput_img_s = result.report.throughput_img_s;
      if (result.feasible && !result.report.vws.empty()) {
        result.partition = result.report.vws.front().partition;
      }
      break;
    }
    case ExperimentKind::kPartitionOnly: {
      result = RunPartitionOnly(experiment, *context);
      break;
    }
    case ExperimentKind::kHorovod: {
      result.horovod = dp::SimulateHorovod(context->cluster, context->profile,
                                           experiment.config.mem_params);
      result.feasible = result.horovod.feasible;
      result.throughput_img_s = result.horovod.throughput_img_s;
      break;
    }
    case ExperimentKind::kPsDataParallel: {
      result.ps = dp::SimulatePsDataParallel(context->cluster, context->profile, experiment.ps,
                                             experiment.config.mem_params);
      result.feasible = result.ps.feasible;
      result.throughput_img_s = result.ps.throughput_img_s;
      break;
    }
    case ExperimentKind::kAdPsgd: {
      result.adpsgd = dp::SimulateAdPsgd(context->cluster, context->profile,
                                         experiment.config.mem_params);
      result.feasible = result.adpsgd.feasible;
      result.throughput_img_s = result.adpsgd.throughput_img_s;
      break;
    }
  }
  result.name = experiment.name.empty() ? experiment.Describe() : experiment.name;
  result.gpu_classes = context->cluster.declared_classes();
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

std::vector<Fig3Point> RunFig3Config(ModelKind model, const std::string& codes, int nm_max,
                                     runner::SweepRunner* runner) {
  std::vector<Experiment> experiments;
  for (int nm = 1; nm <= nm_max; ++nm) {
    Experiment e;
    e.kind = ExperimentKind::kSingleVirtualWorker;
    e.model = model;
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

std::vector<Fig4Row> RunFig4(ModelKind model, double jitter_cv, runner::SweepRunner* runner) {
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
    e.model = model;
    experiments.push_back(std::move(e));
  }
  for (const PolicyRow& policy : kPolicies) {
    Experiment e;
    e.name = policy.label;
    e.kind = ExperimentKind::kFullCluster;
    e.model = model;
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
      for (const VwReport& vw : r.report.vws) {
        row.gpus_used += static_cast<int>(vw.gpu_ids.size());
      }
    }
    rows.push_back(row);
  }
  return rows;
}

std::vector<Table4Cell> RunTable4(ModelKind model, double jitter_cv,
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
    horovod.model = model;
    horovod.cluster_nodes = subset.nodes;
    experiments.push_back(std::move(horovod));

    Experiment hetpipe;
    hetpipe.kind = ExperimentKind::kFullCluster;
    hetpipe.model = model;
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

std::vector<StalenessWaitRow> RunStalenessWaitStudy(ModelKind model,
                                                    const std::vector<int>& d_values,
                                                    double jitter_cv,
                                                    runner::SweepRunner* runner) {
  std::vector<Experiment> experiments;
  for (int d : d_values) {
    experiments.push_back(
        EdLocalExperiment("D=" + std::to_string(d), model, "VRGQ", d, jitter_cv));
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
