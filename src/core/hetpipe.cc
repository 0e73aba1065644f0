#include "core/hetpipe.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "runner/partition_cache.h"
#include "sim/simulator.h"
#include "wsp/sync_policy.h"

namespace hetpipe::core {

double SteadyStateThroughput(const std::vector<sim::SimTime>& completion_times, int64_t warmup,
                             int batch_size) {
  const int64_t n = static_cast<int64_t>(completion_times.size());
  if (n <= warmup + 1) {
    return 0.0;
  }
  const double window = completion_times.back() - completion_times[static_cast<size_t>(warmup)];
  if (window <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(n - 1 - warmup) * batch_size / window;
}

namespace {

double MeasureThroughput(const pipeline::VirtualWorkerSim& vw, int64_t warmup, int batch) {
  return SteadyStateThroughput(vw.completion_times(), warmup, batch);
}

}  // namespace

double HetPipeReport::AvgMissingUpdates() const {
  const double n = static_cast<double>(vws.size());
  if (n == 0) {
    return 0.0;
  }
  const double cross_vw =
      avg_global_lag_waves * static_cast<double>(nm) * (n - 1.0) / std::max(1.0, n);
  return static_cast<double>(s_local) + cross_vw;
}

std::string HetPipeReport::Summary() const {
  std::ostringstream os;
  if (!feasible) {
    os << "infeasible: " << infeasible_reason;
    return os.str();
  }
  os << throughput_img_s << " img/s total, Nm=" << nm << ", " << vws.size() << " VWs";
  return os.str();
}

HetPipe::HetPipe(const hw::Cluster& cluster, const model::ModelGraph& graph,
                 HetPipeConfig config)
    : cluster_(&cluster), graph_(&graph), config_(std::move(config)) {}

HetPipeReport HetPipe::Run() const {
  HetPipeReport report;
  const cluster::Allocation alloc = cluster::Allocate(*cluster_, config_.allocation);
  const model::ModelProfile profile(*graph_, config_.batch_size);
  // The partitioner's DP tables live in thread-local scratch reused across
  // solves, so the Maxm probes, the Nm estimate loop, and the final solves
  // below allocate no DP state per call — neither here nor on sweep-runner
  // worker threads running many Experiments in sequence.
  const partition::Partitioner partitioner(profile, *cluster_);

  // A run revisits the same virtual-worker shapes many times (the Maxm probe,
  // the Nm estimate loop, the final solve — and under ED all VWs share one
  // shape), so even a standalone run keeps a local memo when the sweep runner
  // did not hand one down. Cache hits return exactly what a cold solve would.
  runner::PartitionCache local_cache;
  runner::PartitionCache* cache =
      config_.partition_cache != nullptr ? config_.partition_cache : &local_cache;

  partition::PartitionOptions popt;
  popt.mem_params = config_.mem_params;
  popt.pool = config_.pool;

  // Nm must be identical across virtual workers (§4): the cap is the minimum
  // Maxm (memory feasibility) over VWs...
  int nm_cap = config_.nm_cap;
  std::vector<int> max_nms;
  for (const std::vector<int>& gpus : alloc.vw_gpus) {
    const int max_nm = cache->FindMaxNm(partitioner, gpus, config_.nm_cap, popt);
    if (max_nm == 0) {
      report.infeasible_reason = "no feasible partition for a virtual worker";
      return report;
    }
    max_nms.push_back(max_nm);
    nm_cap = std::min(nm_cap, max_nm);
  }
  if (config_.nm > 0) {
    nm_cap = std::min(nm_cap, config_.nm);
  }

  // ...and within the cap Nm is "set such that performance is maximized"
  // (§8.3): pick the value with the best estimated aggregate steady-state
  // throughput. Larger Nm overlaps more minibatches but memory pressure
  // forces increasingly imbalanced partitions, so the optimum is not always
  // the cap.
  int common_nm = nm_cap;
  if (config_.nm == 0) {
    std::vector<double> estimates(static_cast<size_t>(nm_cap) + 1, -1.0);
    double best_estimate = -1.0;
    for (int nm = 1; nm <= nm_cap; ++nm) {
      partition::PartitionOptions nm_opt = popt;
      nm_opt.nm = nm;
      double estimate = 0.0;
      bool all_feasible = true;
      for (const std::vector<int>& gpus : alloc.vw_gpus) {
        const partition::Partition p = cache->Solve(partitioner, gpus, nm_opt);
        if (!p.feasible) {
          all_feasible = false;
          break;
        }
        // Steady state: latency-limited (nm in flight over a round trip) or
        // bottleneck-stage-limited, whichever binds.
        const double per_minibatch =
            std::max(p.sum_time / static_cast<double>(nm), p.bottleneck_time);
        estimate += config_.batch_size / per_minibatch;
      }
      if (all_feasible) {
        estimates[static_cast<size_t>(nm)] = estimate;
        best_estimate = std::max(best_estimate, estimate);
      }
    }
    // The analytic estimate ignores queueing slack, which favors deeper
    // pipelines: among near-ties take the largest nm.
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
    partitions.push_back(cache->Solve(partitioner, gpus, popt));
    comm.push_back(wsp::ComputePsCommTimes(partitions.back(), *cluster_, config_.placement));
  }

  sim::Simulator simulator;
  wsp::WspCoordinatorOptions wopt;
  wopt.num_vws = alloc.num_vws();
  wopt.nm = common_nm;
  wopt.policy = config_.sync;
  wsp::WspCoordinator coordinator(simulator, wopt, comm);

  std::vector<std::unique_ptr<pipeline::VirtualWorkerSim>> vws;
  for (int v = 0; v < alloc.num_vws(); ++v) {
    pipeline::VirtualWorkerOptions vopt;
    vopt.nm = common_nm;
    vopt.jitter_cv = config_.jitter_cv;
    vopt.drift_cv = config_.drift_cv;
    vopt.speed_bias_cv = config_.speed_bias_cv;
    vopt.seed = config_.seed;
    vopt.max_minibatches = config_.waves * common_nm;
    vws.push_back(std::make_unique<pipeline::VirtualWorkerSim>(
        v, simulator, partitions[static_cast<size_t>(v)], coordinator, vopt));
  }
  for (auto& vw : vws) {
    vw->Start();
  }
  simulator.Run();

  report.feasible = true;
  report.nm = common_nm;
  report.s_local = wsp::LocalStaleness(common_nm);
  report.s_global = (config_.sync.mode == wsp::SyncMode::kWsp)
                        ? wsp::GlobalStaleness(common_nm, config_.sync.d)
                        : -1;

  const int64_t warmup = config_.warmup_waves * common_nm;
  const sim::SimTime end = simulator.now();
  double total_idle = 0.0;
  for (int v = 0; v < alloc.num_vws(); ++v) {
    const auto& vw = *vws[static_cast<size_t>(v)];
    VwReport vr;
    vr.gpu_ids = alloc.vw_gpus[static_cast<size_t>(v)];
    vr.partition = partitions[static_cast<size_t>(v)];
    vr.max_nm = max_nms[static_cast<size_t>(v)];
    vr.throughput_img_s = MeasureThroughput(vw, warmup, config_.batch_size);
    const sim::SimTime warm_time =
        vw.completion_times().size() > static_cast<size_t>(warmup)
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
  report.avg_clock_distance = coordinator.clock_distance().mean();
  report.avg_global_lag_waves = coordinator.observed_lag_waves().mean();
  return report;
}

HetPipeReport HetPipe::RunSingleVirtualWorker(const hw::Cluster& cluster,
                                              const model::ModelGraph& graph,
                                              const std::vector<int>& gpu_ids, int nm,
                                              const HetPipeConfig& config) {
  HetPipeReport report;
  const model::ModelProfile profile(graph, config.batch_size);
  const partition::Partitioner partitioner(profile, cluster);

  partition::PartitionOptions popt;
  popt.nm = nm;
  popt.mem_params = config.mem_params;
  popt.pool = config.pool;
  const partition::Partition partition =
      config.partition_cache != nullptr ? config.partition_cache->Solve(partitioner, gpu_ids, popt)
                                        : partitioner.SolveScalable(gpu_ids, popt);
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
  pipeline::VirtualWorkerSim vw(0, simulator, partition, gate, vopt);
  vw.Start();
  simulator.Run();

  report.feasible = true;
  report.nm = nm;
  report.s_local = wsp::LocalStaleness(nm);
  report.s_global = -1;

  const int64_t warmup = config.warmup_waves * nm;
  VwReport vr;
  vr.gpu_ids = gpu_ids;
  vr.partition = partition;
  vr.max_nm = nm;
  vr.throughput_img_s = MeasureThroughput(vw, warmup, config.batch_size);
  const sim::SimTime warm_time = vw.completion_times().size() > static_cast<size_t>(warmup)
                                     ? vw.completion_times()[static_cast<size_t>(warmup)]
                                     : 0.0;
  vr.max_stage_utilization = vw.MaxStageUtilization(warm_time, simulator.now());
  report.throughput_img_s = vr.throughput_img_s;
  report.vws.push_back(std::move(vr));
  return report;
}

}  // namespace hetpipe::core
