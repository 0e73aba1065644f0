#include "runner/sweep_runner.h"

namespace hetpipe::runner {

ResultRow RowFor(const core::Experiment& experiment, const core::ExperimentResult& result) {
  ResultRow row;
  row.Set("name", result.name)
      .Set("kind", core::KindName(experiment.kind))
      .Set("model", core::ModelName(experiment.model))
      .Set("cluster", experiment.ClusterLabel())
      .Set("feasible", result.feasible)
      .Set("throughput_img_s", result.throughput_img_s);
  if (!experiment.vw_codes.empty()) {
    row.Set("vw", experiment.vw_codes);
  }
  switch (experiment.kind) {
    case core::ExperimentKind::kFullCluster:
      row.Set("policy", cluster::PolicyName(experiment.config.allocation))
          .Set("placement",
               experiment.config.placement == wsp::PlacementPolicy::kLocal ? "local" : "rr")
          .Set("d", experiment.config.sync.d)
          .Set("nm", result.report.nm)
          .Set("num_vws", static_cast<int64_t>(result.report.vws.size()))
          .Set("s_local", result.report.s_local)
          .Set("s_global", result.report.s_global)
          .Set("total_wait_s", result.report.total_wait_s)
          .Set("idle_fraction_of_wait", result.report.idle_fraction_of_wait)
          .Set("avg_clock_distance", result.report.avg_clock_distance)
          .Set("avg_global_lag_waves", result.report.avg_global_lag_waves);
      break;
    case core::ExperimentKind::kSingleVirtualWorker:
      row.Set("nm", experiment.config.nm);
      if (result.feasible && !result.report.vws.empty()) {
        row.Set("max_utilization", result.report.vws.front().max_stage_utilization)
            .Set("bottleneck_ms", result.report.vws.front().partition.bottleneck_time * 1e3);
      }
      break;
    case core::ExperimentKind::kPartitionOnly:
      row.Set("strategy", core::StrategyName(experiment.strategy))
          .Set("nm", experiment.config.nm)
          .Set("num_stages", result.partition.num_stages())
          .Set("bottleneck_ms", result.partition.bottleneck_time * 1e3)
          .Set("round_trip_ms", result.partition.sum_time * 1e3)
          .Set("fits_memory", result.partition.feasible);
      break;
    case core::ExperimentKind::kHorovod:
      row.Set("workers", static_cast<int64_t>(result.horovod.worker_gpus.size()))
          .Set("excluded", result.horovod.num_excluded)
          .Set("iteration_s", result.horovod.iteration_s)
          .Set("exposed_comm_s", result.horovod.exposed_comm_s);
      break;
    case core::ExperimentKind::kPsDataParallel:
      row.Set("mode", experiment.ps.mode == dp::PsSyncMode::kBsp
                          ? "bsp"
                          : (experiment.ps.mode == dp::PsSyncMode::kSsp ? "ssp" : "asp"))
          .Set("workers", result.ps.num_workers)
          .Set("expected_staleness", result.ps.expected_staleness);
      break;
    case core::ExperimentKind::kAdPsgd:
      row.Set("workers", result.adpsgd.num_workers)
          .Set("expected_staleness", result.adpsgd.expected_staleness);
      break;
  }
  return row;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {
  if (options_.cache != nullptr) {
    cache_ = options_.cache;
  } else {
    owned_cache_ = std::make_unique<PartitionCache>();
    cache_ = owned_cache_.get();
  }
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
    pool_ = owned_pool_.get();
  }
}

std::vector<core::ExperimentResult> SweepRunner::Run(
    const std::vector<core::Experiment>& experiments) {
  const int64_t n = static_cast<int64_t>(experiments.size());
  std::vector<core::ExperimentResult> results(experiments.size());
  pool_->ParallelFor(n, [&](int64_t i) {
    core::Experiment experiment = experiments[static_cast<size_t>(i)];
    if (experiment.config.partition_cache == nullptr) {
      experiment.config.partition_cache = cache_;
    }
    if (experiment.config.pool == nullptr) {
      experiment.config.pool = pool_;
    }
    results[static_cast<size_t>(i)] = core::RunExperiment(experiment);
  });
  if (options_.sink != nullptr) {
    for (size_t i = 0; i < experiments.size(); ++i) {
      options_.sink->Write(RowFor(experiments[i], results[i]));
    }
    options_.sink->Flush();
  }
  return results;
}

}  // namespace hetpipe::runner
