#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/convergence.h"
#include "core/experiment.h"
#include "core/hetpipe.h"
#include "model/resnet.h"
#include "model/vgg.h"
#include "oracles/golden.h"
#include "runner/sweep_runner.h"

namespace hetpipe::core {
namespace {

HetPipeConfig FastConfig() {
  HetPipeConfig config;
  config.waves = 20;
  config.warmup_waves = 3;
  return config;
}

TEST(HetPipeTest, EdLocalResNetRuns) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  HetPipeConfig config = FastConfig();
  config.allocation = cluster::AllocationPolicy::kEqualDistribution;
  config.placement = wsp::PlacementPolicy::kLocal;
  const HetPipeReport report = HetPipe(cluster, graph, config).Run();
  ASSERT_TRUE(report.feasible) << report.infeasible_reason;
  EXPECT_EQ(report.vws.size(), 4u);
  EXPECT_GT(report.throughput_img_s, 0.0);
  EXPECT_GE(report.nm, 1);
  EXPECT_EQ(report.s_local, report.nm - 1);
}

TEST(HetPipeTest, NmOverrideCapsNm) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  HetPipeConfig config = FastConfig();
  config.nm = 2;
  const HetPipeReport report = HetPipe(cluster, graph, config).Run();
  ASSERT_TRUE(report.feasible);
  EXPECT_EQ(report.nm, 2);
}

TEST(HetPipeTest, NpBoundByWhimpyVirtualWorker) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  // Batch 64 makes the GGGG virtual worker's 6 GiB GPUs the binding
  // constraint, as in the paper's observation.
  HetPipeConfig np = FastConfig();
  np.batch_size = 64;
  np.allocation = cluster::AllocationPolicy::kNodePartition;
  HetPipeConfig ed = np;
  ed.allocation = cluster::AllocationPolicy::kEqualDistribution;
  const HetPipeReport np_report = HetPipe(cluster, graph, np).Run();
  const HetPipeReport ed_report = HetPipe(cluster, graph, ed).Run();
  ASSERT_TRUE(np_report.feasible);
  ASSERT_TRUE(ed_report.feasible);
  // §8.3: "With NP, training performance ... is low as Nm is bounded by the
  // virtual worker with the smallest GPU memory" (the GGGG one): the ED
  // allocation can run at least as many concurrent minibatches and is faster.
  EXPECT_LE(np_report.nm, ed_report.nm);
  EXPECT_LT(np_report.throughput_img_s, ed_report.throughput_img_s);
}

TEST(HetPipeTest, AllVwsRunAllWaves) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  HetPipeConfig config = FastConfig();
  config.placement = wsp::PlacementPolicy::kLocal;
  const HetPipeReport report = HetPipe(cluster, graph, config).Run();
  ASSERT_TRUE(report.feasible);
  for (const VwReport& vw : report.vws) {
    EXPECT_GT(vw.throughput_img_s, 0.0);
    EXPECT_GT(vw.max_stage_utilization, 0.0);
    EXPECT_LE(vw.max_stage_utilization, 1.0);
  }
}

TEST(HetPipeTest, DeterministicWithoutJitter) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  HetPipeConfig config = FastConfig();
  const double a = HetPipe(cluster, graph, config).Run().throughput_img_s;
  const double b = HetPipe(cluster, graph, config).Run().throughput_img_s;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(HetPipeTest, SingleVirtualWorkerInfeasibleNmReported) {
  Experiment e;
  e.kind = ExperimentKind::kSingleVirtualWorker;
  // GGGG at Nm=7, batch 64 exceeds the 6 GiB RTX 2060s.
  e.vw_codes = "GGGG";
  e.config = FastConfig();
  e.config.nm = 7;
  e.config.batch_size = 64;
  const ExperimentResult result = RunExperiment(e);
  EXPECT_FALSE(result.feasible);
  EXPECT_FALSE(result.report.feasible);
  EXPECT_FALSE(result.report.infeasible_reason.empty());
}

TEST(HetPipeTest, ContextMustMatchTheConfigBatch) {
  const auto context =
      std::make_shared<const Context>(ContextKey{false, "VQ", ModelKind::kResNet152, 64});
  HetPipeConfig config = FastConfig();
  EXPECT_THROW(HetPipe(context, config), std::invalid_argument);
  config.batch_size = 64;
  EXPECT_TRUE(HetPipe(context, config).Run().feasible);
}

TEST(ExperimentTest, PartitionOnlySimulationMatchesSingleVirtualWorker) {
  // Both kinds simulate the same min-max partition on an open gate, so they
  // measure the same throughput; the single-VW report adds utilization.
  Experiment single;
  single.kind = ExperimentKind::kSingleVirtualWorker;
  single.model = ModelKind::kVgg19;
  single.vw_codes = "VRGQ";
  single.config = FastConfig();
  single.config.nm = 3;
  single.config.jitter_cv = 0.1;
  Experiment partition_only = single;
  partition_only.kind = ExperimentKind::kPartitionOnly;

  const ExperimentResult a = RunExperiment(single);
  const ExperimentResult b = RunExperiment(partition_only);
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  EXPECT_GT(a.throughput_img_s, 0.0);
  EXPECT_EQ(a.throughput_img_s, b.throughput_img_s);
  EXPECT_EQ(oracles::PartitionDiff(a.partition, b.partition), "");
  ASSERT_EQ(a.report.vws.size(), 1u);
  EXPECT_EQ(a.report.vws[0].max_nm, 3);
  EXPECT_GT(a.report.vws[0].max_stage_utilization, 0.0);
  EXPECT_EQ(a.report.vws[0].wait_s, 0.0);
}

TEST(ExperimentTest, DataParallelKindsHonorConfigMemParams) {
  // With 2 GiB of framework overhead ResNet-152 no longer fits the 8 GiB
  // Quadro P4000s either: 8 of the 16 paper GPUs hold it, against 12 at the
  // default. Every data-parallel kind takes its memory parameters from the
  // config, as the HetPipe kinds do.
  Experiment e;
  e.model = ModelKind::kResNet152;
  e.config.mem_params.framework_overhead_bytes = 2ULL << 30;
  const partition::StageMemoryParams& mem = e.config.mem_params;
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, e.config.batch_size);

  e.kind = ExperimentKind::kHorovod;
  const dp::HorovodResult horovod = RunExperiment(e).horovod;
  const dp::HorovodResult horovod_direct = dp::SimulateHorovod(cluster, profile, mem);
  EXPECT_EQ(horovod.worker_gpus.size(), 8u);
  EXPECT_EQ(horovod.num_excluded, 8);
  EXPECT_EQ(horovod.worker_gpus, horovod_direct.worker_gpus);
  EXPECT_EQ(horovod.num_excluded, horovod_direct.num_excluded);
  EXPECT_EQ(horovod.compute_s, horovod_direct.compute_s);
  EXPECT_EQ(horovod.allreduce_s, horovod_direct.allreduce_s);
  EXPECT_EQ(horovod.exposed_comm_s, horovod_direct.exposed_comm_s);
  EXPECT_EQ(horovod.iteration_s, horovod_direct.iteration_s);
  EXPECT_EQ(horovod.throughput_img_s, horovod_direct.throughput_img_s);

  e.kind = ExperimentKind::kPsDataParallel;
  e.ps.mode = dp::PsSyncMode::kSsp;
  e.ps.staleness = 3;
  const dp::PsDpResult ps = RunExperiment(e).ps;
  const dp::PsDpResult ps_direct = dp::SimulatePsDataParallel(cluster, profile, e.ps, mem);
  EXPECT_EQ(ps.num_workers, 8);
  EXPECT_EQ(ps.num_excluded, ps_direct.num_excluded);
  EXPECT_EQ(ps.slowest_compute_s, ps_direct.slowest_compute_s);
  EXPECT_EQ(ps.comm_s, ps_direct.comm_s);
  EXPECT_EQ(ps.sync_overhead_s, ps_direct.sync_overhead_s);
  EXPECT_EQ(ps.throughput_img_s, ps_direct.throughput_img_s);
  EXPECT_EQ(ps.expected_staleness, ps_direct.expected_staleness);

  e.kind = ExperimentKind::kAdPsgd;
  const dp::DecentralizedResult adpsgd = RunExperiment(e).adpsgd;
  const dp::DecentralizedResult adpsgd_direct = dp::SimulateAdPsgd(cluster, profile, mem);
  EXPECT_EQ(adpsgd.num_workers, 8);
  EXPECT_EQ(adpsgd.num_excluded, adpsgd_direct.num_excluded);
  EXPECT_EQ(adpsgd.throughput_img_s, adpsgd_direct.throughput_img_s);
  EXPECT_EQ(adpsgd.avg_pairwise_comm_s, adpsgd_direct.avg_pairwise_comm_s);
  EXPECT_EQ(adpsgd.expected_staleness, adpsgd_direct.expected_staleness);
}

TEST(ExperimentTest, PickGpusByCodeString) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const auto vvqq = PickGpus(cluster, "VVQQ");
  ASSERT_EQ(vvqq.size(), 4u);
  EXPECT_EQ(cluster.gpu(vvqq[0]).type, hw::GpuType::kTitanV);
  EXPECT_EQ(cluster.gpu(vvqq[1]).type, hw::GpuType::kTitanV);
  EXPECT_NE(vvqq[0], vvqq[1]);
  EXPECT_EQ(cluster.gpu(vvqq[2]).type, hw::GpuType::kQuadroP4000);
  EXPECT_THROW(PickGpus(cluster, "VVVVV"), std::invalid_argument);
}

TEST(ExperimentTest, Fig3NormalizedStartsAtOne) {
  const auto points = RunFig3Config(ModelKind::kVgg19, "RRRR", 3);
  ASSERT_GE(points.size(), 1u);
  ASSERT_TRUE(points[0].feasible);
  EXPECT_DOUBLE_EQ(points[0].normalized, 1.0);
  if (points[1].feasible) {
    EXPECT_GT(points[1].normalized, 1.0);
  }
}

TEST(ExperimentTest, Fig3SweepSharesOneContextPerModel) {
  // Every Fig. 3 point of one model runs on the same (cluster, model, batch)
  // context, so both models' sweeps on one runner build exactly two.
  runner::SweepRunner runner(runner::SweepOptions{});
  for (ModelKind model : {ModelKind::kResNet152, ModelKind::kVgg19}) {
    for (const char* codes : {"VVVV", "VRGQ"}) {
      ASSERT_EQ(RunFig3Config(model, codes, 3, &runner).size(), 3u);
    }
  }
  EXPECT_EQ(runner.cache().contexts(), 2);
}

TEST(AccuracyCurveTest, InverseConsistency) {
  const AccuracyCurve curve = AccuracyCurve::ResNet152();
  const double epochs = curve.EpochsToAccuracy(0.74);
  EXPECT_NEAR(curve.Accuracy(epochs), 0.74, 1e-9);
  EXPECT_TRUE(std::isinf(curve.EpochsToAccuracy(0.99)));
  EXPECT_DOUBLE_EQ(curve.Accuracy(0.0), 0.0);
}

TEST(ConvergenceTest, EfficiencyDecreasesWithStaleness) {
  EXPECT_DOUBLE_EQ(StatisticalEfficiency(0.05, 0.0), 1.0);
  EXPECT_LT(StatisticalEfficiency(0.05, 10.0), 1.0);
  EXPECT_LT(StatisticalEfficiency(0.05, 20.0), StatisticalEfficiency(0.05, 10.0));
}

TEST(ConvergenceTest, VggMoreSensitiveThanResNet) {
  EXPECT_GT(StalenessSensitivity(model::ModelFamily::kVgg19),
            StalenessSensitivity(model::ModelFamily::kResNet152));
}

TEST(ConvergenceTest, HigherThroughputConvergesFaster) {
  const ConvergenceModel model = ConvergenceModel::For(model::ModelFamily::kResNet152);
  ConvergenceInput slow;
  slow.throughput_img_s = 300.0;
  ConvergenceInput fast = slow;
  fast.throughput_img_s = 600.0;
  const double t_slow = model.HoursToAccuracy(slow, 0.74);
  const double t_fast = model.HoursToAccuracy(fast, 0.74);
  EXPECT_NEAR(t_slow / t_fast, 2.0, 1e-9);
}

TEST(ConvergenceTest, StalenessSlowsConvergence) {
  const ConvergenceModel model = ConvergenceModel::For(model::ModelFamily::kVgg19);
  ConvergenceInput clean;
  clean.throughput_img_s = 600.0;
  ConvergenceInput stale = clean;
  stale.avg_missing_updates = 10.0;
  EXPECT_GT(model.HoursToAccuracy(stale, 0.67), model.HoursToAccuracy(clean, 0.67));
}

TEST(ConvergenceTest, CurveIsMonotone) {
  const ConvergenceModel model = ConvergenceModel::For(model::ModelFamily::kVgg19);
  ConvergenceInput input;
  input.throughput_img_s = 500.0;
  const sim::TimeSeries curve = model.Curve(input, 100.0, 1.0);
  ASSERT_GT(curve.size(), 10u);
  for (size_t i = 1; i < curve.points().size(); ++i) {
    EXPECT_GE(curve.points()[i].second, curve.points()[i - 1].second);
  }
}

TEST(ConfigTest, ToStringIncludesPolicy) {
  HetPipeConfig config;
  config.allocation = cluster::AllocationPolicy::kNodePartition;
  EXPECT_NE(config.ToString().find("NP"), std::string::npos);
}

}  // namespace
}  // namespace hetpipe::core
