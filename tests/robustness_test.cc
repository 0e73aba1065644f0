// Edge cases, failure injection, and cross-checks between the DES and the
// analytic models.
#include <gtest/gtest.h>

#include "core/hetpipe.h"
#include "dp/horovod.h"
#include "hw/cluster.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "model/transformer.h"
#include "model/vgg.h"
#include "partition/partitioner.h"
#include "pipeline/virtual_worker.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "wsp/param_server.h"

namespace hetpipe {
namespace {

// ---- Single virtual worker degenerate shapes. ----

TEST(RobustnessTest, SingleWorkerSingleMinibatch) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = 1;
  const partition::Partition partition = partitioner.SolveScalable({4}, options);
  ASSERT_TRUE(partition.feasible);

  sim::Simulator simulator;
  pipeline::OpenGate gate;
  pipeline::VirtualWorkerOptions vopt;
  vopt.nm = 1;
  vopt.max_minibatches = 1;
  pipeline::VirtualWorkerSim vw(0, simulator, partition, gate, vopt);
  vw.Start();
  simulator.Run();
  EXPECT_EQ(vw.minibatches_completed(), 1);
  EXPECT_NEAR(vw.last_completion_time(), partition.sum_time, 1e-9);
}

TEST(RobustnessTest, TwoStagePipelineFusesSecondStage) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = 2;
  const partition::Partition partition = partitioner.SolveScalable({0, 1}, options);
  ASSERT_TRUE(partition.feasible);

  sim::Simulator simulator;
  pipeline::OpenGate gate;
  pipeline::VirtualWorkerOptions vopt;
  vopt.nm = 2;
  vopt.max_minibatches = 8;
  pipeline::VirtualWorkerSim vw(0, simulator, partition, gate, vopt);
  vw.Start();
  simulator.Run();
  EXPECT_EQ(vw.minibatches_completed(), 8);
}

// The DES can never beat the analytic steady-state bounds.
TEST(RobustnessTest, DesRespectsAnalyticThroughputBounds) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  for (int nm : {1, 2, 4, 6}) {
    partition::PartitionOptions options;
    options.nm = nm;
    const partition::Partition partition = partitioner.SolveScalable({0, 4, 8, 12}, options);
    ASSERT_TRUE(partition.feasible);
    sim::Simulator simulator;
    pipeline::OpenGate gate;
    pipeline::VirtualWorkerOptions vopt;
    vopt.nm = nm;
    vopt.max_minibatches = 40 * nm;
    pipeline::VirtualWorkerSim vw(0, simulator, partition, gate, vopt);
    vw.Start();
    simulator.Run();
    const auto& t = vw.completion_times();
    const size_t warm = static_cast<size_t>(5 * nm);
    const double thr =
        static_cast<double>(t.size() - 1 - warm) * 32.0 / (t.back() - t[warm]);
    const double cap =
        32.0 / std::max(partition.bottleneck_time, partition.sum_time / nm);
    EXPECT_LE(thr, cap * 1.01) << "nm=" << nm;
    EXPECT_GE(thr, cap * 0.45) << "nm=" << nm;  // and not pathologically below
  }
}

// ---- WSP coordinator corner cases. ----

TEST(RobustnessTest, CoordinatorWithSingleVwNeverBlocks) {
  sim::Simulator simulator;
  wsp::WspCoordinatorOptions options;
  options.num_vws = 1;
  options.nm = 2;
  options.policy = wsp::SyncPolicy::Wsp(0);
  std::vector<wsp::VwCommTimes> comm(1);
  comm[0].push_s = 0.1;
  comm[0].pull_s = 0.1;
  wsp::WspCoordinator coordinator(simulator, options, comm);

  // Drive 10 waves; every injection beyond the free window must eventually
  // succeed since the only VW is itself.
  int64_t wave = 0;
  int blocked = 0;
  std::function<void()> next = [&] {
    while (wave < 10) {
      const int64_t p = wave * 2 + 1;
      if (!coordinator.RequestInjection(0, p, next)) {
        ++blocked;
        return;
      }
      const int64_t w = wave++;
      simulator.Schedule(0.5, [&, w] { coordinator.OnWaveComplete(0, w); });
      return;  // one wave in flight at a time in this driver
    }
  };
  next();
  for (int i = 0; i < 100 && wave < 10; ++i) {
    simulator.Run();
    next();
  }
  EXPECT_EQ(wave, 10);
}

TEST(RobustnessTest, HugeDNeverBlocksWithinRun) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  core::HetPipeConfig config;
  config.allocation = cluster::AllocationPolicy::kEqualDistribution;
  config.placement = wsp::PlacementPolicy::kLocal;
  config.sync = wsp::SyncPolicy::Wsp(1 << 20);
  config.waves = 15;
  const core::HetPipeReport report = core::HetPipe(cluster, graph, config).Run();
  ASSERT_TRUE(report.feasible);
  EXPECT_EQ(report.total_wait_s, 0.0);
}

TEST(RobustnessTest, AspMatchesHugeDThroughput) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  core::HetPipeConfig wsp_cfg;
  wsp_cfg.sync = wsp::SyncPolicy::Wsp(1 << 20);
  wsp_cfg.waves = 15;
  core::HetPipeConfig asp_cfg = wsp_cfg;
  asp_cfg.sync = wsp::SyncPolicy::Asp();
  const double a = core::HetPipe(cluster, graph, wsp_cfg).Run().throughput_img_s;
  const double b = core::HetPipe(cluster, graph, asp_cfg).Run().throughput_img_s;
  EXPECT_NEAR(a, b, a * 0.01);
}

TEST(RobustnessTest, ClockDistanceStaysNearDBound) {
  // With gating at threshold D, the observed clock distance can exceed D
  // only by the in-flight slack (pushes in transit), never unboundedly.
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  for (int d : {0, 2}) {
    core::HetPipeConfig config;
    config.allocation = cluster::AllocationPolicy::kEqualDistribution;
    config.placement = wsp::PlacementPolicy::kLocal;
    config.sync = wsp::SyncPolicy::Wsp(d);
    config.jitter_cv = 0.2;
    config.drift_cv = 0.3;
    config.speed_bias_cv = 0.1;
    config.waves = 30;
    const core::HetPipeReport report = core::HetPipe(cluster, graph, config).Run();
    ASSERT_TRUE(report.feasible);
    EXPECT_LE(report.avg_clock_distance, d + 2.5) << "D=" << d;
  }
}

// ---- Extreme model shapes through the whole stack. ----

TEST(RobustnessTest, TinyModelStillPartitions) {
  std::vector<model::Layer> layers;
  for (int i = 0; i < 4; ++i) {
    layers.push_back(model::MakeConv("c" + std::to_string(i), 3, 8, 8, 16, 16));
  }
  const model::ModelGraph graph("tiny", model::ModelFamily::kGeneric, std::move(layers));
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelProfile profile(graph, 4);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = 2;
  const partition::Partition partition = partitioner.SolveScalable({0, 4, 8, 12}, options);
  ASSERT_TRUE(partition.feasible);
  EXPECT_EQ(partition.num_stages(), 4);  // one layer each
}

TEST(RobustnessTest, BertLargeEndToEnd) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildBertLarge(256);
  core::HetPipeConfig config;
  config.allocation = cluster::AllocationPolicy::kEqualDistribution;
  config.placement = wsp::PlacementPolicy::kLocal;
  config.waves = 10;
  const core::HetPipeReport report = core::HetPipe(cluster, graph, config).Run();
  ASSERT_TRUE(report.feasible) << report.infeasible_reason;
  EXPECT_GT(report.throughput_img_s, 0.0);
}

TEST(RobustnessTest, HorovodInfeasibleModelReported) {
  // A model too large for even the 24 GiB TITAN RTX.
  model::TransformerConfig c;
  c.name = "30B-ish";
  c.layers = 48;
  c.hidden = 7168;
  c.ffn_hidden = 28672;
  const model::ModelGraph graph = model::BuildTransformer(c);
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelProfile profile(graph, 8);
  const dp::HorovodResult result = dp::SimulateHorovod(cluster, profile);
  EXPECT_FALSE(result.feasible);
  EXPECT_NE(result.ToString().find("infeasible"), std::string::npos);
}

// ---- Determinism under heavy stochastic load. ----

TEST(RobustnessTest, FullRunDeterministicWithAllNoiseSources) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  core::HetPipeConfig config;
  config.jitter_cv = 0.3;
  config.drift_cv = 0.3;
  config.speed_bias_cv = 0.1;
  config.seed = 777;
  config.waves = 20;
  const double a = core::HetPipe(cluster, graph, config).Run().throughput_img_s;
  const double b = core::HetPipe(cluster, graph, config).Run().throughput_img_s;
  EXPECT_DOUBLE_EQ(a, b);
  config.seed = 778;
  const double c = core::HetPipe(cluster, graph, config).Run().throughput_img_s;
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace hetpipe
