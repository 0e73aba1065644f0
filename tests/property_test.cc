// Property-style and parameterized sweeps over the system's invariants.
#include <gtest/gtest.h>

#include <tuple>

#include "hw/cluster.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "model/vgg.h"
#include "partition/partitioner.h"
#include "pipeline/virtual_worker.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "train/regret.h"
#include "train/wsp_trainer.h"
#include "wsp/staleness.h"
#include "wsp/sync_policy.h"

namespace hetpipe {
namespace {

// ---- Partition validity over random synthetic models. ----

model::ModelGraph RandomChainModel(uint64_t seed, int layers) {
  sim::Rng rng(seed);
  std::vector<model::Layer> chain;
  int channels = 32;
  int res = 112;
  for (int i = 0; i < layers; ++i) {
    if (i % 5 == 4 && res > 7) {
      chain.push_back(model::MakePool("pool" + std::to_string(i), channels, res / 2, res / 2));
      res /= 2;
    } else {
      const int cout = channels + static_cast<int>(rng.UniformInt(0, 64));
      chain.push_back(
          model::MakeConv("conv" + std::to_string(i), 3, channels, cout, res, res));
      channels = cout;
    }
  }
  chain.push_back(model::MakeFc("fc", channels * res * res, 100));
  return model::ModelGraph("random-" + std::to_string(seed), model::ModelFamily::kGeneric,
                           std::move(chain));
}

class RandomPartitionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomPartitionTest, SolvedPartitionIsValid) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = RandomChainModel(GetParam(), 18);
  const model::ModelProfile profile(graph, 16);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = 2;
  const partition::Partition partition = partitioner.SolveScalable({0, 4, 8, 12}, options);
  if (!partition.feasible) {
    GTEST_SKIP() << "random model does not fit this VW at nm=2";
  }
  // Contiguous cover.
  int next = 0;
  double max_time = 0.0;
  for (const auto& stage : partition.stages) {
    EXPECT_EQ(stage.first_layer, next);
    EXPECT_LE(stage.first_layer, stage.last_layer);
    EXPECT_LE(stage.memory_bytes, stage.memory_cap);
    max_time = std::max(max_time, stage.TotalTime());
    next = stage.last_layer + 1;
  }
  EXPECT_EQ(next, graph.num_layers());
  EXPECT_DOUBLE_EQ(partition.bottleneck_time, max_time);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPartitionTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

// ---- Staleness-bound invariants across the (N, Nm, D) grid, on the real
// threaded trainer. ----

class StalenessGridTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(StalenessGridTest, ObservedStalenessWithinWspBound) {
  const auto [workers, nm, d] = GetParam();
  const train::Dataset data = train::MakeLinearRegression(200, 5, 0.05, 77);
  const train::LinearRegressionModel model(5);
  train::TrainerOptions options = train::WspOptions(workers, /*waves=*/40, nm, d);
  options.worker.lr = 0.02;
  options.worker.batch = 4;
  const train::TrainerResult result = train::TrainWsp(model, data, options);
  EXPECT_TRUE(result.staleness_within_bound)
      << "N=" << workers << " nm=" << nm << " d=" << d
      << " worst=" << result.worst_observed_staleness
      << " bound=" << wsp::GlobalStaleness(nm, d);
  EXPECT_EQ(result.total_minibatches, static_cast<int64_t>(workers) * 40 * nm);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StalenessGridTest,
    ::testing::Combine(::testing::Values(2, 4), ::testing::Values(1, 2, 4),
                       ::testing::Values(0, 1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      return "N" + std::to_string(std::get<0>(info.param)) + "_Nm" +
             std::to_string(std::get<1>(info.param)) + "_D" +
             std::to_string(std::get<2>(info.param));
    });

// ---- Pipeline scheduling conditions hold under jitter, for every (k, Nm). ----

class ScheduleConditionTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ScheduleConditionTest, PipelineCompletesInOrder) {
  const auto [k, nm] = GetParam();
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);

  std::vector<int> gpus;
  const int per_node[] = {0, 4, 8, 12};
  for (int i = 0; i < k; ++i) {
    gpus.push_back(per_node[i]);
  }
  partition::PartitionOptions options;
  options.nm = nm;
  const partition::Partition partition = partitioner.SolveScalable(gpus, options);
  if (!partition.feasible) {
    GTEST_SKIP();
  }

  sim::Simulator simulator;
  pipeline::OpenGate gate;
  pipeline::VirtualWorkerOptions vopt;
  vopt.nm = nm;
  vopt.jitter_cv = 0.25;
  vopt.seed = 1234;
  vopt.max_minibatches = 10 * nm;
  pipeline::VirtualWorkerSim vw(0, simulator, partition, gate, vopt);
  vw.Start();
  simulator.Run();
  // All injected minibatches complete, in order (asserted inside the VW), and
  // the completion timestamps are nondecreasing even with heavy jitter.
  EXPECT_EQ(vw.minibatches_completed(), 10 * nm);
  const auto& times = vw.completion_times();
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_GE(times[i], times[i - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ScheduleConditionTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4), ::testing::Values(1, 2, 4, 6)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_Nm" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Memory-model monotonicity properties. ----

class MemoryMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(MemoryMonotoneTest, EarlierStagesNeedMoreActivationMemory) {
  const int nm = GetParam();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  // Same layer range, earlier pipeline position -> at least as much memory.
  for (int q = 1; q < 4; ++q) {
    EXPECT_GE(partition::StageMemoryBytes(profile, 10, 20, q - 1, 4, nm),
              partition::StageMemoryBytes(profile, 10, 20, q, 4, nm));
  }
}

INSTANTIATE_TEST_SUITE_P(Nm, MemoryMonotoneTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7));

// ---- Lemma 1 arithmetic across a parameter grid. ----

class Lemma1Test : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Lemma1Test, BoundsAreConsistent) {
  const auto [nm, d, n] = GetParam();
  const int64_t sl = wsp::LocalStaleness(nm) + 1;  // paper's sl = s_local + 1
  const int64_t sg = wsp::GlobalStaleness(nm, d);
  EXPECT_GE(sg, sl - 1);  // global staleness dominates local
  EXPECT_GE(wsp::Lemma1CardinalityBound(sg, sl, n), 0);
  // min-index bound is nondecreasing in t.
  EXPECT_LE(wsp::Lemma1MinIndexBound(10, sg, sl, n), wsp::Lemma1MinIndexBound(11, sg, sl, n));
  // Theorem 1 bound is decreasing in T and increasing in staleness.
  EXPECT_GT(wsp::Theorem1RegretBound(1, 1, sg, sl, n, 100),
            wsp::Theorem1RegretBound(1, 1, sg, sl, n, 1000));
  EXPECT_LE(wsp::Theorem1RegretBound(1, 1, sg, sl, n, 100),
            wsp::Theorem1RegretBound(1, 1, sg + 5, sl, n, 100));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Lemma1Test,
    ::testing::Combine(::testing::Values(1, 2, 4, 7), ::testing::Values(0, 1, 4, 32),
                       ::testing::Values(1, 2, 4, 8)));

}  // namespace
}  // namespace hetpipe
