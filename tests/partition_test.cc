#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <utility>

#include "core/context.h"
#include "core/experiment.h"
#include "hw/cluster.h"
#include "hw/cluster_spec.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "model/transformer.h"
#include "model/vgg.h"
#include "partition/dp_scratch.h"
#include "partition/memory_model.h"
#include "partition/partitioner.h"
#include "oracles/golden.h"
#include "oracles/reference.h"
#include "runner/thread_pool.h"

namespace hetpipe::partition {

// Runs Partitioner::SolveOrder calls on one HeldPrefix, as the beam and
// hierarchical tiers do, so a test can resume one order from another's rows.
struct PartitionerTestAccess {
  static Partition SolveOrder(const Partitioner& partitioner, const std::vector<int>& order,
                              const PartitionOptions& options, double prune_above,
                              HeldPrefix* held) {
    return partitioner.SolveOrder(order.data(), static_cast<int>(order.size()), options,
                                  prune_above, held);
  }
};

namespace {

using hw::Cluster;
using hw::GpuType;
using model::BuildResNet152;
using model::BuildVgg19;
using model::ModelProfile;

TEST(InFlightTest, MatchesFig1) {
  // Fig. 1: k=4, Nm=4 — GPU1 holds all 4 minibatches, GPU4 exactly 1.
  EXPECT_EQ(InFlightAtStage(0, 4, 4), 4);
  EXPECT_EQ(InFlightAtStage(1, 4, 4), 4);  // window 5, clipped by Nm
  EXPECT_EQ(InFlightAtStage(2, 4, 4), 3);
  EXPECT_EQ(InFlightAtStage(3, 4, 4), 1);
}

TEST(InFlightTest, LastStageAlwaysOne) {
  for (int k = 1; k <= 8; ++k) {
    for (int nm = 1; nm <= 8; ++nm) {
      EXPECT_EQ(InFlightAtStage(k - 1, k, nm), 1);
    }
  }
}

TEST(InFlightTest, BoundedByNmAndWindow) {
  for (int k = 2; k <= 6; ++k) {
    for (int nm = 1; nm <= 10; ++nm) {
      for (int q = 0; q < k; ++q) {
        const int f = InFlightAtStage(q, k, nm);
        EXPECT_GE(f, 1);
        EXPECT_LE(f, nm);
        EXPECT_LE(f, 2 * (k - 1 - q) + 1);
      }
    }
  }
}

TEST(MemoryModelTest, MonotonicInNm) {
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 32);
  uint64_t prev = 0;
  for (int nm = 1; nm <= 7; ++nm) {
    const uint64_t bytes = StageMemoryBytes(profile, 0, 10, 0, 4, nm);
    EXPECT_GE(bytes, prev);
    prev = bytes;
  }
}

TEST(MemoryModelTest, WeightStashingCosts) {
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 32);
  StageMemoryParams with;
  StageMemoryParams without;
  without.stash_weights = false;
  EXPECT_GT(StageMemoryBytes(profile, 0, 20, 0, 4, 4, with),
            StageMemoryBytes(profile, 0, 20, 0, 4, 4, without));
}

TEST(MemoryModelTest, ResNetDoesNotFitRtx2060) {
  // §8.3: "ResNet-152 ... is too big to be loaded into a single GPU with G
  // type, and thus Horovod uses only 12 GPUs."
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 32);
  EXPECT_FALSE(FitsOnSingleGpu(profile, GpuType::kRtx2060));
  EXPECT_TRUE(FitsOnSingleGpu(profile, GpuType::kQuadroP4000));
  EXPECT_TRUE(FitsOnSingleGpu(profile, GpuType::kTitanV));
  EXPECT_TRUE(FitsOnSingleGpu(profile, GpuType::kTitanRtx));
}

TEST(MemoryModelTest, VggFitsEveryGpu) {
  // VGG-19 fits everywhere (Horovod uses all 16 GPUs in Fig. 4b).
  const auto graph = BuildVgg19();
  const ModelProfile profile(graph, 32);
  for (const hw::GpuSpec& spec : hw::kTable1Specs) {
    EXPECT_TRUE(FitsOnSingleGpu(profile, GpuType(&spec))) << spec.name;
  }
}

class PartitionerTest : public ::testing::Test {
 protected:
  Cluster cluster_ = Cluster::Paper();
};

// The Maxm probe over the partitioner's one solve entry point.
int FindMaxNm(const Partitioner& partitioner, const std::vector<int>& gpus, int nm_cap) {
  return FindMaxNmWith(
      [&](const PartitionOptions& at_nm) { return partitioner.SolveScalable(gpus, at_nm); },
      nm_cap, PartitionOptions{});
}

TEST_F(PartitionerTest, CoversAllLayersContiguously) {
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster_);
  PartitionOptions options;
  options.nm = 1;
  const Partition partition = partitioner.SolveScalable({0, 1, 2, 3}, options);
  ASSERT_TRUE(partition.feasible);
  ASSERT_EQ(partition.num_stages(), 4);
  int expected_first = 0;
  for (const StageAssignment& stage : partition.stages) {
    EXPECT_EQ(stage.first_layer, expected_first);
    EXPECT_LE(stage.first_layer, stage.last_layer);
    expected_first = stage.last_layer + 1;
  }
  EXPECT_EQ(expected_first, graph.num_layers());
}

TEST_F(PartitionerTest, RespectsMemoryCaps) {
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster_);
  PartitionOptions options;
  options.nm = 2;
  // The G node (6 GiB) is the tight one.
  const Partition partition = partitioner.SolveScalable({8, 9, 10, 11}, options);
  ASSERT_TRUE(partition.feasible);
  for (const StageAssignment& stage : partition.stages) {
    EXPECT_LE(stage.memory_bytes, stage.memory_cap);
  }
}

TEST_F(PartitionerTest, BottleneckIsMaxStageTime) {
  const auto graph = BuildVgg19();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster_);
  PartitionOptions options;
  options.nm = 1;
  const Partition partition = partitioner.SolveScalable({0, 4, 8, 12}, options);
  ASSERT_TRUE(partition.feasible);
  double max_time = 0.0;
  double sum_time = 0.0;
  for (const StageAssignment& stage : partition.stages) {
    max_time = std::max(max_time, stage.TotalTime());
    sum_time += stage.TotalTime();
  }
  EXPECT_DOUBLE_EQ(partition.bottleneck_time, max_time);
  EXPECT_NEAR(partition.sum_time, sum_time, 1e-12);
}

TEST_F(PartitionerTest, BalancedOnHomogeneousGpus) {
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster_);
  PartitionOptions options;
  options.nm = 1;
  const Partition partition = partitioner.SolveScalable({0, 1, 2, 3}, options);
  ASSERT_TRUE(partition.feasible);
  // On four identical GPUs the min-max split should be near 1/4 of total.
  const double ideal = partition.sum_time / 4.0;
  EXPECT_LT(partition.bottleneck_time, ideal * 1.5);
}

TEST_F(PartitionerTest, OrderSearchNotWorseThanFixedOrder) {
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster_);
  PartitionOptions searched;
  searched.nm = 2;
  searched.search_gpu_orders = true;
  PartitionOptions fixed = searched;
  fixed.search_gpu_orders = false;
  const std::vector<int> vrgq = {0, 4, 8, 12};
  const Partition best = partitioner.SolveScalable(vrgq, searched);
  const Partition plain = partitioner.SolveScalable(vrgq, fixed);
  ASSERT_TRUE(best.feasible);
  if (plain.feasible) {
    EXPECT_LE(best.bottleneck_time, plain.bottleneck_time + 1e-12);
  }
}

TEST_F(PartitionerTest, FewerStagesThanGpusOfOne) {
  const auto graph = BuildVgg19();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster_);
  PartitionOptions options;
  options.nm = 1;
  // k=1: the whole model on one R (24 GiB) GPU.
  const Partition partition = partitioner.SolveScalable({4}, options);
  ASSERT_TRUE(partition.feasible);
  EXPECT_EQ(partition.num_stages(), 1);
  EXPECT_EQ(partition.stages[0].first_layer, 0);
  EXPECT_EQ(partition.stages[0].last_layer, graph.num_layers() - 1);
}

TEST_F(PartitionerTest, FindMaxNmMonotoneFeasibility) {
  // At batch 64 the 6 GiB RTX 2060s genuinely bound the number of concurrent
  // minibatches a GGGG virtual worker can hold.
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 64);
  const Partitioner partitioner(profile, cluster_);
  const std::vector<int> gpus = {8, 9, 10, 11};  // GGGG, 6 GiB each
  const int max_nm = FindMaxNm(partitioner, gpus, 7);
  ASSERT_GT(max_nm, 0);
  ASSERT_LT(max_nm, 7);  // whimpy GPUs cannot hold 7 concurrent minibatches
  PartitionOptions options;
  for (int nm = 1; nm <= 7; ++nm) {
    options.nm = nm;
    EXPECT_EQ(partitioner.SolveScalable(gpus, options).feasible, nm <= max_nm) << nm;
  }
}

TEST_F(PartitionerTest, BiggerMemoryAllowsMoreConcurrency) {
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 64);
  const Partitioner partitioner(profile, cluster_);
  const int g_nm = FindMaxNm(partitioner, {8, 9, 10, 11}, 7);   // GGGG
  const int r_nm = FindMaxNm(partitioner, {4, 5, 6, 7}, 7);     // RRRR
  EXPECT_GT(r_nm, g_nm);
}

TEST_F(PartitionerTest, ParamBytesCoverModel) {
  const auto graph = BuildVgg19();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster_);
  PartitionOptions options;
  options.nm = 1;
  const Partition partition = partitioner.SolveScalable({0, 1, 2, 3}, options);
  ASSERT_TRUE(partition.feasible);
  uint64_t total = 0;
  for (const StageAssignment& stage : partition.stages) {
    total += stage.param_bytes;
  }
  EXPECT_EQ(total, graph.total_param_bytes());
}

TEST_F(PartitionerTest, InfeasibleWhenTooManyStages) {
  const auto graph = BuildVgg19();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster_);
  PartitionOptions options;
  options.nm = 1;
  // More stages than layers cannot work.
  std::vector<int> gpus;
  for (int i = 0; i < graph.num_layers() + 1 && i < 16; ++i) {
    gpus.push_back(i % 16);
  }
  // 16 < num_layers, so instead test empty gpu list.
  const Partition partition = partitioner.SolveScalable({}, options);
  EXPECT_FALSE(partition.feasible);
}

// ---- Prefix-sum / cumulative-table equivalence: the range queries and the
// ---- DP's combined stage-time table are bit-identical to the retained
// ---- naive loops. ----

model::ModelGraph RandomGraph(std::mt19937& rng) {
  std::uniform_int_distribution<int> num_layers(1, 40);
  std::uniform_int_distribution<int> shape(1, 64);
  std::vector<model::Layer> layers;
  const int n = num_layers(rng);
  for (int i = 0; i < n; ++i) {
    model::Layer layer;
    layer.name = "l" + std::to_string(i);
    // Irregular magnitudes: catastrophic-cancellation bait for a
    // prefix-difference implementation, which must still match the loops.
    layer.fwd_flops = static_cast<double>(shape(rng)) * shape(rng) * shape(rng) * 1e4;
    layer.param_bytes = static_cast<uint64_t>(shape(rng)) * shape(rng) * 4096;
    layer.out_bytes = static_cast<uint64_t>(shape(rng)) * 2048;
    layer.stash_bytes = layer.out_bytes + static_cast<uint64_t>(shape(rng)) * 1024;
    layers.push_back(std::move(layer));
  }
  return model::ModelGraph("random", model::ModelFamily::kGeneric, std::move(layers));
}

TEST(PrefixEquivalenceTest, RandomGraphsMatchNaiveLoopsExactly) {
  std::mt19937 rng(20260729);
  // The DP solves run on a second stream so the graph draws stay put.
  std::mt19937 solve_rng(20261020);
  const Cluster cluster = Cluster::Paper();
  int capped = 0;
  for (int round = 0; round < 25; ++round) {
    const model::ModelGraph graph = RandomGraph(rng);
    const ModelProfile profile(graph, 1 + round % 64);
    const int n = graph.num_layers();
    // Whole DP solves against the naive-loop DP. The framework overhead is
    // set so the smallest card (6 GiB) keeps 1-4x a median single layer's
    // front-stage demand: stages of heavy layers overflow it, so DP rows
    // start and end with runs of +inf cells (no memory-feasible split), and
    // the exact search's incumbent cuts more. Every value and split must
    // still match the naive loops.
    const int k = std::min(n, 3 + round % 3);
    const int nm = 1 + round % 4;
    std::vector<uint64_t> layer_need;
    for (int layer = 0; layer < n; ++layer) {
      layer_need.push_back(StageMemoryBytes(profile, layer, layer, 0, k, nm, {}));
    }
    std::nth_element(layer_need.begin(), layer_need.begin() + n / 2, layer_need.end());
    const uint64_t headroom =
        layer_need[static_cast<size_t>(n / 2)] * (1 + solve_rng() % 4u) - (500ULL << 20);
    std::vector<int> ids(16);
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), solve_rng);
    ids.resize(static_cast<size_t>(k));
    const Partitioner partitioner(profile, cluster);
    PartitionOptions options;
    options.nm = nm;
    options.strategy = SearchStrategy::kExact;
    options.mem_params.framework_overhead_bytes =
        hw::MemoryBytes(GpuType::kRtx2060) - std::min(headroom, uint64_t{5} << 30);
    const Partition reference = oracles::SolveReference(partitioner, ids, options);
    EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(ids, options), reference), "");
    PartitionOptions uncapped = options;
    uncapped.mem_params.framework_overhead_bytes = 0;
    const Partition free = oracles::SolveReference(partitioner, ids, uncapped);
    capped += free.feasible != reference.feasible ||
              free.bottleneck_time != reference.bottleneck_time;
    options.search_gpu_orders = false;
    EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(ids, options),
                                     oracles::SolveReference(partitioner, ids, options)),
              "");
    for (int first = 0; first < n; ++first) {
      for (int last = first; last < n; ++last) {
        EXPECT_EQ(graph.ParamBytesInRange(first, last),
                  oracles::ParamBytesInRangeNaive(graph, first, last));
        EXPECT_EQ(graph.StashBytesInRange(first, last),
                  oracles::StashBytesInRangeNaive(graph, first, last));
        for (GpuType gpu : cluster.classes()) {
          // EXPECT_EQ on doubles is exact equality: bit-identical, not close.
          EXPECT_EQ(profile.StageFwdTime(first, last, gpu),
                    oracles::StageFwdTimeNaive(profile, first, last, gpu));
          EXPECT_EQ(profile.StageBwdTime(first, last, gpu),
                    oracles::StageBwdTimeNaive(profile, first, last, gpu));
          EXPECT_EQ(profile.StageTotalTime(first, last, gpu),
                    oracles::StageTotalTimeNaive(profile, first, last, gpu));
          EXPECT_EQ(partitioner.TotalCumByLast(gpu)[static_cast<size_t>(last) * n + first],
                    oracles::StageTotalTimeNaive(profile, first, last, gpu));
        }
      }
    }
  }
  // The caps must change the optimum of a good share of the 25 rounds.
  EXPECT_GE(capped, 4);
}

TEST(PrefixEquivalenceTest, PaperModelsMatchNaiveLoopsExactly) {
  for (const model::ModelGraph& graph :
       {model::BuildResNet152(), model::BuildVgg19(), model::BuildBertLarge()}) {
    const ModelProfile profile(graph, 32);
    const int n = graph.num_layers();
    for (int first = 0; first < n; first += 3) {
      for (int last = first; last < n; last += 2) {
        EXPECT_EQ(profile.StageTotalTime(first, last, GpuType::kTitanV),
                  oracles::StageTotalTimeNaive(profile, first, last, GpuType::kTitanV));
        EXPECT_EQ(graph.ParamBytesInRange(first, last),
                  oracles::ParamBytesInRangeNaive(graph, first, last));
      }
    }
  }
}

TEST(PrefixEquivalenceTest, EmptyRangeIsZero) {
  const auto graph = BuildVgg19();
  const ModelProfile profile(graph, 32);
  EXPECT_EQ(profile.StageFwdTime(5, 4, GpuType::kTitanV), 0.0);
  EXPECT_EQ(graph.ParamBytesInRange(5, 4), 0u);
}

// ---- The exact tier vs the oracle's SolveReference (tests/oracles): the
// ---- flat DP, hoisted transfers, and direct multiset order enumeration must
// ---- return bit-identical partitions, including on mixed-node clusters and on
// ---- nodes whose classes interleave in GPU-id order. ----

TEST_F(PartitionerTest, SolveMatchesReferenceOnPaperShapes) {
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster_);
  for (const std::vector<int>& gpus :
       {std::vector<int>{0, 1, 2, 3}, std::vector<int>{0, 4, 8, 12},
        std::vector<int>{0, 1, 12, 13}, std::vector<int>{8, 9, 10, 11},
        std::vector<int>{4}, std::vector<int>{0, 4}}) {
    for (int nm : {1, 2, 4}) {
      PartitionOptions options;
      options.nm = nm;
      options.strategy = SearchStrategy::kExact;
      EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(gpus, options),
                                       oracles::SolveReference(partitioner, gpus, options)),
                "");
      options.search_gpu_orders = false;
      EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(gpus, options),
                                       oracles::SolveReference(partitioner, gpus, options)),
                "");
    }
  }
}

TEST(PartitionerMixedTest, SolveMatchesReferenceOnMixedNodeSpec) {
  hw::ClusterSpec spec;
  spec.Named("mixed-test");
  spec.AddGpuClass("BigCard", 9.2, 40.0, 'a').AddGpuClass("SmallCard", 2.6, 16.0, 't');
  spec.AddMixedNode({{"BigCard", 2}, {"SmallCard", 2}}).AddNode("SmallCard", 4).AddNode("V", 4);
  const Cluster cluster = spec.Build();
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster);
  for (const std::vector<int>& gpus :
       {std::vector<int>{0, 1, 2, 3}, std::vector<int>{0, 2, 4, 8},
        std::vector<int>{1, 3, 5, 9}, std::vector<int>{0, 1, 4, 5, 8, 9}}) {
    for (int nm : {1, 3}) {
      PartitionOptions options;
      options.nm = nm;
      options.strategy = SearchStrategy::kExact;
      EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(gpus, options),
                                       oracles::SolveReference(partitioner, gpus, options)),
                "");
    }
  }
}

TEST(PartitionerMixedTest, SolveMatchesReferenceWhenClassesInterleaveInIdOrder) {
  // A node laid out V, Q, V, Q: each (type, node) class's GPU ids are
  // non-contiguous, the layout that breaks naive "classes are id-ranges"
  // enumeration shortcuts. The direct multiset enumeration must still visit
  // the same distinct orders in the same sequence as the reference scan.
  const std::vector<std::vector<hw::GpuType>> node_gpus = {
      {GpuType::kTitanV, GpuType::kQuadroP4000, GpuType::kTitanV, GpuType::kQuadroP4000},
      {GpuType::kTitanRtx, GpuType::kRtx2060, GpuType::kTitanRtx, GpuType::kRtx2060},
  };
  const Cluster cluster(node_gpus, hw::PcieLink(), hw::InfinibandLink(), "interleaved");
  const auto graph = BuildVgg19();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster);
  std::mt19937 rng(7);
  std::vector<int> all_ids = {0, 1, 2, 3, 4, 5, 6, 7};
  for (int round = 0; round < 12; ++round) {
    std::shuffle(all_ids.begin(), all_ids.end(), rng);
    const int k = 2 + round % 4;
    const std::vector<int> gpus(all_ids.begin(), all_ids.begin() + k);
    PartitionOptions options;
    options.nm = 1 + round % 3;
    options.strategy = SearchStrategy::kExact;
    EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(gpus, options),
                                     oracles::SolveReference(partitioner, gpus, options)),
              "");
  }
}

// ---- The exact tier walks the class-order trie and reuses each prefix's
// ---- DP rows under an incumbent that tightens as it goes, and cuts every
// ---- subtree whose prefix has no surviving split. On clusters whose
// ---- (type, node) classes repeat, within nodes and across them, it must
// ---- still equal the unpruned per-order reference scan byte for byte,
// ---- serially and on pools of any size. ----

TEST(ExactWalkTest, MatchesReferenceOnRepeatedClassesAcrossPools) {
  runner::ThreadPool pool1(1), pool2(2), pool8(8);
  runner::ThreadPool* pools[] = {&pool1, &pool2, &pool8};
  const model::ModelGraph resnet = BuildResNet152();
  const model::ModelGraph vgg = BuildVgg19();
  const auto check = [&](const Partitioner& partitioner, const std::vector<int>& ids, int nm,
                         const std::string& label) {
    PartitionOptions options;
    options.nm = nm;
    options.strategy = SearchStrategy::kExact;
    const Partition reference = oracles::SolveReference(partitioner, ids, options);
    EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(ids, options), reference), "")
        << label;
    for (runner::ThreadPool* pool : pools) {
      options.pool = pool;
      EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(ids, options), reference), "")
          << label << " on " << pool->num_threads() << " threads";
    }
    return reference.feasible;
  };

  // Seeded clusters of 3-5 nodes with 1-3 GPUs each from four classes.
  std::mt19937 rng(20261019);
  const char* kTypes[4] = {"V", "R", "G", "Q"};
  int feasible = 0;
  int infeasible = 0;
  for (int round = 0; round < 12; ++round) {
    hw::ClusterSpec spec;
    spec.Named("walk-" + std::to_string(round));
    const int nodes = 3 + static_cast<int>(rng() % 3u);
    for (int node = 0; node < nodes; ++node) {
      spec.AddNode(kTypes[rng() % 4u], 1 + static_cast<int>(rng() % 3u));
    }
    const Cluster cluster = spec.Build();
    std::vector<int> ids(static_cast<size_t>(cluster.num_gpus()));
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(std::min(ids.size(), static_cast<size_t>(3 + round % 4)));
    const ModelProfile profile(round % 2 == 0 ? resnet : vgg, 32);
    const Partitioner partitioner(profile, cluster);
    const int nm = 1 + round % 7;
    (check(partitioner, ids, nm, "walk-" + std::to_string(round)) ? feasible : infeasible) += 1;
  }

  // Seeded racked, overridden and mixed-node clusters of two classes each,
  // so types repeat across nodes: same-type GPUs on different nodes are
  // interchangeable only when the rest of the virtual worker reaches them
  // over the same links, which racks, a link override or a node shared with
  // the other class break for some pairs and not for others.
  for (int round = 0; round < 12; ++round) {
    const char* first = kTypes[rng() % 4u];
    const char* second = kTypes[rng() % 4u];
    hw::ClusterSpec spec;
    spec.Named("walk-links-" + std::to_string(round));
    const int nodes = 4 + static_cast<int>(rng() % 2u);
    for (int node = 0; node < nodes; ++node) {
      const int count = 1 + static_cast<int>(rng() % 2u);
      if (round % 3 == 2 && node == 0) {
        spec.AddMixedNode({{first, count}, {second, count}});
      } else {
        spec.AddNode(rng() % 2u == 0 ? first : second, count);
      }
    }
    if (round % 3 == 0) {
      spec.AddRack("left", {0, 1}).AddRack("right", {2, 3}).CrossRackGbits(7.0);
    } else if (round % 3 == 1) {
      spec.OverrideLink(0, 1 + static_cast<int>(rng() % 3u), 10.0);
    }
    const Cluster cluster = spec.Build();
    std::vector<int> ids(static_cast<size_t>(cluster.num_gpus()));
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(std::min(ids.size(), static_cast<size_t>(4 + round % 3)));
    const ModelProfile profile(round % 2 == 0 ? vgg : resnet, 32);
    const Partitioner partitioner(profile, cluster);
    const int nm = 1 + round % 4;
    (check(partitioner, ids, nm, "walk-links-" + std::to_string(round)) ? feasible
                                                                         : infeasible) += 1;
  }

  // Memory-tight: a 0.75 GiB card cannot hold even ResNet-152's first layer
  // at the front of a deep pipeline, so every order that starts on it (or
  // puts it early) is cut as a whole subtree, while the back of the
  // pipeline (one minibatch in flight) still fits it.
  hw::ClusterSpec tight;
  tight.Named("walk-tight").AddGpuClass("TinyCard", 4.0, 0.75, 'n');
  tight.AddNode("TinyCard", 2).AddNode("V", 2).AddNode("Q", 1).AddNode("R", 1);
  const Cluster tight_cluster = tight.Build();
  const ModelProfile resnet_profile(resnet, 32);
  const Partitioner tight_partitioner(resnet_profile, tight_cluster);
  const uint64_t tiny_cap = hw::MemoryBytes(tight_cluster.gpu(0).type);
  for (const std::vector<int>& ids :
       {std::vector<int>{0, 1}, std::vector<int>{0, 2, 4, 5}, std::vector<int>{0, 1, 2, 3, 4},
        std::vector<int>{0, 1, 2, 3, 4, 5}}) {
    for (int nm : {1, 4, 7}) {
      const int k = static_cast<int>(ids.size());
      if (nm > 1) {
        ASSERT_GT(StageMemoryBytes(resnet_profile, 0, 0, 0, k, nm), tiny_cap)
            << "the tiny card must not fit any first stage";
      }
      (check(tight_partitioner, ids, nm, "tight k" + std::to_string(k) + " nm" +
                                             std::to_string(nm))
           ? feasible
           : infeasible) += 1;
    }
  }
  EXPECT_GE(feasible, 20);
  EXPECT_GE(infeasible, 1);
}

// ---- DpRow skips a split whose compute time alone exceeds the incumbent,
// ---- never one whose compute time ties it: a candidate equal to the
// ---- incumbent survives the cut, and its order can still win on sum time.
// ---- A zero-byte boundary makes a stage cost exactly its compute time, so
// ---- every order that runs the heavy first layer alone on a V ties the
// ---- incumbent bit for bit. Racks and a link override keep the V GPUs
// ---- apart (no two are interchangeable) and give the tied orders different
// ---- sum times. Both tiers must match the unpruned reference scan. ----

TEST(DpFrontierTest, OrdersThatTieTheIncumbentStillCompeteOnSumTime) {
  std::vector<model::Layer> layers;
  for (int i = 0; i < 8; ++i) {
    model::Layer layer;
    layer.name = "l" + std::to_string(i);
    layer.fwd_flops = i == 0 ? 4e11 : 2e9;
    layer.param_bytes = uint64_t{1} << 20;
    layer.out_bytes = i == 0 ? 0 : uint64_t{1} << 16;
    layer.stash_bytes = layer.out_bytes;
    layers.push_back(std::move(layer));
  }
  const model::ModelGraph graph("tied-front", model::ModelFamily::kGeneric, std::move(layers));
  const ModelProfile profile(graph, 32);
  hw::ClusterSpec spec;
  spec.Named("tied-front").AddNode("V").AddNode("V").AddNode("Q").AddNode("V");
  spec.AddRack("left", {0, 2}).AddRack("right", {1, 3}).CrossRackGbits(5.0);
  spec.OverrideLink(1, 3, 2.0);
  const Cluster cluster = spec.Build();
  const Partitioner partitioner(profile, cluster);
  int decided_by_sum_time = 0;
  for (const std::vector<int>& ids :
       {std::vector<int>{0, 1, 2}, std::vector<int>{0, 2, 3}, std::vector<int>{0, 1, 2, 3}}) {
    for (int nm : {1, 2}) {
      const std::string label = "k" + std::to_string(ids.size()) + " nm" + std::to_string(nm);
      PartitionOptions options;
      options.nm = nm;
      options.strategy = SearchStrategy::kExact;
      const Partition reference = oracles::SolveReference(partitioner, ids, options);
      ASSERT_TRUE(reference.feasible) << label;
      EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(ids, options), reference), "")
          << label;
      // Wide enough to keep every order: the beam's candidates then include
      // the reference's winner, and distinct sum times make it the only
      // partition that can win.
      options.strategy = SearchStrategy::kBeam;
      options.beam_width = 64;
      EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(ids, options), reference), "")
          << label << " beam";
      // The instance must really tie: the first order reaching the optimal
      // bottleneck is not the winner.
      for (const std::vector<int>& order : oracles::DistinctClassOrders(cluster, ids)) {
        const Partition solved = oracles::SolveFixedOrderReference(
            partitioner, order, options, std::numeric_limits<double>::infinity());
        if (solved.feasible && solved.bottleneck_time == reference.bottleneck_time) {
          decided_by_sum_time += solved.sum_time != reference.sum_time;
          break;
        }
      }
    }
  }
  EXPECT_GE(decided_by_sum_time, 4);
}

// ---- Siblings in the exact walk that reach the previous GPU over the same
// ---- link share one DP row, and the GPU placed last cuts row k-1 below
// ---- its first fitting split. On clusters where some siblings share a link
// ---- and others do not (two GPUs on one node reach each other over PCIe,
// ---- racks and pair overrides split the inter-node links), the exact tier
// ---- must still equal the reference scan bit for bit at nm 1-4, serially
// ---- and on pools. ----

TEST(ExactWalkTest, MatchesReferenceWhereSiblingLinksDiffer) {
  runner::ThreadPool pool2(2), pool4(4);
  runner::ThreadPool* pools[] = {&pool2, &pool4};
  const model::ModelGraph resnet = BuildResNet152();
  const model::ModelGraph vgg = BuildVgg19();
  std::mt19937 rng(20261020);
  // A 1.5 GiB card runs out of memory at the front of deep pipelines, so
  // memory cuts rows and some instances are infeasible.
  const char* kTypes[5] = {"V", "R", "G", "Q", "Small"};
  int feasible = 0;
  int infeasible = 0;
  for (int round = 0; round < 12; ++round) {
    const std::string name = "sibling-links-" + std::to_string(round);
    hw::ClusterSpec spec;
    spec.Named(name).AddGpuClass("Small", 3.0, 1.5, 's');
    // Node 0 holds two GPUs of one class (a PCIe pair); nodes 1-3 hold one
    // or two of any class.
    spec.AddNode(kTypes[rng() % 5u], 2);
    for (int node = 1; node < 4; ++node) {
      spec.AddNode(kTypes[rng() % 5u], 1 + static_cast<int>(rng() % 2u));
    }
    if (round % 2 == 0) {
      spec.AddRack("left", {0, 1}).AddRack("right", {2, 3}).CrossRackGbits(4.0 + round);
    }
    if (round % 3 != 2) {
      spec.OverrideLink(static_cast<int>(rng() % 2u), 2 + static_cast<int>(rng() % 2u),
                        2.0 + static_cast<double>(rng() % 8u));
    }
    const Cluster cluster = spec.Build();
    std::vector<int> ids(static_cast<size_t>(cluster.num_gpus()));
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(std::min(ids.size(), static_cast<size_t>(4 + round % 3)));
    const ModelProfile profile(round % 2 == 0 ? resnet : vgg, 32 << (round % 3));
    const Partitioner partitioner(profile, cluster);
    for (int nm = 1; nm <= 4; ++nm) {
      const std::string label = name + " nm" + std::to_string(nm);
      PartitionOptions options;
      options.nm = nm;
      options.strategy = SearchStrategy::kExact;
      const Partition reference = oracles::SolveReference(partitioner, ids, options);
      EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(ids, options), reference), "")
          << label;
      for (runner::ThreadPool* pool : pools) {
        options.pool = pool;
        EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(ids, options), reference), "")
            << label << " on " << pool->num_threads() << " threads";
      }
      (reference.feasible ? feasible : infeasible) += 1;
    }
  }
  EXPECT_GE(feasible, 30);
  EXPECT_GE(infeasible, 4);
}

// ---- Identical layers on GPUs of one class: nearly every split ties, so
// ---- the DP's bounded argmin scan must land on the smallest split among
// ---- tied candidates exactly as the reference's left-to-right scan does.
// ---- With zero-byte activations every transfer is 0, so a candidate can
// ---- equal its stage's compute time exactly, and alternating activation
// ---- sizes move a cell's best split left of the previous cell's: there the
// ---- scan's left steps and left stop must still take a tie. The exact and
// ---- fixed-order solves must equal the reference, stage boundaries
// ---- included. Then orders that differ from the one solved before them
// ---- only at one position, by a GPU reached over the same link, resume on
// ---- one HeldPrefix and must equal fresh solves. ----

// Layers of identical compute and parameters whose activations are
// `out_bytes`, or on odd layers `odd_out_bytes`: alternating sizes make the
// cost of a stage's transfers jump from one cell to the next, which moves a
// cell's best split left of the previous cell's.
model::ModelGraph IdenticalLayers(int n, uint64_t out_bytes, uint64_t odd_out_bytes) {
  std::vector<model::Layer> layers;
  for (int i = 0; i < n; ++i) {
    model::Layer layer;
    layer.name = "same" + std::to_string(i);
    layer.fwd_flops = 3e9;
    layer.param_bytes = uint64_t{8} << 20;
    layer.out_bytes = i % 2 == 0 ? out_bytes : odd_out_bytes;
    layer.stash_bytes = (uint64_t{1} << 18) + layer.out_bytes;
    layers.push_back(std::move(layer));
  }
  return model::ModelGraph(
      "identical-" + std::to_string(out_bytes) + "-" + std::to_string(odd_out_bytes),
      model::ModelFamily::kGeneric, std::move(layers));
}

Cluster TieCluster() {
  // Four V nodes (one a PCIe pair), two Q and an R; racks and an override
  // make some same-class GPUs reach a neighbour over different links.
  hw::ClusterSpec spec;
  spec.Named("ties").AddNode("V", 2).AddNode("V").AddNode("V").AddNode("Q").AddNode("R");
  spec.AddNode("V").AddNode("Q");
  spec.AddRack("left", {0, 1, 3, 6}).AddRack("right", {2, 4, 5}).CrossRackGbits(6.0);
  spec.OverrideLink(1, 2, 3.0);
  return spec.Build();
}

TEST(DpTieTest, IdenticalLayersMatchTheReferenceBoundariesIncluded) {
  const Cluster cluster = TieCluster();
  runner::ThreadPool pool(3);
  for (const model::ModelGraph& graph :
       {IdenticalLayers(24, uint64_t{1} << 18, uint64_t{1} << 18), IdenticalLayers(24, 0, 0),
        IdenticalLayers(24, 0, uint64_t{6} << 20)}) {
    const ModelProfile profile(graph, 32);
    const Partitioner partitioner(profile, cluster);
    int tied_cells = 0;
    for (const std::vector<int>& ids :
         {std::vector<int>{0, 1, 2}, std::vector<int>{0, 1, 2, 3}, std::vector<int>{0, 2, 3, 4},
          std::vector<int>{0, 1, 2, 3, 4, 5}}) {
      for (int nm = 1; nm <= 3; ++nm) {
        const std::string label =
            graph.name() + " k" + std::to_string(ids.size()) + " nm" + std::to_string(nm);
        PartitionOptions options;
        options.nm = nm;
        options.strategy = SearchStrategy::kExact;
        const Partition reference = oracles::SolveReference(partitioner, ids, options);
        ASSERT_TRUE(reference.feasible) << label;
        EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(ids, options), reference), "")
            << label;
        options.pool = &pool;
        EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(ids, options), reference), "")
            << label << " pooled";
        options.pool = nullptr;
        options.search_gpu_orders = false;
        for (const std::vector<int>& order : oracles::DistinctClassOrders(cluster, ids)) {
          const Partition fixed = oracles::SolveFixedOrderReference(
              partitioner, order, options, std::numeric_limits<double>::infinity());
          EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(order, options), fixed), "")
              << label << " fixed order";
          // A tie the scan must break: the first stage could end one layer
          // later at the same bottleneck.
          if (fixed.feasible && fixed.stages.size() > 1) {
            std::vector<int> lasts;
            for (const StageAssignment& stage : fixed.stages) {
              lasts.push_back(stage.last_layer);
            }
            ++lasts[0];
            if (lasts[0] < lasts[1]) {
              const Partition shifted =
                  BuildFixedPartition(profile, cluster, order, lasts, nm, options.mem_params);
              tied_cells += shifted.feasible && shifted.bottleneck_time == fixed.bottleneck_time;
            }
          }
        }
      }
    }
    EXPECT_GE(tied_cells, 5) << graph.name() << ": the instance must really tie";
  }
}

TEST(DpTieTest, ResumedOrdersOnTheSameLinkEqualFreshSolves) {
  const Cluster cluster = TieCluster();
  for (const model::ModelGraph& graph :
       {IdenticalLayers(24, uint64_t{1} << 18, uint64_t{1} << 18), IdenticalLayers(24, 0, 0),
        IdenticalLayers(24, 0, uint64_t{6} << 20), BuildResNet152()}) {
    const ModelProfile profile(graph, 32);
    const Partitioner partitioner(profile, cluster);
    const std::vector<int> base = {1, 3, 0, 4, 2};  // GPUs 5-7 start out
    const int k = static_cast<int>(base.size());
    int resumed = 0;
    for (int nm = 1; nm <= 3; ++nm) {
      PartitionOptions options;
      options.nm = nm;
      options.search_gpu_orders = false;
      // Unbounded, and under a bound that tightens to each feasible answer
      // as an incumbent does.
      for (bool tighten : {false, true}) {
        HeldPrefix held;
        double bound = std::numeric_limits<double>::infinity();
        std::vector<int> order = base;
        const auto solve = [&](const std::string& label) {
          const Partition chained =
              PartitionerTestAccess::SolveOrder(partitioner, order, options, bound, &held);
          HeldPrefix fresh_held;
          const Partition fresh =
              PartitionerTestAccess::SolveOrder(partitioner, order, options, bound, &fresh_held);
          EXPECT_EQ(oracles::PartitionDiff(chained, fresh), "") << label;
          EXPECT_EQ(oracles::PartitionDiff(chained, oracles::SolveFixedOrderReference(
                                                        partitioner, order, options, bound)),
                    "")
              << label;
          if (tighten && chained.feasible) {
            bound = chained.bottleneck_time;
          }
        };
        solve("base");
        // Swap in each GPU not in the order at each position whenever it
        // reaches the GPU before it over the link the replaced one used, and
        // back: each solve differs from the one before only at p.
        for (int p = 1; p < k; ++p) {
          const int placed = order[static_cast<size_t>(p)];
          for (int other = 0; other < cluster.num_gpus(); ++other) {
            if (std::find(order.begin(), order.end(), other) != order.end() ||
                &cluster.LinkBetween(order[static_cast<size_t>(p) - 1], other) !=
                    &cluster.LinkBetween(order[static_cast<size_t>(p) - 1], placed)) {
              continue;
            }
            const std::string label = graph.name() + " nm" + std::to_string(nm) + " p" +
                                      std::to_string(p) + " gpu " + std::to_string(other) +
                                      (tighten ? " tightening" : "");
            order[static_cast<size_t>(p)] = other;
            solve(label);
            order[static_cast<size_t>(p)] = placed;
            solve(label + " and back");
            ++resumed;
          }
        }
      }
    }
    EXPECT_GE(resumed, 12) << graph.name();
  }
}

// ---- FindMaxNm: the cap-first probe and the bisection below it must agree
// ---- with the pre-optimization downward linear scan everywhere
// ---- (feasibility is monotone in nm). ----

TEST_F(PartitionerTest, FindMaxNmMatchesLinearScan) {
  for (int batch : {32, 64}) {
    const auto graph = BuildResNet152();
    const ModelProfile profile(graph, batch);
    const Partitioner partitioner(profile, cluster_);
    for (const std::vector<int>& gpus :
         {std::vector<int>{0, 1, 2, 3}, std::vector<int>{4, 5, 6, 7},
          std::vector<int>{8, 9, 10, 11}, std::vector<int>{12, 13, 14, 15},
          std::vector<int>{0, 4, 8, 12}}) {
      for (int nm_cap : {1, 4, 7, 12}) {
        // The linear scan FindMaxNmWith replaced: nm_cap down to 1, first
        // feasible wins.
        int linear = 0;
        PartitionOptions options;
        for (int nm = nm_cap; nm >= 1; --nm) {
          options.nm = nm;
          if (partitioner.SolveScalable(gpus, options).feasible) {
            linear = nm;
            break;
          }
        }
        EXPECT_EQ(FindMaxNm(partitioner, gpus, nm_cap), linear)
            << "batch " << batch << " cap " << nm_cap;
      }
    }
  }
}

TEST(FindMaxNmWithTest, ProbesCapFirstThenBisectsBelowIt) {
  // Synthetic monotone feasibility with every threshold in [0, cap]: the
  // search must land exactly on the threshold, including the all-infeasible
  // (0) and all-feasible (cap) edges. A feasible cap costs its one probe;
  // any other threshold costs the cap probe plus a bisection of
  // [1, cap - 1], at most 1 + ceil(log2(23)) = 6 solves.
  constexpr int kCap = 23;
  for (int threshold = 0; threshold <= kCap; ++threshold) {
    std::vector<int> probed;
    const auto solve = [threshold, &probed](const PartitionOptions& options) {
      probed.push_back(options.nm);
      Partition p;
      p.feasible = options.nm <= threshold;
      return p;
    };
    EXPECT_EQ(FindMaxNmWith(solve, kCap, PartitionOptions{}), threshold);
    ASSERT_FALSE(probed.empty());
    EXPECT_EQ(probed.front(), kCap) << "threshold " << threshold;
    if (threshold == kCap) {
      EXPECT_EQ(probed.size(), 1u);
    } else {
      EXPECT_LE(probed.size(), 6u) << "threshold " << threshold;
    }
  }
  int calls = 0;
  EXPECT_EQ(FindMaxNmWith(
                [&calls](const PartitionOptions&) {
                  ++calls;
                  return Partition{};
                },
                0, PartitionOptions{}),
            0);
  EXPECT_EQ(calls, 0);
}

// ---- The thread-local DP scratch must stop allocating once warm. ----

TEST_F(PartitionerTest, RepeatedSolvesDoNotGrowScratch) {
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster_);
  const Cluster eight_nodes = Cluster::PaperSubset("VRGQVRGQ");
  const Partitioner wide(profile, eight_nodes);
  PartitionOptions options;
  options.nm = 2;
  const std::vector<int> gpus = {0, 4, 8, 12};
  const std::vector<int> six_nodes = {0, 4, 8, 12, 16, 20};  // 720 distinct orders
  const std::vector<int> doubled = {0, 1, 8, 12, 20};        // node 0 holds two stages
  // Warm this thread's scratch with the largest shape it will see.
  (void)wide.SolveScalable(six_nodes, options);
  const int64_t before = DpScratchGrowCount();
  for (int r = 0; r < 20; ++r) {
    (void)partitioner.SolveScalable(gpus, options);
    (void)partitioner.SolveScalable({0, 1, 2, 3}, options);  // smaller shape: also no growth
    (void)wide.SolveScalable(six_nodes, options);
    (void)wide.SolveScalable(doubled, options);
  }
  EXPECT_EQ(DpScratchGrowCount(), before);
}

// ---- The scalable search tier (SolveScalable / beam / hierarchical): the
// ---- selector must keep every tractable input on the exact path
// ---- bit-identically, and the approximate paths must stay within a fixed
// ---- bound of the exact optimum on randomized small instances, where the
// ---- exact enumeration is a usable oracle. ----

TEST(SearchStrategyTest, EstimateOrderCountMatchesEnumerator) {
  const Cluster cluster = Cluster::Paper();
  for (const std::vector<int>& gpus :
       {std::vector<int>{0, 1, 2, 3}, std::vector<int>{0, 4, 8, 12},
        std::vector<int>{0, 1, 12, 13}, std::vector<int>{0, 1, 4, 5, 8, 9},
        std::vector<int>{4}, std::vector<int>{0, 4, 5, 8, 9, 12}}) {
    EXPECT_EQ(EstimateOrderCount(cluster, gpus, uint64_t{1} << 62),
              oracles::DistinctClassOrders(cluster, gpus).size());
  }
  // Saturation: the count is capped, never overflowed.
  EXPECT_EQ(EstimateOrderCount(cluster, {0, 4, 8, 12}, 5), 5u);
  EXPECT_EQ(EstimateOrderCount(cluster, {0, 1, 2, 3}, 1), 1u);
  // Every cap gives min(count, cap), in any id order (the tier choice
  // compares against exact_order_limit + 1).
  for (const std::vector<int>& gpus :
       {std::vector<int>{0, 1, 4, 5, 8, 9}, std::vector<int>{12, 0, 4, 13, 8, 1, 5},
        std::vector<int>{0, 1, 2, 4, 5, 8}}) {
    const uint64_t count = oracles::DistinctClassOrders(cluster, gpus).size();
    for (uint64_t cap = 1; cap <= count + 2; ++cap) {
      EXPECT_EQ(EstimateOrderCount(cluster, gpus, cap), std::min(count, cap)) << cap;
    }
  }
  std::vector<int> all(16);
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(EstimateOrderCount(cluster, all, uint64_t{1} << 62),
            uint64_t{63063000});  // 16! / (4!)^4
}

TEST(SearchStrategyTest, SelectorKeepsTractableInputsExact) {
  const Cluster cluster = Cluster::Paper();
  PartitionOptions options;
  // Every paper-scale virtual worker is far under the exact limit.
  EXPECT_EQ(ResolveSearchStrategy(cluster, {0, 4, 8, 12}, options), SearchStrategy::kExact);
  EXPECT_EQ(ResolveSearchStrategy(cluster, {0, 1, 2, 3}, options), SearchStrategy::kExact);
  // An explicit strategy wins while there is an order search to run...
  options.strategy = SearchStrategy::kBeam;
  EXPECT_EQ(ResolveSearchStrategy(cluster, {0, 4, 8, 12}, options), SearchStrategy::kBeam);
  // ...but a fixed order has nothing to search, whatever the strategy says.
  options.search_gpu_orders = false;
  EXPECT_EQ(ResolveSearchStrategy(cluster, {0, 4, 8, 12}, options), SearchStrategy::kExact);
  options = PartitionOptions{};
  // Shrinking the exact limit pushes even a paper VW off the exact path; the
  // rack-less paper cluster resolves to the beam.
  options.exact_order_limit = 1;
  EXPECT_EQ(ResolveSearchStrategy(cluster, {0, 4, 8, 12}, options), SearchStrategy::kBeam);
}

// A small racked heterogeneous cluster: 6 single-GPU nodes over 2 racks.
Cluster RackedTestCluster() {
  hw::ClusterSpec spec;
  spec.Named("racked-6");
  spec.AddNode("V", 1).AddNode("R", 1).AddNode("G", 1);
  spec.AddNode("Q", 1).AddNode("V", 1).AddNode("R", 1);
  spec.AddRack("left", {0, 1, 2}).AddRack("right", {3, 4, 5});
  spec.CrossRackGbits(10.0);
  return spec.Build();
}

TEST(SearchStrategyTest, SelectorPicksHierarchicalAcrossRacks) {
  const Cluster cluster = RackedTestCluster();
  PartitionOptions options;
  options.exact_order_limit = 1;  // force the VW off the exact path
  // Six distinct (type, node) classes spanning both racks.
  EXPECT_EQ(ResolveSearchStrategy(cluster, {0, 1, 2, 3, 4, 5}, options),
            SearchStrategy::kHierarchical);
  // Inside one rack there is nothing to coarsen: the beam handles it.
  EXPECT_EQ(ResolveSearchStrategy(cluster, {0, 1, 2}, options), SearchStrategy::kBeam);
}

// PlanService resolves once and hands the result on as options.strategy, so
// the cache key and the solver must resolve it to itself.
TEST(SearchStrategyTest, ResolvedStrategiesResolveToThemselves) {
  const Cluster paper = Cluster::Paper();
  const Cluster racked = RackedTestCluster();
  const std::vector<std::pair<const Cluster*, std::vector<int>>> inputs = {
      {&paper, {0, 4, 8, 12}}, {&paper, {0, 1}},          {&paper, {5}},
      {&racked, {0, 1, 2, 3, 4, 5}}, {&racked, {0, 1, 2}}, {&racked, {3, 0}}};
  for (const auto& [cluster, ids] : inputs) {
    for (SearchStrategy strategy : {SearchStrategy::kAuto, SearchStrategy::kExact,
                                    SearchStrategy::kBeam, SearchStrategy::kHierarchical}) {
      for (bool search : {true, false}) {
        for (int64_t limit : {int64_t{1}, int64_t{10000}}) {
          PartitionOptions options;
          options.strategy = strategy;
          options.search_gpu_orders = search;
          options.exact_order_limit = limit;
          const SearchStrategy resolved = ResolveSearchStrategy(*cluster, ids, options);
          EXPECT_NE(resolved, SearchStrategy::kAuto);
          options.strategy = resolved;
          EXPECT_EQ(ResolveSearchStrategy(*cluster, ids, options), resolved)
              << SearchStrategyName(strategy) << " search=" << search << " limit=" << limit;
        }
      }
    }
  }
}

TEST_F(PartitionerTest, SolveScalableAutoIsBitIdenticalToExact) {
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster_);
  for (const std::vector<int>& gpus :
       {std::vector<int>{0, 1, 2, 3}, std::vector<int>{0, 4, 8, 12},
        std::vector<int>{0, 1, 12, 13}, std::vector<int>{4}}) {
    for (int nm : {1, 2, 4}) {
      PartitionOptions options;
      options.nm = nm;
      // kAuto resolves to the exact tier here, bit for bit.
      ASSERT_EQ(ResolveSearchStrategy(cluster_, gpus, options), SearchStrategy::kExact);
      PartitionOptions exact = options;
      exact.strategy = SearchStrategy::kExact;
      EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(gpus, options),
                                       partitioner.SolveScalable(gpus, exact)),
                "");
    }
  }
}

TEST(SearchScalableTest, BeamAnswerIsIndependentOfEarlierSpecs) {
  // GPU classes belong to their cluster, so what the process built before
  // cannot change a spec's class order, codes or answers. X and Y have equal
  // numbers, so only the class order (first use in the node list) breaks
  // their ties. A spec that uses Y before X comes first; then the X/Y spec
  // must answer exactly like the same spec over names no spec used before.
  hw::ClusterSpec::Parse("gpu Y tflops=4 mem=16; gpu X tflops=4 mem=16; node 2xY; node 2xX")
      .Build();
  const auto six_nodes = [](const std::string& x, const std::string& y) {
    std::string text = "gpu " + x + " tflops=4 mem=16; gpu " + y + " tflops=4 mem=16";
    for (int pair = 0; pair < 3; ++pair) {
      text += "; node 2x" + x + "; node 2x" + y;
    }
    return hw::ClusterSpec::Parse(text).Build();
  };
  const Cluster seen = six_nodes("X", "Y");
  const Cluster fresh = six_nodes("X2", "Y2");
  for (const Cluster* cluster : {&seen, &fresh}) {
    ASSERT_EQ(cluster->classes().size(), 2u);
    EXPECT_EQ(hw::CodeOf(cluster->classes()[0]), 'a');
    EXPECT_EQ(hw::CodeOf(cluster->classes()[1]), 'b');
  }
  EXPECT_EQ(core::PickGpus(seen, "ab"), core::PickGpus(fresh, "ab"));

  PartitionOptions options;
  options.nm = 2;
  options.strategy = SearchStrategy::kBeam;
  options.beam_width = 2;
  const std::vector<int> vw = {0, 2, 4, 6, 8, 10};
  for (const model::ModelGraph& graph : {BuildResNet152(), BuildVgg19()}) {
    const ModelProfile profile(graph, 32);
    const Partition a = Partitioner(profile, seen).SolveScalable(vw, options);
    const Partition b = Partitioner(profile, fresh).SolveScalable(vw, options);
    ASSERT_TRUE(a.feasible) << graph.name();
    // Signatures name stage classes by code, so X/X2 and Y/Y2 map to a/b.
    EXPECT_EQ(oracles::PartitionSignature(a, nullptr), oracles::PartitionSignature(b, nullptr))
        << graph.name();
  }
}

TEST(SearchScalableTest, BeamAndHierarchicalInvariantUnderIdPermutation) {
  // The partition cache remaps hits onto any gpu-id set with the same
  // (type, node) multiset, which is only sound if the scalable searches are
  // id-permutation invariant. The racked cluster's two V nodes and two R
  // nodes make the multiset nontrivial.
  const Cluster cluster = RackedTestCluster();
  const auto graph = BuildVgg19();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster);
  for (SearchStrategy strategy : {SearchStrategy::kBeam, SearchStrategy::kHierarchical}) {
    PartitionOptions options;
    options.strategy = strategy;
    const std::vector<int> ids = {0, 1, 2, 3, 4, 5};
    std::vector<int> shuffled = {5, 2, 0, 4, 1, 3};
    EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(shuffled, options),
                                     partitioner.SolveScalable(ids, options)),
              "");
  }
}

TEST(SearchOracleTest, RandomSmallInstancesStayWithinBoundOfExact) {
  // Property test against the exact oracle: on seeded random clusters and
  // models small enough for exact enumeration (k <= 6), the approximate
  // searches must (a) never claim feasibility the exact search refutes,
  // (b) never report a bottleneck below the optimum, and (c) stay within
  // kBound of it. The run is fully deterministic (fixed seed, deterministic
  // searches), so these bounds are pinned, not flaky.
  constexpr double kBound = 1.25;
  std::mt19937 rng(20260807);
  std::uniform_int_distribution<int> node_count(3, 6);
  std::uniform_int_distribution<int> gpus_per_node(1, 2);
  std::uniform_int_distribution<int> type_pick(0, 3);
  const char* kTypes[4] = {"V", "R", "G", "Q"};
  int solved_rounds = 0;
  double worst_ratio = 1.0;
  for (int round = 0; round < 40; ++round) {
    hw::ClusterSpec spec;
    spec.Named("oracle-" + std::to_string(round));
    const int nodes = node_count(rng);
    for (int node = 0; node < nodes; ++node) {
      spec.AddNode(kTypes[type_pick(rng)], gpus_per_node(rng));
    }
    const int split = 1 + static_cast<int>(rng() % static_cast<unsigned>(nodes - 1));
    std::vector<int> left, right;
    for (int node = 0; node < nodes; ++node) {
      (node < split ? left : right).push_back(node);
    }
    spec.AddRack("left", left).AddRack("right", right).CrossRackGbits(7.0);
    const Cluster cluster = spec.Build();

    const model::ModelGraph graph = RandomGraph(rng);
    const ModelProfile profile(graph, 1 + round % 32);
    const Partitioner partitioner(profile, cluster);

    std::vector<int> ids(static_cast<size_t>(cluster.num_gpus()));
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), rng);
    const int k = 2 + round % 5;  // 2..6
    if (graph.num_layers() < k || cluster.num_gpus() < k) {
      continue;
    }
    ids.resize(static_cast<size_t>(k));

    PartitionOptions options;
    options.nm = 1 + round % 3;
    options.strategy = SearchStrategy::kExact;
    const Partition exact = partitioner.SolveScalable(ids, options);
    for (SearchStrategy strategy : {SearchStrategy::kBeam, SearchStrategy::kHierarchical}) {
      PartitionOptions approx_options = options;
      approx_options.strategy = strategy;
      const Partition approx = partitioner.SolveScalable(ids, approx_options);
      if (!exact.feasible) {
        // The approximate searches evaluate a subset of the orders the exact
        // search proves infeasible, so they can never do "better".
        EXPECT_FALSE(approx.feasible) << "round " << round;
        continue;
      }
      ASSERT_TRUE(approx.feasible)
          << "round " << round << ": " << SearchStrategyName(strategy)
          << " missed a feasible instance the exact search solves";
      EXPECT_GE(approx.bottleneck_time, exact.bottleneck_time - 1e-12) << "round " << round;
      EXPECT_LE(approx.bottleneck_time, exact.bottleneck_time * kBound)
          << "round " << round << ": " << SearchStrategyName(strategy);
      worst_ratio = std::max(worst_ratio, approx.bottleneck_time / exact.bottleneck_time);
      ++solved_rounds;
    }
  }
  // The grid must actually exercise the oracle (guards against silently
  // skipping every round).
  EXPECT_GE(solved_rounds, 30);
  RecordProperty("worst_ratio", std::to_string(worst_ratio));
}

// ---- Parallel search determinism. The searches reduce candidates in input
// ---- index order and bound pruning with strict comparisons, so a solve on a
// ---- thread pool of any size must return the same bytes as the serial one.

TEST(SearchStrategyTest, ResolutionIsPoolIndependent) {
  // The partition cache derives its keys from the RESOLVED strategy, so
  // resolution must never read options.pool — otherwise the same query could
  // map to different cache entries depending on who carries a pool.
  const Cluster cluster = RackedTestCluster();
  runner::ThreadPool pool(2);
  for (const std::vector<int>& ids :
       {std::vector<int>{0, 1, 2, 3, 4, 5}, std::vector<int>{0, 1, 2}, std::vector<int>{0}}) {
    for (int64_t limit : {int64_t{1}, int64_t{10000}}) {
      for (SearchStrategy strategy : {SearchStrategy::kAuto, SearchStrategy::kBeam}) {
        PartitionOptions serial;
        serial.exact_order_limit = limit;
        serial.strategy = strategy;
        PartitionOptions pooled = serial;
        pooled.pool = &pool;
        EXPECT_EQ(ResolveSearchStrategy(cluster, ids, serial),
                  ResolveSearchStrategy(cluster, ids, pooled));
      }
    }
  }
}

// The seeded racked instances of the parallel-determinism and golden tests.
// Round r draws a 3-6 node cluster split over two racks, a random model, and
// a shuffled virtual worker of 3 + r % 4 GPUs; `body` sees every round whose
// draw can host that many stages (the rng is consumed identically either way).
void ForEachRackedInstance(
    const std::function<void(int, const Cluster&, const model::ModelGraph&,
                             const std::vector<int>&)>& body) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> node_count(3, 6);
  std::uniform_int_distribution<int> type_pick(0, 3);
  const char* kTypes[4] = {"V", "R", "G", "Q"};
  for (int round = 0; round < 8; ++round) {
    hw::ClusterSpec spec;
    spec.Named("parallel-" + std::to_string(round));
    const int nodes = node_count(rng);
    for (int node = 0; node < nodes; ++node) {
      spec.AddNode(kTypes[type_pick(rng)], 1 + static_cast<int>(rng() % 2u));
    }
    const int split = 1 + static_cast<int>(rng() % static_cast<unsigned>(nodes - 1));
    std::vector<int> left, right;
    for (int node = 0; node < nodes; ++node) {
      (node < split ? left : right).push_back(node);
    }
    spec.AddRack("left", left).AddRack("right", right).CrossRackGbits(7.0);
    const Cluster cluster = spec.Build();

    const model::ModelGraph graph = RandomGraph(rng);
    std::vector<int> ids(static_cast<size_t>(cluster.num_gpus()));
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), rng);
    const int k = 3 + round % 4;  // 3..6
    if (graph.num_layers() < k || cluster.num_gpus() < k) {
      continue;
    }
    ids.resize(static_cast<size_t>(k));
    body(round, cluster, graph, ids);
  }
}

TEST(SearchParallelTest, SolvesAreByteIdenticalAcrossThreadCounts) {
  // Seeded random racked clusters: every strategy solved serially and on
  // pools of 1, 2, and 8 threads must agree field-for-field AND byte-for-byte
  // in the rendered partition — bit-identity, not tolerance.
  runner::ThreadPool pool1(1), pool2(2), pool8(8);
  runner::ThreadPool* pools[] = {&pool1, &pool2, &pool8};
  int solved_rounds = 0;
  ForEachRackedInstance([&](int round, const Cluster& cluster, const model::ModelGraph& graph,
                            const std::vector<int>& ids) {
    const ModelProfile profile(graph, 1 + round % 32);
    const Partitioner partitioner(profile, cluster);
    for (SearchStrategy strategy :
         {SearchStrategy::kExact, SearchStrategy::kBeam, SearchStrategy::kHierarchical}) {
      PartitionOptions options;
      options.nm = 1 + round % 3;
      options.strategy = strategy;
      const Partition serial = partitioner.SolveScalable(ids, options);
      const std::string serial_bytes =
          serial.feasible ? serial.ToString(profile) : "infeasible";
      for (runner::ThreadPool* pool : pools) {
        PartitionOptions pooled = options;
        pooled.pool = pool;
        const Partition parallel = partitioner.SolveScalable(ids, pooled);
        EXPECT_EQ(oracles::PartitionDiff(parallel, serial), "");
        EXPECT_EQ(parallel.feasible ? parallel.ToString(profile) : "infeasible",
                  serial_bytes)
            << "round " << round << ": " << SearchStrategyName(strategy) << " on "
            << pool->num_threads() << " threads";
      }
      ++solved_rounds;
    }
  });
  EXPECT_GE(solved_rounds, 15);  // the grid must actually run
}

// ---- The partitioner solve grid (tests/oracles): 81 exact-tier solves,
// ---- the points bench/partitioner_speed times, pinned one `key \t
// ---- signature` line each in tests/golden/partitioner_solves.txt and
// ---- checked against the oracle's SolveReference.

TEST(SolveGridGoldenTest, ExactSolvesMatchRecordedSolvesAndTheReference) {
  const Cluster paper = oracles::SolveGridCluster("paper");
  const Cluster mixed = oracles::SolveGridCluster("mixed-3node");
  oracles::GoldenLines lines;
  for (const oracles::SolveGridPoint& point : oracles::SolveGrid()) {
    const Cluster& cluster = point.cluster == "paper" ? paper : mixed;
    const model::ModelGraph graph = core::BuildModel(core::ParseModelKind(point.model));
    const ModelProfile profile(graph, oracles::kSolveGridBatch);
    const Partitioner partitioner(profile, cluster);
    const std::vector<int> ids = core::PickGpus(cluster, point.vw);
    PartitionOptions options;
    options.nm = point.nm;
    options.strategy = SearchStrategy::kExact;
    const Partition solved = partitioner.SolveScalable(ids, options);
    EXPECT_EQ(oracles::PartitionDiff(solved,
                                     oracles::SolveReference(partitioner, ids, options)),
              "")
        << point.Key();
    lines.push_back(point.Key() + '\t' + oracles::PartitionSignature(solved));
  }
  ASSERT_EQ(lines.size(), 81u);
  EXPECT_EQ(oracles::CheckGolden("partitioner_solves.txt",
                                 "Exact-tier solves of the partitioner solve grid: key \\t "
                                 "signature.\n"
                                 "Regenerate with: UPDATE_GOLDEN=1 ./partition_test",
                                 lines),
            "");
}

// ---- Pinned outputs of the approximate tiers. At these sizes the beam and
// ---- hierarchical searches have no exact oracle, so their answers are
// ---- pinned: tests/golden/scalable_solves.txt holds one `key \t signature`
// ---- line per (instance, model, strategy, nm), in the signature format of
// ---- tests/golden/partitioner_solves.txt followed by the rendered
// ---- ToString. `UPDATE_GOLDEN=1 ./partition_test` rewrites the file.

// The 8-node x 4-GPU clusters behind the serve benchmark's large plan
// requests: four classes cycling over the nodes, either racked in pairs
// (12-16 GPU virtual workers resolve to the hierarchical tier) or flat
// (they resolve to the beam). `racks` of 8 puts every node in a rack of its
// own. The explicit codes are what the rendered signatures print.
Cluster PlanBenchCluster(int racks) {
  hw::ClusterSpec spec;
  spec.Named(racks == 0   ? std::string("bench-flat")
             : racks == 4 ? std::string("bench-racked")
                          : "bench-" + std::to_string(racks) + "rack")
      .AddGpuClass("BenchV", 14.0, 12.0, 'w')
      .AddGpuClass("BenchR", 16.3, 24.0, 'x')
      .AddGpuClass("BenchG", 11.3, 8.0, 'y')
      .AddGpuClass("BenchQ", 5.3, 32.0, 'z');
  const char* kClasses[4] = {"BenchV", "BenchR", "BenchG", "BenchQ"};
  for (int node = 0; node < 8; ++node) {
    spec.AddNode(kClasses[node % 4], 4);
  }
  if (racks > 0) {
    const int per_rack = 8 / racks;
    for (int rack = 0; rack < racks; ++rack) {
      std::vector<int> nodes(static_cast<size_t>(per_rack));
      std::iota(nodes.begin(), nodes.end(), rack * per_rack);
      spec.AddRack("rack" + std::to_string(rack), nodes);
    }
    spec.CrossRackGbits(5.0);
  }
  return spec.Build();
}

// The ids of a PlanBenchCluster virtual worker with per_node[i] GPUs on node
// i, and the per-node counts as a key ("13124202").
std::vector<int> PlanBenchIds(const std::vector<int>& per_node, std::string* counts) {
  std::vector<int> ids;
  counts->clear();
  for (int node = 0; node < 8; ++node) {
    *counts += static_cast<char>('0' + per_node[static_cast<size_t>(node)]);
    for (int slot = 0; slot < per_node[static_cast<size_t>(node)]; ++slot) {
      ids.push_back(node * 4 + slot);
    }
  }
  return ids;
}

// Per-node GPU counts of a PlanBenchCluster virtual worker the way the
// large plan requests place one: `total` GPUs on random nodes, at most four
// per node.
std::vector<int> DrawPerNode(std::mt19937& rng, int total) {
  std::vector<int> per_node(8, 0);
  for (int placed = 0; placed < total;) {
    const size_t node = rng() % 8u;
    if (per_node[node] < 4) {
      ++per_node[node];
      ++placed;
    }
  }
  return per_node;
}

// Every golden line, in a fixed order.
oracles::GoldenLines ScalableGoldenLines() {
  oracles::GoldenLines lines;
  const std::pair<SearchStrategy, const char*> kStrategies[] = {
      {SearchStrategy::kAuto, "auto"},
      {SearchStrategy::kBeam, "beam"},
      {SearchStrategy::kHierarchical, "hierarchical"}};
  const auto solve_all = [&](const std::string& prefix, const ModelProfile& profile,
                             const Partitioner& partitioner, const std::vector<int>& ids,
                             const std::vector<int>& nms) {
    for (const auto& [strategy, name] : kStrategies) {
      for (int nm : nms) {
        PartitionOptions options;
        options.nm = nm;
        options.strategy = strategy;
        const Partition solved = partitioner.SolveScalable(ids, options);
        lines.push_back(prefix + "|" + name + "|nm" + std::to_string(nm) + '\t' +
                        oracles::PartitionSignature(solved, &profile));
      }
    }
  };

  // 12-16 GPU virtual workers drawn like the large plan requests.
  const Cluster racked = PlanBenchCluster(4);
  const Cluster flat = PlanBenchCluster(0);
  const model::ModelGraph resnet = BuildResNet152();
  const model::ModelGraph vgg = BuildVgg19();
  std::mt19937 rng(20261017);
  std::vector<std::vector<int>> shapes;
  for (int draw = 0; draw < 4; ++draw) {
    shapes.push_back(DrawPerNode(rng, 12 + static_cast<int>(rng() % 5u)));
  }
  for (const auto& [label, graph] :
       {std::pair<const char*, const model::ModelGraph*>{"resnet152", &resnet},
        std::pair<const char*, const model::ModelGraph*>{"vgg19", &vgg}}) {
    const ModelProfile profile(*graph, 32);
    for (const Cluster* cluster : {&racked, &flat}) {
      const Partitioner partitioner(profile, *cluster);
      for (const std::vector<int>& per_node : shapes) {
        std::string counts;
        const std::vector<int> ids = PlanBenchIds(per_node, &counts);
        solve_all(cluster->name() + "|" + label + "|" + counts, profile, partitioner, ids,
                  {1, 2});
      }
    }
  }

  // The seeded racked instances, on their random model and on both paper
  // models.
  ForEachRackedInstance([&](int round, const Cluster& cluster, const model::ModelGraph& graph,
                            const std::vector<int>& ids) {
    const std::string prefix = "parallel-" + std::to_string(round) + "|";
    const ModelProfile random_profile(graph, 1 + round % 32);
    solve_all(prefix + "random", random_profile, Partitioner(random_profile, cluster), ids,
              {1 + round % 3});
    for (const auto& [label, named] :
         {std::pair<const char*, const model::ModelGraph*>{"resnet152", &resnet},
          std::pair<const char*, const model::ModelGraph*>{"vgg19", &vgg}}) {
      const ModelProfile profile(*named, 32);
      solve_all(prefix + label, profile, Partitioner(profile, cluster), ids, {1 + round % 3});
    }
  });

  // The knobs plan requests leave at their defaults, on the first two large
  // shapes: pruning off, beam widths 1 and 3, and rack_order_limit 2 and 20
  // (rack segments with more interior orders fall back to adjacent swaps).
  // Then the hierarchical tier's fallbacks: a virtual worker inside one rack
  // (it runs the beam), and virtual workers touching 7 or 8 single-node
  // racks (over 720 rack orders: heuristic coarse orders plus swap polish).
  struct Knob {
    const char* name;
    void (*apply)(PartitionOptions*);
  };
  const Knob kKnobs[] = {
      // Recorded with pruning off; the search always prunes, so these lines
      // hold it to the unpruned answers.
      {"noprune", [](PartitionOptions*) {}},
      {"width1", [](PartitionOptions* o) { o->beam_width = 1; }},
      {"width3", [](PartitionOptions* o) { o->beam_width = 3; }},
      {"racklimit2", [](PartitionOptions* o) { o->rack_order_limit = 2; }},
      {"racklimit20", [](PartitionOptions* o) { o->rack_order_limit = 20; }},
  };
  const auto solve_approx = [&](const std::string& prefix, const ModelProfile& profile,
                                const Partitioner& partitioner, const std::vector<int>& ids,
                                const PartitionOptions& base) {
    for (const auto& [strategy, name] : kStrategies) {
      if (strategy == SearchStrategy::kAuto) {
        continue;
      }
      PartitionOptions options = base;
      options.strategy = strategy;
      const Partition solved = partitioner.SolveScalable(ids, options);
      lines.push_back(prefix + "|" + name + "|nm" + std::to_string(options.nm) + '\t' +
                      oracles::PartitionSignature(solved, &profile));
    }
  };
  const Cluster eight_racks = PlanBenchCluster(8);
  const std::vector<std::vector<int>> kSingleRack = {{4, 4, 0, 0, 0, 0, 0, 0},
                                                     {2, 3, 0, 0, 0, 0, 0, 0}};
  const std::vector<std::vector<int>> kManyRacks = {{2, 2, 2, 2, 2, 2, 2, 0},
                                                    {2, 2, 1, 2, 2, 1, 2, 2},
                                                    {1, 1, 1, 1, 1, 1, 1, 1}};
  for (const auto& [label, graph] :
       {std::pair<const char*, const model::ModelGraph*>{"resnet152", &resnet},
        std::pair<const char*, const model::ModelGraph*>{"vgg19", &vgg}}) {
    const ModelProfile profile(*graph, 32);
    for (const Cluster* cluster : {&racked, &flat}) {
      const Partitioner partitioner(profile, *cluster);
      for (size_t shape = 0; shape < 2; ++shape) {
        std::string counts;
        const std::vector<int> ids = PlanBenchIds(shapes[shape], &counts);
        for (const Knob& knob : kKnobs) {
          PartitionOptions options;
          knob.apply(&options);
          solve_approx(cluster->name() + "|" + label + "|" + counts + "|" + knob.name, profile,
                       partitioner, ids, options);
        }
      }
    }
    const Partitioner in_rack(profile, racked);
    for (const std::vector<int>& per_node : kSingleRack) {
      std::string counts;
      const std::vector<int> ids = PlanBenchIds(per_node, &counts);
      for (int nm : {1, 2}) {
        PartitionOptions options;
        options.nm = nm;
        solve_approx("one-rack|" + std::string(label) + "|" + counts, profile, in_rack, ids,
                     options);
      }
    }
    const Partitioner spread(profile, eight_racks);
    for (const std::vector<int>& per_node : kManyRacks) {
      std::string counts;
      const std::vector<int> ids = PlanBenchIds(per_node, &counts);
      for (int nm : {1, 2}) {
        PartitionOptions options;
        options.nm = nm;
        solve_approx(eight_racks.name() + "|" + label + "|" + counts, profile, spread, ids,
                     options);
      }
    }
  }
  return lines;
}

TEST(ScalableGoldenTest, ApproximateTiersMatchRecordedSolves) {
  EXPECT_EQ(oracles::CheckGolden("scalable_solves.txt",
                                 "SolveScalable results of the beam / hierarchical / auto "
                                 "tiers: key \\t signature | ToString.\n"
                                 "Regenerate with: UPDATE_GOLDEN=1 ./partition_test",
                                 ScalableGoldenLines()),
            "");
}

TEST(SearchParallelTest, ApproximateTiersIgnorePools) {
  // The beam polish and the hierarchical walks reuse prefix rows computed
  // under an earlier, looser incumbent, and pooled walks place the shared
  // prefix once per task. Neither may change a result: pools of 1, 2 and 8
  // threads must give the serial solve's fields and bytes (the `noprune`
  // lines of scalable_solves.txt, recorded with pruning off, pin the
  // incumbent side), on the seeded racked instances and on plan-shaped 6-16 GPU
  // draws over the flat cluster and 2, 4 and 8 racks. The hierarchical tier
  // also runs at rack_order_limit 2, where every multi-class segment is
  // refined by its adjacent-swap fallback instead of its class-order walk.
  runner::ThreadPool pool1(1), pool2(2), pool8(8);
  int compared = 0;
  const auto check = [&](const std::string& label, const Partitioner& partitioner,
                         const std::vector<int>& ids, int nm) {
    const std::pair<SearchStrategy, int64_t> tiers[] = {{SearchStrategy::kBeam, 720},
                                                        {SearchStrategy::kHierarchical, 720},
                                                        {SearchStrategy::kHierarchical, 2}};
    for (const auto& [strategy, rack_order_limit] : tiers) {
      PartitionOptions options;
      options.nm = nm;
      options.strategy = strategy;
      options.rack_order_limit = rack_order_limit;
      const Partition want = partitioner.SolveScalable(ids, options);
      std::vector<PartitionOptions> runs(3, options);
      runs[0].pool = &pool1;
      runs[1].pool = &pool2;
      runs[2].pool = &pool8;
      for (const PartitionOptions& run : runs) {
        EXPECT_EQ(oracles::PartitionDiff(partitioner.SolveScalable(ids, run), want), "")
            << label << " " << SearchStrategyName(strategy) << " racklimit " << rack_order_limit
            << " threads " << run.pool->num_threads();
      }
      ++compared;
    }
  };
  ForEachRackedInstance([&](int round, const Cluster& cluster, const model::ModelGraph& graph,
                            const std::vector<int>& ids) {
    const ModelProfile profile(graph, 1 + round % 32);
    check("parallel-" + std::to_string(round), Partitioner(profile, cluster), ids, 1 + round % 3);
  });
  std::vector<Cluster> clusters;
  for (int racks : {0, 2, 4, 8}) {
    clusters.push_back(PlanBenchCluster(racks));
  }
  const model::ModelGraph resnet = BuildResNet152();
  const ModelProfile profile(resnet, 32);
  std::mt19937 rng(20261018);
  for (const Cluster& cluster : clusters) {
    const Partitioner partitioner(profile, cluster);
    for (int draw = 0; draw < 3; ++draw) {
      std::string counts;
      const std::vector<int> ids =
          PlanBenchIds(DrawPerNode(rng, 6 + static_cast<int>(rng() % 11u)), &counts);
      check(cluster.name() + "|" + counts, partitioner, ids, 1 + draw % 2);
    }
    // Nodes i and i + 4 hold the same class, so these VWs have racks (and
    // classes) with equal contents: rack orders and interiors in different
    // first-level subtrees tie bit for bit, and only walk order decides.
    for (const std::vector<int>& per_node :
         {std::vector<int>{2, 2, 1, 1, 2, 2, 1, 1}, std::vector<int>{1, 1, 1, 1, 1, 1, 1, 1}}) {
      std::string counts;
      const std::vector<int> ids = PlanBenchIds(per_node, &counts);
      check(cluster.name() + "|" + counts, partitioner, ids, 1);
    }
  }
  EXPECT_GE(compared, 30);  // the grid must actually run
}

// ---- Pinned outputs of the exact tier on the serve benchmark's small
// ---- request shapes: 3-6 GPUs on distinct nodes (plan requests) and the
// ---- same with one node doubled (max_nm probes), on paper-class 8-node
// ---- clusters, both paper models, nm 1-4; then 4-7 GPU shapes on fabrics
// ---- where same-type GPUs on different nodes are not all interchangeable
// ---- (racks, a per-pair link override, a mixed-class node) and 7 GPUs on
// ---- distinct nodes. tests/golden/exact_solves.txt; every line is the
// ---- optimum, so any diff is a behaviour change.

// A paper-class 8-node x 4-GPU cluster (node classes `codes`) with optional
// racks (nodes 0-3 and 4-7, a slower cross-rack link) and one per-pair link
// override between nodes `a` and `b` (none when a < 0).
Cluster ExactGoldenCluster(const char* codes, bool racked, int a, int b) {
  hw::ClusterSpec spec;
  spec.Named(racked ? "exact-racked" : a >= 0 ? "exact-override" : "exact-uniform");
  for (int node = 0; node < 8; ++node) {
    spec.AddNode(std::string(1, codes[node]), 4);
  }
  if (racked) {
    spec.AddRack("rack0", {0, 1, 2, 3}).AddRack("rack1", {4, 5, 6, 7}).CrossRackGbits(5.0);
  }
  if (a >= 0) {
    spec.OverrideLink(a, b, 10.0);
  }
  return spec.Build();
}

// Appends one exact solve per nm in 1-4 of `ids`, on both paper models.
void AppendExactSolves(oracles::GoldenLines* lines,
                       const std::string& key, const Cluster& cluster,
                       const std::vector<int>& ids) {
  for (const model::ModelGraph& graph : {BuildResNet152(), BuildVgg19()}) {
    const ModelProfile profile(graph, 32);
    const Partitioner partitioner(profile, cluster);
    for (int nm = 1; nm <= 4; ++nm) {
      PartitionOptions options;
      options.nm = nm;
      options.strategy = SearchStrategy::kExact;
      const Partition solved = partitioner.SolveScalable(ids, options);
      lines->push_back(key + "|" + graph.name() + "|nm" + std::to_string(nm) + '\t' +
                       oracles::PartitionSignature(solved, &profile));
    }
  }
}

oracles::GoldenLines ExactGoldenLines() {
  oracles::GoldenLines lines;
  const model::ModelGraph resnet = BuildResNet152();
  const model::ModelGraph vgg = BuildVgg19();
  std::mt19937 rng(20261018);
  for (const char* nodes : {"VRGQVRGQ", "QGRVVRGQ", "RRVVQQGG"}) {
    const Cluster cluster = Cluster::PaperSubset(nodes);
    for (const auto& [label, graph] :
         {std::pair<const char*, const model::ModelGraph*>{"resnet152", &resnet},
          std::pair<const char*, const model::ModelGraph*>{"vgg19", &vgg}}) {
      const ModelProfile profile(*graph, 32);
      const Partitioner partitioner(profile, cluster);
      for (int draw = 0; draw < 8; ++draw) {
        // Draws 0-3: 3-6 distinct nodes; draws 4-7: 3-6 GPUs, one node doubled.
        const bool doubled = draw >= 4;
        const int gpus = 3 + draw % 4;
        std::vector<int> node_ids(8);
        std::iota(node_ids.begin(), node_ids.end(), 0);
        std::shuffle(node_ids.begin(), node_ids.end(), rng);
        std::vector<int> per_node(8, 0);
        for (int i = 0; i < gpus - (doubled ? 1 : 0); ++i) {
          per_node[static_cast<size_t>(node_ids[static_cast<size_t>(i)])] = 1;
        }
        if (doubled) {
          per_node[static_cast<size_t>(node_ids[0])] = 2;
        }
        std::vector<int> ids;
        std::string counts;
        for (int node = 0; node < 8; ++node) {
          counts += static_cast<char>('0' + per_node[static_cast<size_t>(node)]);
          for (int slot = 0; slot < per_node[static_cast<size_t>(node)]; ++slot) {
            ids.push_back(node * 4 + slot);
          }
        }
        for (int nm = 1; nm <= 4; ++nm) {
          PartitionOptions options;
          options.nm = nm;
          options.strategy = SearchStrategy::kExact;
          const Partition solved = partitioner.SolveScalable(ids, options);
          lines.push_back(std::string(nodes) + "|" + label + "|" + counts + "|nm" +
                          std::to_string(nm) + '\t' +
                          oracles::PartitionSignature(solved, &profile));
        }
      }
    }
  }

  // 4-7 GPUs, one per node, on 4-7 nodes drawn from the 8 (ids node * 4).
  const auto draw_nodes = [&](int count) {
    std::vector<int> nodes(8);
    std::iota(nodes.begin(), nodes.end(), 0);
    std::shuffle(nodes.begin(), nodes.end(), rng);
    nodes.resize(static_cast<size_t>(count));
    return nodes;
  };
  const auto node_key = [](const std::vector<int>& ids) {
    std::string key;
    for (int id : ids) {
      key += std::to_string(id) + ",";
    }
    key.pop_back();
    return key;
  };
  for (int gpus = 4; gpus <= 7; ++gpus) {
    // Two racks holding the same classes: same-type GPUs in different racks
    // see different links to the rest of the virtual worker.
    std::vector<int> ids;
    for (int node : draw_nodes(gpus)) {
      ids.push_back(node * 4);
    }
    std::sort(ids.begin(), ids.end());
    AppendExactSolves(&lines, "racked|" + node_key(ids),
                      ExactGoldenCluster("VRGQVRGQ", true, -1, -1), ids);
    // A uniform fabric with one slower pair between the first two drawn
    // nodes of the virtual worker.
    const std::vector<int> nodes = draw_nodes(gpus);
    ids.clear();
    for (int node : nodes) {
      ids.push_back(node * 4);
    }
    std::sort(ids.begin(), ids.end());
    AppendExactSolves(&lines,
                      "override" + std::to_string(nodes[0]) + "-" + std::to_string(nodes[1]) +
                          "|" + node_key(ids),
                      ExactGoldenCluster("VRGQVRGQ", false, nodes[0], nodes[1]), ids);
  }
  // A mixed-class node (V V Q Q) beside homogeneous V and Q nodes: its V
  // GPUs share a node with Q GPUs that the other V and Q GPUs do not.
  hw::ClusterSpec mixed_spec;
  mixed_spec.Named("exact-mixed")
      .AddMixedNode({{"V", 2}, {"Q", 2}})
      .AddNode("V", 2)
      .AddNode("Q", 2)
      .AddNode("R", 2);
  const Cluster mixed = mixed_spec.Build();
  for (const std::vector<int>& ids :
       {std::vector<int>{0, 4, 6, 8}, std::vector<int>{0, 2, 4, 6, 8},
        std::vector<int>{0, 2, 3, 4, 6, 8}, std::vector<int>{0, 1, 2, 4, 5, 6, 8}}) {
    AppendExactSolves(&lines, "mixed|" + node_key(ids), mixed, ids);
  }
  // 7 GPUs on distinct nodes of paper-class 8-node clusters.
  for (const char* nodes : {"VRGQVRGQ", "QGRVVRGQ"}) {
    std::vector<int> ids;
    for (int node : draw_nodes(7)) {
      ids.push_back(node * 4);
    }
    std::sort(ids.begin(), ids.end());
    AppendExactSolves(&lines, std::string(nodes) + "|" + node_key(ids),
                      Cluster::PaperSubset(nodes), ids);
  }
  return lines;
}

TEST(ExactGoldenTest, ExactTierMatchesRecordedSolves) {
  EXPECT_EQ(oracles::CheckGolden("exact_solves.txt",
                                 "SolveScalable results of the exact tier: key \\t signature "
                                 "| ToString.\n"
                                 "Regenerate with: UPDATE_GOLDEN=1 ./partition_test",
                                 ExactGoldenLines()),
            "");
}

// ---- Pinned Maxm answers of the approximate tiers. Feasibility is provably
// ---- monotone in nm only for the exact tier; the beam ranks orders by
// ---- memory-capped costs that depend on nm. tests/golden/max_nm_answers.txt
// ---- holds one FindMaxNmWith answer per (cluster, model, batch, shape,
// ---- tier, nm_cap), recorded while FindMaxNmWith still bisected [1, nm_cap],
// ---- so any diff there means a probe order changed an answer. At batch
// ---- 256, 14 of the 96 (cluster, model, batch, shape) cases have their
// ---- boundary below nm 8.
oracles::GoldenLines MaxNmGoldenLines() {
  std::vector<Cluster> clusters;
  for (int racks : {0, 2, 4, 8}) {
    clusters.push_back(PlanBenchCluster(racks));
  }
  const model::ModelGraph resnet = BuildResNet152();
  const model::ModelGraph vgg = BuildVgg19();
  // Two 12-16 GPU virtual workers drawn like ScalableGoldenLines' large
  // shapes, then two of 6-10 GPUs, whose fewer stages hold more layers each
  // and so run out of memory at smaller nm.
  std::mt19937 rng(20261019);
  std::vector<std::vector<int>> shapes;
  for (int draw = 0; draw < 4; ++draw) {
    shapes.push_back(DrawPerNode(rng, (draw < 2 ? 12 : 6) + static_cast<int>(rng() % 5u)));
  }
  constexpr int kMaxCap = 8;
  oracles::GoldenLines lines;
  for (const auto& [label, graph] :
       {std::pair<const char*, const model::ModelGraph*>{"resnet152", &resnet},
        std::pair<const char*, const model::ModelGraph*>{"vgg19", &vgg}}) {
    for (int batch : {64, 128, 256}) {
      const ModelProfile profile(*graph, batch);
      for (const Cluster& cluster : clusters) {
        const Partitioner partitioner(profile, cluster);
        for (const std::vector<int>& per_node : shapes) {
          std::string counts;
          const std::vector<int> ids = PlanBenchIds(per_node, &counts);
          for (const auto& [strategy, name] :
               {std::pair<SearchStrategy, const char*>{SearchStrategy::kAuto, "auto"},
                {SearchStrategy::kBeam, "beam"},
                {SearchStrategy::kHierarchical, "hierarchical"}}) {
            // Each nm is solved once per tier and shared by every cap.
            std::vector<std::optional<Partition>> solved(kMaxCap + 1);
            const auto solve = [&](const PartitionOptions& at_nm) {
              std::optional<Partition>& slot = solved[static_cast<size_t>(at_nm.nm)];
              if (!slot) {
                slot = partitioner.SolveScalable(ids, at_nm);
              }
              return *slot;
            };
            PartitionOptions options;
            options.strategy = strategy;
            for (int cap = 1; cap <= kMaxCap; ++cap) {
              lines.push_back(cluster.name() + "|" + label + "|b" + std::to_string(batch) +
                              "|" + counts + "|" + name + "|cap" + std::to_string(cap) + '\t' +
                              std::to_string(FindMaxNmWith(solve, cap, options)));
            }
          }
        }
      }
    }
  }
  return lines;
}

TEST(MaxNmGoldenTest, ApproximateTiersMatchRecordedAnswers) {
  EXPECT_EQ(oracles::CheckGolden("max_nm_answers.txt",
                                 "FindMaxNmWith answers of the beam / hierarchical / auto "
                                 "tiers, nm_cap 1-8: key \\t max_nm.\n"
                                 "Regenerate with: UPDATE_GOLDEN=1 ./partition_test",
                                 MaxNmGoldenLines()),
            "");
}

}  // namespace
}  // namespace hetpipe::partition
