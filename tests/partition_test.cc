#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <numeric>
#include <random>
#include <string>
#include <utility>

#include "hw/cluster.h"
#include "hw/cluster_spec.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "model/transformer.h"
#include "model/vgg.h"
#include "partition/memory_model.h"
#include "partition/partitioner.h"
#include "oracles/reference.h"
#include "runner/thread_pool.h"

#ifndef HETPIPE_GOLDEN_DIR
#error "partition_test needs HETPIPE_GOLDEN_DIR (set by CMakeLists.txt)"
#endif

namespace hetpipe::partition {
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
  for (const auto& spec : hw::AllGpuSpecs()) {
    EXPECT_TRUE(FitsOnSingleGpu(profile, spec.type)) << spec.name;
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

// ---- Prefix-sum / cumulative-table equivalence (the tentpole invariant:
// ---- the O(1) queries are bit-identical to the retained naive loops). ----

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
  for (int round = 0; round < 25; ++round) {
    const model::ModelGraph graph = RandomGraph(rng);
    const ModelProfile profile(graph, 1 + round % 64);
    const int n = graph.num_layers();
    for (int first = 0; first < n; ++first) {
      for (int last = first; last < n; ++last) {
        EXPECT_EQ(graph.ParamBytesInRange(first, last),
                  oracles::ParamBytesInRangeNaive(graph, first, last));
        EXPECT_EQ(graph.StashBytesInRange(first, last),
                  oracles::StashBytesInRangeNaive(graph, first, last));
        for (int t = 0; t < hw::kNumGpuTypes; ++t) {
          const auto gpu = static_cast<GpuType>(t);
          // EXPECT_EQ on doubles is exact equality: bit-identical, not close.
          EXPECT_EQ(profile.StageFwdTime(first, last, gpu),
                    oracles::StageFwdTimeNaive(profile, first, last, gpu));
          EXPECT_EQ(profile.StageBwdTime(first, last, gpu),
                    oracles::StageBwdTimeNaive(profile, first, last, gpu));
          EXPECT_EQ(profile.StageTotalTime(first, last, gpu),
                    oracles::StageTotalTimeNaive(profile, first, last, gpu));
        }
      }
    }
  }
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

void ExpectSamePartition(const Partition& a, const Partition& b) {
  ASSERT_EQ(a.feasible, b.feasible);
  if (!a.feasible) {
    return;
  }
  EXPECT_EQ(a.bottleneck_time, b.bottleneck_time);  // exact, not approximate
  EXPECT_EQ(a.sum_time, b.sum_time);
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t q = 0; q < a.stages.size(); ++q) {
    EXPECT_EQ(a.stages[q].first_layer, b.stages[q].first_layer);
    EXPECT_EQ(a.stages[q].last_layer, b.stages[q].last_layer);
    EXPECT_EQ(a.stages[q].gpu_id, b.stages[q].gpu_id);
    EXPECT_EQ(a.stages[q].gpu_type, b.stages[q].gpu_type);
    EXPECT_EQ(a.stages[q].node, b.stages[q].node);
    EXPECT_EQ(a.stages[q].fwd_compute_s, b.stages[q].fwd_compute_s);
    EXPECT_EQ(a.stages[q].bwd_compute_s, b.stages[q].bwd_compute_s);
    EXPECT_EQ(a.stages[q].fwd_comm_in_s, b.stages[q].fwd_comm_in_s);
    EXPECT_EQ(a.stages[q].bwd_comm_in_s, b.stages[q].bwd_comm_in_s);
    EXPECT_EQ(a.stages[q].param_bytes, b.stages[q].param_bytes);
    EXPECT_EQ(a.stages[q].memory_bytes, b.stages[q].memory_bytes);
    EXPECT_EQ(a.stages[q].memory_cap, b.stages[q].memory_cap);
  }
}

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
      ExpectSamePartition(partitioner.SolveScalable(gpus, options),
                          oracles::SolveReference(partitioner, gpus, options));
      options.prune = false;
      ExpectSamePartition(partitioner.SolveScalable(gpus, options),
                          oracles::SolveReference(partitioner, gpus, options));
      options.search_gpu_orders = false;
      ExpectSamePartition(partitioner.SolveScalable(gpus, options),
                          oracles::SolveReference(partitioner, gpus, options));
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
      ExpectSamePartition(partitioner.SolveScalable(gpus, options),
                          oracles::SolveReference(partitioner, gpus, options));
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
    ExpectSamePartition(partitioner.SolveScalable(gpus, options),
                        oracles::SolveReference(partitioner, gpus, options));
  }
}

// ---- FindMaxNm: the binary search must agree with the pre-optimization
// ---- downward linear scan everywhere (feasibility is monotone in nm). ----

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

TEST(FindMaxNmWithTest, BinarySearchProbesMonotoneFeasibility) {
  // Synthetic monotone feasibility with every threshold in [0, cap]: the
  // binary search must land exactly on the threshold, including the
  // all-infeasible (0) and all-feasible (cap) edges.
  constexpr int kCap = 23;
  for (int threshold = 0; threshold <= kCap; ++threshold) {
    const auto solve = [threshold](const PartitionOptions& options) {
      Partition p;
      p.feasible = options.nm <= threshold;
      return p;
    };
    EXPECT_EQ(FindMaxNmWith(solve, kCap, PartitionOptions{}), threshold);
  }
  EXPECT_EQ(FindMaxNmWith([](const PartitionOptions&) { return Partition{}; }, 0,
                          PartitionOptions{}),
            0);
}

// ---- The thread-local DP scratch must stop allocating once warm. ----

TEST_F(PartitionerTest, RepeatedSolvesDoNotGrowScratch) {
  const auto graph = BuildResNet152();
  const ModelProfile profile(graph, 32);
  const Partitioner partitioner(profile, cluster_);
  PartitionOptions options;
  options.nm = 2;
  const std::vector<int> gpus = {0, 4, 8, 12};
  (void)partitioner.SolveScalable(gpus, options);  // warm this thread's scratch
  const int64_t before = DpScratchGrowCount();
  for (int r = 0; r < 20; ++r) {
    (void)partitioner.SolveScalable(gpus, options);
    (void)partitioner.SolveScalable({0, 1, 2, 3}, options);  // smaller shape: also no growth
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
              DistinctClassOrders(cluster, gpus).size());
  }
  // Saturation: the count is capped, never overflowed.
  EXPECT_EQ(EstimateOrderCount(cluster, {0, 4, 8, 12}, 5), 5u);
  EXPECT_EQ(EstimateOrderCount(cluster, {0, 1, 2, 3}, 1), 1u);
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
      ExpectSamePartition(partitioner.SolveScalable(gpus, options),
                          partitioner.SolveScalable(gpus, exact));
    }
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
    ExpectSamePartition(partitioner.SolveScalable(shuffled, options),
                        partitioner.SolveScalable(ids, options));
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
        ExpectSamePartition(parallel, serial);
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

// ---- Pinned outputs of the approximate tiers. At these sizes the beam and
// ---- hierarchical searches have no exact oracle, so their answers are
// ---- pinned: tests/golden/scalable_solves.txt holds one `key \t signature`
// ---- line per (instance, model, strategy, nm), in the signature format of
// ---- tests/golden/partitioner_solves.txt followed by the rendered
// ---- ToString. `UPDATE_GOLDEN=1 ./partition_test` rewrites the file.

std::string SolveSignature(const Partition& p, const ModelProfile& profile) {
  if (!p.feasible) {
    return "infeasible";
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "b=%.17g s=%.17g", p.bottleneck_time, p.sum_time);
  std::string sig = buf;
  for (const StageAssignment& stage : p.stages) {
    std::snprintf(buf, sizeof(buf), " %d:%d-%d@%c", stage.gpu_id, stage.first_layer,
                  stage.last_layer, hw::CodeOf(stage.gpu_type));
    sig += buf;
  }
  return sig + " | " + p.ToString(profile);
}

// The 8-node x 4-GPU clusters behind the serve benchmark's large plan
// requests: four classes cycling over the nodes, either racked in pairs
// (12-16 GPU virtual workers resolve to the hierarchical tier) or flat
// (they resolve to the beam). Explicit codes keep the rendered signatures
// independent of which classes earlier tests registered.
Cluster PlanBenchCluster(bool racked) {
  hw::ClusterSpec spec;
  spec.Named(racked ? "bench-racked" : "bench-flat")
      .AddGpuClass("BenchV", 14.0, 12.0, 'w')
      .AddGpuClass("BenchR", 16.3, 24.0, 'x')
      .AddGpuClass("BenchG", 11.3, 8.0, 'y')
      .AddGpuClass("BenchQ", 5.3, 32.0, 'z');
  const char* kClasses[4] = {"BenchV", "BenchR", "BenchG", "BenchQ"};
  for (int node = 0; node < 8; ++node) {
    spec.AddNode(kClasses[node % 4], 4);
  }
  if (racked) {
    for (int rack = 0; rack < 4; ++rack) {
      spec.AddRack("rack" + std::to_string(rack), {2 * rack, 2 * rack + 1});
    }
    spec.CrossRackGbits(5.0);
  }
  return spec.Build();
}

// Every golden line, in a fixed order.
std::vector<std::pair<std::string, std::string>> ScalableGoldenLines() {
  std::vector<std::pair<std::string, std::string>> lines;
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
        lines.emplace_back(prefix + "|" + name + "|nm" + std::to_string(nm),
                           SolveSignature(partitioner.SolveScalable(ids, options), profile));
      }
    }
  };

  // 12-16 GPU virtual workers drawn like the large plan requests: GPUs
  // placed on random nodes, at most four per node.
  const Cluster racked = PlanBenchCluster(true);
  const Cluster flat = PlanBenchCluster(false);
  const model::ModelGraph resnet = BuildResNet152();
  const model::ModelGraph vgg = BuildVgg19();
  std::mt19937 rng(20261017);
  std::vector<std::vector<int>> shapes;
  for (int draw = 0; draw < 4; ++draw) {
    const int total = 12 + static_cast<int>(rng() % 5u);
    std::vector<int> per_node(8, 0);
    for (int placed = 0; placed < total;) {
      const size_t node = rng() % 8u;
      if (per_node[node] < 4) {
        ++per_node[node];
        ++placed;
      }
    }
    shapes.push_back(per_node);
  }
  for (const auto& [label, graph] :
       {std::pair<const char*, const model::ModelGraph*>{"resnet152", &resnet},
        std::pair<const char*, const model::ModelGraph*>{"vgg19", &vgg}}) {
    const ModelProfile profile(*graph, 32);
    for (const Cluster* cluster : {&racked, &flat}) {
      const Partitioner partitioner(profile, *cluster);
      for (const std::vector<int>& per_node : shapes) {
        std::vector<int> ids;
        std::string counts;
        for (int node = 0; node < 8; ++node) {
          counts += static_cast<char>('0' + per_node[static_cast<size_t>(node)]);
          for (int slot = 0; slot < per_node[static_cast<size_t>(node)]; ++slot) {
            ids.push_back(node * 4 + slot);
          }
        }
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
  return lines;
}

TEST(ScalableGoldenTest, ApproximateTiersMatchRecordedSolves) {
  const std::vector<std::pair<std::string, std::string>> lines = ScalableGoldenLines();
  const std::string path = std::string(HETPIPE_GOLDEN_DIR) + "/scalable_solves.txt";
  if (std::getenv("UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << "# SolveScalable results of the beam / hierarchical / auto tiers: key \\t "
           "signature | ToString.\n"
           "# Regenerate with: UPDATE_GOLDEN=1 ./partition_test\n";
    for (const auto& [key, signature] : lines) {
      out << key << '\t' << signature << '\n';
    }
    std::printf("updated %s\n", path.c_str());
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden " << path;
  std::vector<std::pair<std::string, std::string>> want;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t tab = line.find('\t');
    ASSERT_NE(tab, std::string::npos) << "malformed golden line: " << line;
    want.emplace_back(line.substr(0, tab), line.substr(tab + 1));
  }
  ASSERT_EQ(want.size(), lines.size()) << "golden line count drifted";
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(want[i].first, lines[i].first) << "line " << i;
    EXPECT_EQ(want[i].second, lines[i].second) << lines[i].first;
  }
}

}  // namespace
}  // namespace hetpipe::partition
