#include <gtest/gtest.h>

#include "dp/allreduce.h"
#include "dp/decentralized.h"
#include "dp/horovod.h"
#include "dp/placement.h"
#include "dp/ps_baselines.h"
#include "hw/cluster.h"
#include "hw/cluster_spec.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "model/vgg.h"
#include "partition/partitioner.h"

namespace hetpipe::dp {
namespace {

TEST(AllReduceTest, ZeroForTrivialCases) {
  RingAllReduceParams p;
  p.num_workers = 1;
  p.bytes = 1000;
  p.bottleneck_bps = 1e9;
  EXPECT_DOUBLE_EQ(RingAllReduceTime(p), 0.0);
  p.num_workers = 4;
  p.bytes = 0;
  EXPECT_DOUBLE_EQ(RingAllReduceTime(p), 0.0);
}

TEST(AllReduceTest, BandwidthOptimalVolume) {
  RingAllReduceParams p;
  p.num_workers = 4;
  p.bytes = 4ULL << 20;
  p.bottleneck_bps = 1e9;
  p.per_step_latency_s = 0.0;
  // 2*(N-1)/N * bytes / bw.
  const double expected = 2.0 * 3.0 / 4.0 * static_cast<double>(4ULL << 20) / 1e9;
  EXPECT_NEAR(RingAllReduceTime(p), expected, 1e-12);
}

TEST(AllReduceTest, LatencyScalesWithSteps) {
  RingAllReduceParams p;
  p.num_workers = 8;
  p.bytes = 1;
  p.bottleneck_bps = 1e12;
  p.per_step_latency_s = 1e-3;
  EXPECT_NEAR(RingAllReduceTime(p), 14e-3, 1e-6);
}

TEST(AllReduceTest, MoreWorkersMoreVolume) {
  RingAllReduceParams p;
  p.bytes = 100ULL << 20;
  p.bottleneck_bps = 5e9;
  p.num_workers = 2;
  const double t2 = RingAllReduceTime(p);
  p.num_workers = 16;
  const double t16 = RingAllReduceTime(p);
  EXPECT_GT(t16, t2);
}

TEST(SharedFabricTest, DividesBandwidth) {
  EXPECT_DOUBLE_EQ(SharedFabricBandwidth(10e9, 4, 1.0), 2.5e9);
  EXPECT_DOUBLE_EQ(SharedFabricBandwidth(10e9, 0, 0.5), 5e9);  // clamps to 1
}

TEST(HorovodTest, ResNetExcludesWhimpyGpus) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const HorovodResult result = SimulateHorovod(cluster, profile);
  ASSERT_TRUE(result.feasible);
  // §8.3: "For ResNet-152 ... Horovod uses only 12 GPUs" — the four 6 GiB
  // RTX 2060s cannot hold the model.
  EXPECT_EQ(result.worker_gpus.size(), 12u);
  EXPECT_EQ(result.num_excluded, 4);
  for (int id : result.worker_gpus) {
    EXPECT_NE(cluster.gpu(id).type, hw::GpuType::kRtx2060);
  }
}

TEST(HorovodTest, VggUsesAllGpus) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  const HorovodResult result = SimulateHorovod(cluster, profile);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.worker_gpus.size(), 16u);
  EXPECT_EQ(result.num_excluded, 0);
}

TEST(HorovodTest, BspWaitsForSlowestWorker) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  const HorovodResult result = SimulateHorovod(cluster, profile);
  // The slowest participating GPU is the Quadro P4000.
  EXPECT_NEAR(result.compute_s, profile.FullModelTime(hw::GpuType::kQuadroP4000), 1e-12);
}

TEST(HorovodTest, ThroughputMatchesPaperTable4Shape) {
  // Table 4, Horovod row for VGG-19: 164 (4 GPUs), 205 (8), 265 (12), 339 (16).
  // The calibrated model must land near those values (±20%).
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  const struct {
    const char* nodes;
    double expected;
  } cases[] = {{"V", 164.0}, {"VR", 205.0}, {"VRQ", 265.0}, {"VRQG", 339.0}};
  double prev = 0.0;
  for (const auto& c : cases) {
    const hw::Cluster cluster = hw::Cluster::PaperSubset(c.nodes);
    const HorovodResult result = SimulateHorovod(cluster, profile);
    EXPECT_NEAR(result.throughput_img_s, c.expected, c.expected * 0.2) << c.nodes;
    EXPECT_GT(result.throughput_img_s, prev);  // more GPUs helps
    prev = result.throughput_img_s;
  }
}

TEST(HorovodTest, ResNetThroughputShape) {
  // Table 4, Horovod row for ResNet-152: 233 (4), 353 (8), 415 (12).
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const struct {
    const char* nodes;
    double expected;
  } cases[] = {{"V", 233.0}, {"VR", 353.0}, {"VRQ", 415.0}};
  for (const auto& c : cases) {
    const hw::Cluster cluster = hw::Cluster::PaperSubset(c.nodes);
    const HorovodResult result = SimulateHorovod(cluster, profile);
    EXPECT_NEAR(result.throughput_img_s, c.expected, c.expected * 0.2) << c.nodes;
  }
}

TEST(PlacementTest, HorovodCrossNodeBytesMatchesPaperAccounting) {
  // §8.3: VGG-19 over 16 workers moves ~515 MB across nodes per iteration.
  const model::ModelGraph graph = model::BuildVgg19();
  const uint64_t bytes = HorovodCrossNodeBytes(graph.total_param_bytes(), 16);
  EXPECT_NEAR(static_cast<double>(bytes) / (1 << 20), 515.0, 15.0);
  EXPECT_EQ(HorovodCrossNodeBytes(1000, 1), 0u);
}

TEST(PlacementTest, EdLocalParameterTrafficIsZero) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = 1;
  const partition::Partition partition = partitioner.SolveScalable({0, 4, 8, 12}, options);
  ASSERT_TRUE(partition.feasible);
  EXPECT_EQ(PsCrossNodeBytesPerMinibatch(partition, 4, /*local=*/true, 1), 0u);
  EXPECT_GT(PsCrossNodeBytesPerMinibatch(partition, 4, /*local=*/false, 1), 0u);
}

TEST(PlacementTest, EdVwStillMovesActivationsAcrossNodes) {
  // §8.3: even ED-local ResNet moves ~298 MB across nodes (activations).
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = 1;
  const partition::Partition partition = partitioner.SolveScalable({0, 4, 8, 12}, options);
  ASSERT_TRUE(partition.feasible);
  const uint64_t bytes = ActivationCrossNodeBytes(partition, profile);
  EXPECT_GT(bytes, 0u);
  // All three boundaries cross nodes in an ED virtual worker.
  EXPECT_GT(bytes, 50ULL << 20);
}

TEST(PlacementTest, ActivationTrafficByTierSplitsByRack) {
  // Three 2-GPU V nodes, nodes 0+1 in one rack, node 2 alone; a fixed-order
  // VW spanning (node0, node0, node1, node2) exercises every tier.
  const hw::Cluster cluster =
      hw::ClusterSpec::Parse(
          "node 2xV; node 2xV; node 2xV;"
          "rack r0 { node0 node1 }; rack r1 { node2 }; cross_rack_gbits 5")
          .Build();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = 1;
  options.search_gpu_orders = false;  // keep the node sequence 0,0,1,2
  const partition::Partition partition = partitioner.SolveScalable({0, 1, 2, 4}, options);
  ASSERT_TRUE(partition.feasible);

  const ActivationTraffic traffic = ActivationTrafficByTier(partition, profile, cluster);
  EXPECT_GT(traffic.intra_node_bytes, 0u);   // boundary inside node 0
  EXPECT_GT(traffic.same_rack_bytes, 0u);    // node0 -> node1
  EXPECT_GT(traffic.cross_rack_bytes, 0u);   // node1 -> node2
  // The cross-node tiers partition exactly the flat cross-node accounting.
  EXPECT_EQ(traffic.same_rack_bytes + traffic.cross_rack_bytes,
            ActivationCrossNodeBytes(partition, profile));

  // Without rack structure, every cross-node byte is same-rack.
  const hw::Cluster flat = hw::Cluster::Paper();
  const partition::Partitioner flat_partitioner(profile, flat);
  partition::PartitionOptions ed;
  ed.nm = 1;
  const partition::Partition ed_partition = flat_partitioner.SolveScalable({0, 4, 8, 12}, ed);
  ASSERT_TRUE(ed_partition.feasible);
  const ActivationTraffic flat_traffic = ActivationTrafficByTier(ed_partition, profile, flat);
  EXPECT_EQ(flat_traffic.cross_rack_bytes, 0u);
  EXPECT_EQ(flat_traffic.same_rack_bytes, ActivationCrossNodeBytes(ed_partition, profile));
}

// ---- Per-node-pair links in the dp baselines ----
// The ps and AD-PSGD models price traffic over the actual resolved pair
// links on non-uniform fabrics, and keep the literal historical aggregate
// formula on uniform ones (so every pre-topology result is bit-identical).

TEST(PairLinkTest, PsDegradedPairSlowsAffectedWorkers) {
  const char* base_spec = "node 2xV; node 2xV; node 2xV";
  const hw::Cluster uniform = hw::ClusterSpec::Parse(base_spec).Build();
  const hw::Cluster degraded =
      hw::ClusterSpec::Parse(std::string(base_spec) + "; link node0<->node2 gbits 1").Build();
  ASSERT_TRUE(uniform.UniformFabric());
  ASSERT_FALSE(degraded.UniformFabric());

  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const PsDpResult fast = SimulatePsDataParallel(uniform, profile);
  const PsDpResult slow = SimulatePsDataParallel(degraded, profile);
  ASSERT_TRUE(fast.feasible);
  ASSERT_TRUE(slow.feasible);
  // Workers on nodes 0 and 2 now push their node-2 / node-0 shard over a
  // 1 Gbit link; the bottleneck comm (and hence throughput) must move.
  EXPECT_GT(slow.comm_s, fast.comm_s);
  EXPECT_LT(slow.throughput_img_s, fast.throughput_img_s);
}

TEST(PairLinkTest, PsPerDestinationRefinesTheFunnelBound) {
  // With one degraded pair out of two, only that destination's shard pays
  // the slow link; the old funnel bound charged *all* remote bytes at the
  // worst link. The refined comm must therefore sit strictly between the
  // uniform comm and the all-worst bound.
  const char* base_spec = "node 2xV; node 2xV; node 2xV";
  const hw::Cluster degraded =
      hw::ClusterSpec::Parse(std::string(base_spec) + "; link node0<->node2 gbits 1").Build();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);

  const uint64_t params = profile.graph().total_param_bytes();
  const uint64_t local = 2 * params / 3;
  const uint64_t remote = 2 * params - local;
  // Worker on node 0, which shares its NIC with one other worker.
  const double funnel = degraded.pcie().TransferTime(local) +
                        degraded.WorstInterTransferTimeFrom(0, remote) * 2;
  const PsDpResult result = SimulatePsDataParallel(degraded, profile);
  ASSERT_TRUE(result.feasible);
  EXPECT_LT(result.comm_s, funnel);
}

TEST(PairLinkTest, AdPsgdDegradedPairBetweenWorkersSlowsGossip) {
  const char* base_spec = "node 2xV; node 2xV; node 2xV";
  const hw::Cluster uniform = hw::ClusterSpec::Parse(base_spec).Build();
  const hw::Cluster degraded =
      hw::ClusterSpec::Parse(std::string(base_spec) + "; link node0<->node1 gbits 1").Build();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const DecentralizedResult fast = SimulateAdPsgd(uniform, profile);
  const DecentralizedResult slow = SimulateAdPsgd(degraded, profile);
  ASSERT_TRUE(fast.feasible);
  ASSERT_TRUE(slow.feasible);
  EXPECT_GT(slow.avg_pairwise_comm_s, fast.avg_pairwise_comm_s);
  EXPECT_LT(slow.throughput_img_s, fast.throughput_img_s);
}

TEST(PairLinkTest, AdPsgdIgnoresDegradedPairTouchingNoWorkers) {
  // ResNet-152 does not fit a G GPU, so node 2 hosts no eligible workers.
  // Degrading a link into node 2 flips the cluster to a non-uniform fabric —
  // exercising the per-pair path — but gossip peers live only on nodes 0 and
  // 1, so the result must be exactly the uniform-fabric one.
  const char* base_spec = "node 2xV; node 2xV; node 2xG";
  const hw::Cluster uniform = hw::ClusterSpec::Parse(base_spec).Build();
  const hw::Cluster degraded =
      hw::ClusterSpec::Parse(std::string(base_spec) + "; link node1<->node2 gbits 1").Build();
  ASSERT_FALSE(degraded.UniformFabric());
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const DecentralizedResult expected = SimulateAdPsgd(uniform, profile);
  const DecentralizedResult actual = SimulateAdPsgd(degraded, profile);
  ASSERT_TRUE(expected.feasible);
  EXPECT_EQ(expected.num_workers, actual.num_workers);
  EXPECT_EQ(expected.num_excluded, actual.num_excluded);
  EXPECT_EQ(expected.throughput_img_s, actual.throughput_img_s);
  EXPECT_EQ(expected.avg_pairwise_comm_s, actual.avg_pairwise_comm_s);
}

TEST(PairLinkTest, UniformSpecMatchesPaperClusterExactly) {
  // A spec-built uniform fabric and the hand-built paper testbed must price
  // both baselines identically: the uniform branch is the literal historical
  // formula.
  const hw::Cluster paper = hw::Cluster::Paper();
  const hw::Cluster spec = hw::ClusterSpec::PaperTestbed().Build();
  ASSERT_TRUE(spec.UniformFabric());
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  const PsDpResult ps_a = SimulatePsDataParallel(paper, profile);
  const PsDpResult ps_b = SimulatePsDataParallel(spec, profile);
  EXPECT_EQ(ps_a.comm_s, ps_b.comm_s);
  EXPECT_EQ(ps_a.throughput_img_s, ps_b.throughput_img_s);
  const DecentralizedResult ad_a = SimulateAdPsgd(paper, profile);
  const DecentralizedResult ad_b = SimulateAdPsgd(spec, profile);
  EXPECT_EQ(ad_a.throughput_img_s, ad_b.throughput_img_s);
  EXPECT_EQ(ad_a.avg_pairwise_comm_s, ad_b.avg_pairwise_comm_s);
}

TEST(PlacementTest, WaveAmortizationDividesByNm) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = 4;
  const partition::Partition partition = partitioner.SolveScalable({0, 4, 8, 12}, options);
  ASSERT_TRUE(partition.feasible);
  const uint64_t per1 = PsCrossNodeBytesPerMinibatch(partition, 4, false, 1);
  const uint64_t per4 = PsCrossNodeBytesPerMinibatch(partition, 4, false, 4);
  EXPECT_EQ(per4, per1 / 4);
}

}  // namespace
}  // namespace hetpipe::dp
