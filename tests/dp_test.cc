#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/allocator.h"
#include "core/context.h"
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
#include "oracles/golden.h"
#include "runner/spec_sweep.h"
#include "wsp/param_server.h"

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
  EXPECT_EQ(wsp::PsCrossNodeBytesPerMinibatch(partition, wsp::PlacementPolicy::kLocal, 4, 1), 0u);
  EXPECT_GT(wsp::PsCrossNodeBytesPerMinibatch(partition, wsp::PlacementPolicy::kRoundRobin, 4, 1),
            0u);
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
  const ActivationTraffic traffic = ActivationTrafficByTier(partition, profile, cluster);
  const uint64_t bytes = traffic.same_rack_bytes + traffic.cross_rack_bytes;
  EXPECT_GT(bytes, 0u);
  // All three boundaries cross nodes in an ED virtual worker.
  EXPECT_GT(bytes, 50ULL << 20);
}

// Activation + gradient bytes over every stage boundary of `partition`.
uint64_t AllBoundaryBytes(const partition::Partition& partition,
                          const model::ModelProfile& profile) {
  uint64_t total = 0;
  for (size_t q = 1; q < partition.stages.size(); ++q) {
    total += 2 * profile.BoundaryTransferBytes(partition.stages[q - 1].last_layer);
  }
  return total;
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
  // Every boundary lands in exactly one tier.
  EXPECT_EQ(traffic.intra_node_bytes + traffic.same_rack_bytes + traffic.cross_rack_bytes,
            AllBoundaryBytes(partition, profile));

  // Without rack structure, every cross-node byte is same-rack.
  const hw::Cluster flat = hw::Cluster::Paper();
  const partition::Partitioner flat_partitioner(profile, flat);
  partition::PartitionOptions ed;
  ed.nm = 1;
  const partition::Partition ed_partition = flat_partitioner.SolveScalable({0, 4, 8, 12}, ed);
  ASSERT_TRUE(ed_partition.feasible);
  const ActivationTraffic flat_traffic = ActivationTrafficByTier(ed_partition, profile, flat);
  EXPECT_EQ(flat_traffic.cross_rack_bytes, 0u);
  // An ED virtual worker has one GPU per node: every boundary crosses nodes.
  EXPECT_EQ(flat_traffic.same_rack_bytes, AllBoundaryBytes(ed_partition, profile));
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
  const uint64_t per1 =
      wsp::PsCrossNodeBytesPerMinibatch(partition, wsp::PlacementPolicy::kRoundRobin, 4, 1);
  const uint64_t per4 =
      wsp::PsCrossNodeBytesPerMinibatch(partition, wsp::PlacementPolicy::kRoundRobin, 4, 4);
  EXPECT_EQ(per4, per1 / 4);
}

// ---- Pinned baseline output. tests/golden/dp_baselines.txt holds every
// ---- field of the Horovod, PS (BSP, SSP(3), ASP) and AD-PSGD results, the
// ---- traffic counters and the PS push/pull times, doubles in hexfloat, for
// ---- three models on paper subsets, a single node, a racked mixed cluster
// ---- and a per-pair override. `UPDATE_GOLDEN=1 ./dp_test` rewrites it.

std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

using oracles::GoldenLines;

std::string HorovodLine(const HorovodResult& r) {
  std::string workers;
  for (int id : r.worker_gpus) {
    workers += (workers.empty() ? "" : ",") + std::to_string(id);
  }
  return "feasible=" + std::to_string(r.feasible) + " workers=" + workers +
         " excluded=" + std::to_string(r.num_excluded) + " compute=" + Hex(r.compute_s) +
         " allreduce=" + Hex(r.allreduce_s) + " exposed=" + Hex(r.exposed_comm_s) +
         " iteration=" + Hex(r.iteration_s) + " throughput=" + Hex(r.throughput_img_s);
}

std::string PsLine(const PsDpResult& r) {
  return "feasible=" + std::to_string(r.feasible) + " workers=" + std::to_string(r.num_workers) +
         " excluded=" + std::to_string(r.num_excluded) +
         " slowest=" + Hex(r.slowest_compute_s) + " comm=" + Hex(r.comm_s) +
         " sync=" + Hex(r.sync_overhead_s) + " throughput=" + Hex(r.throughput_img_s) +
         " staleness=" + Hex(r.expected_staleness);
}

std::string AdPsgdLine(const DecentralizedResult& r) {
  return "feasible=" + std::to_string(r.feasible) + " workers=" + std::to_string(r.num_workers) +
         " excluded=" + std::to_string(r.num_excluded) + " throughput=" + Hex(r.throughput_img_s) +
         " pairwise=" + Hex(r.avg_pairwise_comm_s) + " staleness=" + Hex(r.expected_staleness);
}

struct GoldenCluster {
  const char* label;
  hw::Cluster cluster;
};

std::vector<GoldenCluster> DpGoldenClusters() {
  std::vector<GoldenCluster> clusters;
  for (const char* nodes : {"VRGQ", "V", "VRQ"}) {
    clusters.push_back({nodes, hw::Cluster::PaperSubset(nodes)});
  }
  clusters.push_back({"single-node", hw::ClusterSpec::Parse("node 4xV").Build()});
  hw::ClusterSpec racked = runner::MixedDemoSpec("mixed-racked");
  racked.AddRack("r0", {0, 1}).AddRack("r1", {2}).CrossRackGbits(10.0);
  clusters.push_back({"mixed-racked", racked.Build()});
  hw::ClusterSpec overridden = hw::ClusterSpec::PaperTestbed();
  overridden.OverrideLink(0, 3, 5.0);
  clusters.push_back({"paper-override0-3", overridden.Build()});
  return clusters;
}

GoldenLines DpBaselineGoldenLines() {
  GoldenLines lines;
  for (const GoldenCluster& c : DpGoldenClusters()) {
    for (const core::ModelKind kind :
         {core::ModelKind::kResNet152, core::ModelKind::kVgg19, core::ModelKind::kBertLarge}) {
      const model::ModelGraph graph = core::BuildModel(kind);
      const model::ModelProfile profile(graph, 32);
      const hw::Cluster& cluster = c.cluster;
      const std::string key = std::string(core::ModelName(kind)) + '|' + c.label + '|';

      const HorovodResult horovod = SimulateHorovod(cluster, profile);
      lines.push_back(key + "horovod\t" + HorovodLine(horovod));
      const int horovod_workers = static_cast<int>(horovod.worker_gpus.size());
      lines.push_back(key + "horovod_cross_node_bytes\t" +
                      std::to_string(HorovodCrossNodeBytes(graph.total_param_bytes(),
                                                           horovod_workers)));
      PsDpOptions ps;
      ps.mode = PsSyncMode::kBsp;
      lines.push_back(key + "ps-bsp\t" + PsLine(SimulatePsDataParallel(cluster, profile, ps)));
      ps.mode = PsSyncMode::kSsp;
      ps.staleness = 3;
      lines.push_back(key + "ps-ssp3\t" + PsLine(SimulatePsDataParallel(cluster, profile, ps)));
      ps.mode = PsSyncMode::kAsp;
      ps.staleness = 0;
      lines.push_back(key + "ps-asp\t" + PsLine(SimulatePsDataParallel(cluster, profile, ps)));
      lines.push_back(key + "adpsgd\t" + AdPsgdLine(SimulateAdPsgd(cluster, profile)));

      // One virtual worker's split: the first ED virtual worker (the whole
      // node on a single-node cluster) at Nm 2.
      const cluster::Allocation alloc = cluster::Allocate(
          cluster, cluster.num_nodes() == 1 ? cluster::AllocationPolicy::kNodePartition
                                            : cluster::AllocationPolicy::kEqualDistribution);
      const partition::Partitioner partitioner(profile, cluster);
      partition::PartitionOptions options;
      options.nm = 2;
      const partition::Partition partition =
          partitioner.SolveScalable(alloc.vw_gpus.front(), options);
      lines.push_back(key + "vw\t" + oracles::PartitionSignature(partition));
      const ActivationTraffic traffic = ActivationTrafficByTier(partition, profile, cluster);
      lines.push_back(key + "activation_traffic\t" + std::to_string(traffic.intra_node_bytes) +
                      ' ' + std::to_string(traffic.same_rack_bytes) + ' ' +
                      std::to_string(traffic.cross_rack_bytes));
      for (const wsp::PlacementPolicy placement :
           {wsp::PlacementPolicy::kRoundRobin, wsp::PlacementPolicy::kLocal}) {
        const std::string pkey =
            key + (placement == wsp::PlacementPolicy::kLocal ? "local|" : "round-robin|");
        const wsp::VwCommTimes times = wsp::ComputePsCommTimes(partition, cluster, placement);
        lines.push_back(pkey + "ps_comm\t" + Hex(times.push_s) + ' ' + Hex(times.pull_s));
        for (const int nm : {1, 2, 3}) {
          lines.push_back(pkey + "ps_cross_node_bytes|nm" + std::to_string(nm) + '\t' +
                          std::to_string(wsp::PsCrossNodeBytesPerMinibatch(
                              partition, placement, cluster.num_nodes(), nm)));
        }
      }
    }
  }
  return lines;
}

TEST(DpBaselinesGoldenTest, BaselinesMatchRecordedResults) {
  EXPECT_EQ(oracles::CheckGolden("dp_baselines.txt",
                                 "Data-parallel baseline results and traffic counters "
                                 "(doubles in hexfloat): key \\t value.\n"
                                 "Regenerate with: UPDATE_GOLDEN=1 ./dp_test",
                                 DpBaselineGoldenLines()),
            "");
}

}  // namespace
}  // namespace hetpipe::dp
