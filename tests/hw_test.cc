#include <gtest/gtest.h>

#include "hw/cluster.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"

namespace hetpipe::hw {
namespace {

TEST(GpuSpecTest, Table1Values) {
  const GpuSpec& v = SpecOf(GpuType::kTitanV);
  EXPECT_STREQ(v.name, "TITAN V");
  EXPECT_EQ(v.cuda_cores, 5120);
  EXPECT_EQ(v.boost_clock_mhz, 1455);
  EXPECT_DOUBLE_EQ(v.memory_gib, 12.0);
  EXPECT_DOUBLE_EQ(v.memory_bw_gbps, 653.0);

  const GpuSpec& r = SpecOf(GpuType::kTitanRtx);
  EXPECT_EQ(r.cuda_cores, 4608);
  EXPECT_DOUBLE_EQ(r.memory_gib, 24.0);

  const GpuSpec& g = SpecOf(GpuType::kRtx2060);
  EXPECT_EQ(g.cuda_cores, 1920);
  EXPECT_DOUBLE_EQ(g.memory_gib, 6.0);

  const GpuSpec& q = SpecOf(GpuType::kQuadroP4000);
  EXPECT_EQ(q.cuda_cores, 1792);
  EXPECT_DOUBLE_EQ(q.memory_gib, 8.0);
  EXPECT_DOUBLE_EQ(q.memory_bw_gbps, 243.0);
}

TEST(GpuSpecTest, CodesRoundTrip) {
  for (const GpuSpec& spec : kTable1Specs) {
    EXPECT_EQ(TypeFromCode(spec.code), GpuType(&spec));
    EXPECT_EQ(CodeOf(GpuType(&spec)), spec.code);
  }
}

TEST(GpuSpecTest, ParseGpuCodes) {
  const auto types = ParseGpuCodes("VRGQ");
  ASSERT_EQ(types.size(), 4u);
  EXPECT_EQ(types[0], GpuType::kTitanV);
  EXPECT_EQ(types[1], GpuType::kTitanRtx);
  EXPECT_EQ(types[2], GpuType::kRtx2060);
  EXPECT_EQ(types[3], GpuType::kQuadroP4000);
  EXPECT_EQ(GpuCodes(types), "VRGQ");
}

TEST(GpuSpecTest, UnknownCodeThrows) {
  EXPECT_THROW(TypeFromCode('X'), std::invalid_argument);
  EXPECT_THROW(ParseGpuCodes("VZ"), std::invalid_argument);
}

TEST(GpuSpecTest, MemoryBytes) {
  EXPECT_EQ(MemoryBytes(GpuType::kRtx2060), 6ULL << 30);
  EXPECT_EQ(MemoryBytes(GpuType::kTitanRtx), 24ULL << 30);
}

TEST(LinkTest, PcieTransferScalesWithBytes) {
  const PcieLink link;
  EXPECT_DOUBLE_EQ(link.TransferTime(0), 0.0);
  const double t1 = link.TransferTime(1 << 20);
  const double t2 = link.TransferTime(2 << 20);
  EXPECT_GT(t2, t1);
  // Effective bandwidth is the scaled-down peak.
  EXPECT_NEAR(link.EffectiveBandwidth(), 15.75e9 * PcieLink::kDefaultScaling, 1.0);
}

TEST(LinkTest, InfinibandSlowerThanPcie) {
  const PcieLink pcie;
  const InfinibandLink ib;
  const uint64_t bytes = 100ULL << 20;
  EXPECT_GT(ib.TransferTime(bytes), pcie.TransferTime(bytes));
}

TEST(LinkTest, InfinibandLinearModel) {
  const InfinibandLink ib;
  const double t1 = ib.TransferTime(10 << 20);
  const double t2 = ib.TransferTime(20 << 20);
  // Linear: doubling payload roughly doubles the bandwidth term.
  const double slope1 = t1 - InfinibandLink::kDefaultIntercept;
  const double slope2 = t2 - InfinibandLink::kDefaultIntercept;
  EXPECT_NEAR(slope2 / slope1, 2.0, 1e-9);
}

TEST(ClusterTest, PaperClusterShape) {
  const Cluster cluster = Cluster::Paper();
  EXPECT_EQ(cluster.num_nodes(), 4);
  EXPECT_EQ(cluster.gpus_per_node(), 4);
  EXPECT_EQ(cluster.num_gpus(), 16);
  EXPECT_EQ(cluster.NodeType(0), GpuType::kTitanV);
  EXPECT_EQ(cluster.NodeType(1), GpuType::kTitanRtx);
  EXPECT_EQ(cluster.NodeType(2), GpuType::kRtx2060);
  EXPECT_EQ(cluster.NodeType(3), GpuType::kQuadroP4000);
}

TEST(ClusterTest, GpuIdsAndNodesConsistent) {
  const Cluster cluster = Cluster::Paper();
  for (int id = 0; id < cluster.num_gpus(); ++id) {
    const Gpu& gpu = cluster.gpu(id);
    EXPECT_EQ(gpu.id, id);
    EXPECT_EQ(gpu.node, id / 4);
    EXPECT_EQ(gpu.type, cluster.NodeType(gpu.node));
  }
}

TEST(ClusterTest, GpusOnNode) {
  const Cluster cluster = Cluster::Paper();
  const auto ids = cluster.GpusOnNode(2);
  ASSERT_EQ(ids.size(), 4u);
  for (int id : ids) {
    EXPECT_EQ(cluster.gpu(id).type, GpuType::kRtx2060);
  }
}

TEST(ClusterTest, LinkSelection) {
  const Cluster cluster = Cluster::Paper();
  // Same node -> PCIe (faster); across nodes -> Infiniband.
  const uint64_t bytes = 64ULL << 20;
  const double intra = cluster.LinkBetween(0, 1).TransferTime(bytes);
  const double inter = cluster.LinkBetween(0, 4).TransferTime(bytes);
  EXPECT_LT(intra, inter);
  EXPECT_TRUE(cluster.SameNode(0, 3));
  EXPECT_FALSE(cluster.SameNode(3, 4));
}

TEST(ClusterTest, PaperSubset) {
  const Cluster cluster = Cluster::PaperSubset("VR");
  EXPECT_EQ(cluster.num_gpus(), 8);
  EXPECT_EQ(cluster.num_nodes(), 2);
  EXPECT_EQ(cluster.NodeType(1), GpuType::kTitanRtx);
}

TEST(ClusterTest, ToStringMentionsLayout) {
  const Cluster cluster = Cluster::PaperSubset("VG");
  const std::string s = cluster.ToString();
  EXPECT_NE(s.find("VVVV"), std::string::npos);
  EXPECT_NE(s.find("GGGG"), std::string::npos);
}

}  // namespace
}  // namespace hetpipe::hw
