#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cluster/allocator.h"
#include "hw/cluster.h"

namespace hetpipe::cluster {
namespace {

std::string VwCodes(const hw::Cluster& cluster, const std::vector<int>& vw) {
  std::string codes;
  for (int id : vw) {
    codes.push_back(hw::CodeOf(cluster.gpu(id).type));
  }
  std::sort(codes.begin(), codes.end());
  return codes;
}

void ExpectDisjointCover(const hw::Cluster& cluster, const Allocation& alloc) {
  std::set<int> seen;
  for (const auto& vw : alloc.vw_gpus) {
    for (int id : vw) {
      EXPECT_TRUE(seen.insert(id).second) << "GPU " << id << " assigned twice";
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), cluster.num_gpus());
}

TEST(AllocatorTest, NodePartitionMatchesTable3) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const Allocation alloc = Allocate(cluster, AllocationPolicy::kNodePartition);
  ASSERT_EQ(alloc.num_vws(), 4);
  EXPECT_EQ(VwCodes(cluster, alloc.vw_gpus[0]), "VVVV");
  EXPECT_EQ(VwCodes(cluster, alloc.vw_gpus[1]), "RRRR");
  EXPECT_EQ(VwCodes(cluster, alloc.vw_gpus[2]), "GGGG");
  EXPECT_EQ(VwCodes(cluster, alloc.vw_gpus[3]), "QQQQ");
  ExpectDisjointCover(cluster, alloc);
}

TEST(AllocatorTest, EqualDistributionMatchesTable3) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const Allocation alloc = Allocate(cluster, AllocationPolicy::kEqualDistribution);
  ASSERT_EQ(alloc.num_vws(), 4);
  for (const auto& vw : alloc.vw_gpus) {
    EXPECT_EQ(VwCodes(cluster, vw), "GQRV");  // sorted VRGQ
  }
  ExpectDisjointCover(cluster, alloc);
}

TEST(AllocatorTest, HybridDistributionMatchesTable3) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const Allocation alloc = Allocate(cluster, AllocationPolicy::kHybridDistribution);
  ASSERT_EQ(alloc.num_vws(), 4);
  // Table 3: two VWs of VVQQ and two of RRGG.
  int vvqq = 0;
  int rrgg = 0;
  for (const auto& vw : alloc.vw_gpus) {
    const std::string codes = VwCodes(cluster, vw);
    vvqq += (codes == "QQVV");
    rrgg += (codes == "GGRR");
  }
  EXPECT_EQ(vvqq, 2);
  EXPECT_EQ(rrgg, 2);
  ExpectDisjointCover(cluster, alloc);
}

TEST(AllocatorTest, HdRequiresFourByFour) {
  const hw::Cluster small = hw::Cluster::PaperSubset("VR");
  EXPECT_THROW(Allocate(small, AllocationPolicy::kHybridDistribution), std::invalid_argument);
}

TEST(AllocatorTest, EdOnSubsets) {
  const hw::Cluster cluster = hw::Cluster::PaperSubset("VRQ");
  const Allocation alloc = Allocate(cluster, AllocationPolicy::kEqualDistribution);
  ASSERT_EQ(alloc.num_vws(), 4);
  for (const auto& vw : alloc.vw_gpus) {
    ASSERT_EQ(vw.size(), 3u);  // one GPU per node
    EXPECT_EQ(VwCodes(cluster, vw), "QRV");
  }
}

TEST(AllocatorTest, NpOnSingleNode) {
  const hw::Cluster cluster = hw::Cluster::PaperSubset("V");
  const Allocation alloc = Allocate(cluster, AllocationPolicy::kNodePartition);
  ASSERT_EQ(alloc.num_vws(), 1);
  EXPECT_EQ(alloc.vw_gpus[0].size(), 4u);
}

TEST(AllocatorTest, ComputeRankOrdering) {
  // §8.1: V > R > G > Q in compute power.
  const hw::Cluster paper = hw::Cluster::Paper();
  EXPECT_LT(ComputeRank(paper, hw::GpuType::kTitanV), ComputeRank(paper, hw::GpuType::kTitanRtx));
  EXPECT_LT(ComputeRank(paper, hw::GpuType::kTitanRtx),
            ComputeRank(paper, hw::GpuType::kRtx2060));
  EXPECT_LT(ComputeRank(paper, hw::GpuType::kRtx2060),
            ComputeRank(paper, hw::GpuType::kQuadroP4000));
}

TEST(AllocatorTest, ToStringContainsPolicyAndCodes) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const Allocation alloc = Allocate(cluster, AllocationPolicy::kEqualDistribution);
  const std::string s = alloc.ToString(cluster);
  EXPECT_NE(s.find("ED"), std::string::npos);
  EXPECT_NE(s.find("VRGQ"), std::string::npos);
}

TEST(AllocatorTest, PolicyNames) {
  EXPECT_STREQ(PolicyName(AllocationPolicy::kNodePartition), "NP");
  EXPECT_STREQ(PolicyName(AllocationPolicy::kEqualDistribution), "ED");
  EXPECT_STREQ(PolicyName(AllocationPolicy::kHybridDistribution), "HD");
}

}  // namespace
}  // namespace hetpipe::cluster
