#include "cluster/allocator.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace hetpipe::cluster {

const char* PolicyName(AllocationPolicy policy) {
  switch (policy) {
    case AllocationPolicy::kNodePartition:
      return "NP";
    case AllocationPolicy::kEqualDistribution:
      return "ED";
    case AllocationPolicy::kHybridDistribution:
      return "HD";
  }
  return "?";
}

int ComputeRank(const hw::Cluster& cluster, hw::GpuType type) {
  // Rank by sustained compute throughput, strongest first. On the paper
  // classes this reproduces §8.1's ordering V > R > G > Q; declared classes
  // slot in by their declared TFLOPS (ties break toward the earlier class in
  // the cluster's class order).
  const hw::GpuSpec& mine = hw::SpecOf(type);
  int rank = 0;
  for (hw::GpuType other_type : cluster.classes()) {
    const hw::GpuSpec& other = hw::SpecOf(other_type);
    if (other.effective_tflops > mine.effective_tflops ||
        (other.effective_tflops == mine.effective_tflops && other.order < mine.order)) {
      ++rank;
    }
  }
  return rank;
}

std::string Allocation::ToString(const hw::Cluster& cluster) const {
  std::ostringstream os;
  os << PolicyName(policy) << ":";
  for (const std::vector<int>& vw : vw_gpus) {
    os << " [";
    for (int id : vw) {
      os << hw::CodeOf(cluster.gpu(id).type);
    }
    os << ']';
  }
  return os.str();
}

namespace {

Allocation AllocateNp(const hw::Cluster& cluster) {
  Allocation allocation;
  allocation.policy = AllocationPolicy::kNodePartition;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    allocation.vw_gpus.push_back(cluster.GpusOnNode(n));
  }
  return allocation;
}

Allocation AllocateEd(const hw::Cluster& cluster) {
  // One GPU of every node per virtual worker. On clusters with unequal node
  // sizes the number of VWs is the largest node's GPU count, and smaller
  // nodes simply contribute to the first VWs only. Mixed-class nodes hand
  // out their GPUs in declaration (GPU-id) order, so VW i receives the i-th
  // declared GPU of every node — deterministic and spec-controlled.
  Allocation allocation;
  allocation.policy = AllocationPolicy::kEqualDistribution;
  allocation.vw_gpus.resize(static_cast<size_t>(cluster.gpus_per_node()));
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    const std::vector<int> ids = cluster.GpusOnNode(n);
    for (size_t i = 0; i < ids.size(); ++i) {
      allocation.vw_gpus[i].push_back(ids[i]);
    }
  }
  return allocation;
}

Allocation AllocateHd(const hw::Cluster& cluster) {
  bool homogeneous_nodes = true;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    homogeneous_nodes = homogeneous_nodes && cluster.NodeHomogeneous(n);
  }
  if (cluster.num_nodes() != 4 || cluster.gpus_per_node() != 4 ||
      !cluster.UniformGpusPerNode() || !homogeneous_nodes) {
    throw std::invalid_argument(
        "HD allocation requires a 4-node x 4-GPU cluster of homogeneous nodes");
  }
  // Order nodes by compute power, then pair (strongest, weakest) and the two
  // middle nodes; each pair yields two virtual workers with 2 + 2 GPUs.
  std::vector<int> nodes(4);
  std::iota(nodes.begin(), nodes.end(), 0);
  std::sort(nodes.begin(), nodes.end(), [&](int a, int b) {
    return ComputeRank(cluster, cluster.NodeType(a)) < ComputeRank(cluster, cluster.NodeType(b));
  });

  Allocation allocation;
  allocation.policy = AllocationPolicy::kHybridDistribution;
  const std::pair<int, int> pairs[] = {{nodes[0], nodes[3]}, {nodes[1], nodes[2]}};
  for (const auto& [strong, weak] : pairs) {
    const std::vector<int> strong_ids = cluster.GpusOnNode(strong);
    const std::vector<int> weak_ids = cluster.GpusOnNode(weak);
    for (int half = 0; half < 2; ++half) {
      std::vector<int> vw;
      vw.push_back(strong_ids[static_cast<size_t>(half) * 2]);
      vw.push_back(strong_ids[static_cast<size_t>(half) * 2 + 1]);
      vw.push_back(weak_ids[static_cast<size_t>(half) * 2]);
      vw.push_back(weak_ids[static_cast<size_t>(half) * 2 + 1]);
      allocation.vw_gpus.push_back(std::move(vw));
    }
  }
  return allocation;
}

}  // namespace

Allocation Allocate(const hw::Cluster& cluster, AllocationPolicy policy) {
  switch (policy) {
    case AllocationPolicy::kNodePartition:
      return AllocateNp(cluster);
    case AllocationPolicy::kEqualDistribution:
      return AllocateEd(cluster);
    case AllocationPolicy::kHybridDistribution:
      return AllocateHd(cluster);
  }
  throw std::invalid_argument("unknown allocation policy");
}

}  // namespace hetpipe::cluster
