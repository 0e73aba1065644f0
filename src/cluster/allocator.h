#pragma once

#include <string>
#include <vector>

#include "hw/cluster.h"

namespace hetpipe::cluster {

// The three resource-allocation policies of §8.1 (Table 3).
enum class AllocationPolicy {
  kNodePartition,      // NP: one node per virtual worker (homogeneous VWs)
  kEqualDistribution,  // ED: one GPU of every node per virtual worker
  kHybridDistribution, // HD: pair strong and weak node types (VVQQ / RRGG)
};

const char* PolicyName(AllocationPolicy policy);

// GPUs assigned to each virtual worker.
struct Allocation {
  AllocationPolicy policy = AllocationPolicy::kNodePartition;
  std::vector<std::vector<int>> vw_gpus;

  int num_vws() const { return static_cast<int>(vw_gpus.size()); }
  // e.g. "NP: [VVVV][RRRR][GGGG][QQQQ]".
  std::string ToString(const hw::Cluster& cluster) const;
};

// Allocates the cluster's GPUs to virtual workers.
//  NP: one VW per node.
//  ED: VW i takes the i-th GPU of every node (requires gpus_per_node VWs).
//  HD: requires 4 nodes x 4 GPUs; ranks node types by compute power
//      (V > R > G > Q, §8.1) and builds two VWs from {strongest, weakest}
//      and two from the middle pair, reproducing Table 3's VVQQ/RRGG split.
Allocation Allocate(const hw::Cluster& cluster, AllocationPolicy policy);

// Compute-power rank of a GPU class (0 = strongest) among the classes of
// `cluster`: §8.1's V > R > G > Q on the paper testbed, declared TFLOPS
// ordering for classes a hw::ClusterSpec declares.
int ComputeRank(const hw::Cluster& cluster, hw::GpuType type);

}  // namespace hetpipe::cluster
