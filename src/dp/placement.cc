#include "dp/placement.h"

namespace hetpipe::dp {

std::vector<int> DataParallelWorkers(const hw::Cluster& cluster,
                                     const model::ModelProfile& profile,
                                     const partition::StageMemoryParams& mem_params) {
  std::vector<int> workers;
  for (const hw::Gpu& gpu : cluster.gpus()) {
    if (partition::FitsOnSingleGpu(profile, gpu.type, mem_params)) {
      workers.push_back(gpu.id);
    }
  }
  return workers;
}

uint64_t HorovodCrossNodeBytes(uint64_t param_bytes, int num_workers) {
  if (num_workers <= 1) {
    return 0;
  }
  return param_bytes * static_cast<uint64_t>(num_workers - 1) /
         static_cast<uint64_t>(num_workers);
}

ActivationTraffic ActivationTrafficByTier(const partition::Partition& partition,
                                          const model::ModelProfile& profile,
                                          const hw::Cluster& cluster) {
  ActivationTraffic traffic;
  for (size_t q = 1; q < partition.stages.size(); ++q) {
    const auto& prev = partition.stages[q - 1];
    const auto& cur = partition.stages[q];
    // Forward activations plus the same-sized backward gradients.
    const uint64_t bytes = 2 * profile.BoundaryTransferBytes(prev.last_layer);
    if (prev.node == cur.node) {
      traffic.intra_node_bytes += bytes;
    } else if (cluster.SameRack(prev.node, cur.node)) {
      traffic.same_rack_bytes += bytes;
    } else {
      traffic.cross_rack_bytes += bytes;
    }
  }
  return traffic;
}

}  // namespace hetpipe::dp
