#pragma once

#include <cstdint>
#include <vector>

#include "hw/cluster.h"
#include "partition/memory_model.h"
#include "partition/partitioner.h"

namespace hetpipe::dp {

// The workers of every data-parallel baseline: the ids, in GPU-id order, of
// the GPUs whose memory holds the whole model (partition::FitsOnSingleGpu).
// Every other GPU is excluded — ResNet-152 at batch 32 leaves out the paper
// testbed's four 6 GiB RTX 2060s, the paper's "Horovod uses only 12 GPUs".
std::vector<int> DataParallelWorkers(const hw::Cluster& cluster,
                                     const model::ModelProfile& profile,
                                     const partition::StageMemoryParams& mem_params);

// Cross-node traffic accounting backing the §8.3 comparison ("the amount of
// data transferred across the nodes with ED-local (103MB) is much smaller
// than that with Horovod (515MB)"). The parameter-server side is
// wsp::PsCrossNodeBytesPerMinibatch, next to the shard rule it counts.

// Inter-node bytes one Horovod worker contributes per iteration: a ring
// AllReduce moves (N-1)/N of the gradient bytes through each worker per
// direction (the paper's accounting counts one direction).
uint64_t HorovodCrossNodeBytes(uint64_t param_bytes, int num_workers);

// Inter-node activation + gradient bytes one virtual worker moves per
// minibatch, split by link tier: every stage boundary carries the boundary
// activations forward and a same-sized gradient back, intra-node
// (PCIe-class), cross-node within one rack, or cross-rack. On a cluster
// without rack structure every cross-node byte counts as same-rack; the
// cross-node total is same_rack_bytes + cross_rack_bytes.
struct ActivationTraffic {
  uint64_t intra_node_bytes = 0;
  uint64_t same_rack_bytes = 0;   // cross-node, same rack
  uint64_t cross_rack_bytes = 0;  // cross-node, different racks
};
ActivationTraffic ActivationTrafficByTier(const partition::Partition& partition,
                                          const model::ModelProfile& profile,
                                          const hw::Cluster& cluster);

}  // namespace hetpipe::dp
