#pragma once

#include <string>
#include <vector>

#include "hw/cluster.h"
#include "model/profiler.h"
#include "partition/memory_model.h"

namespace hetpipe::dp {

// Result of the Horovod-style BSP data-parallel baseline (§8.1's "DP via
// Horovod that uses AllReduce communication").
struct HorovodResult {
  bool feasible = false;        // at least one GPU fits the model
  std::vector<int> worker_gpus; // GPUs that fit the model and participate
  int num_excluded = 0;         // GPUs whose memory the model exceeds
  double compute_s = 0.0;       // slowest worker's minibatch time (BSP barrier)
  double allreduce_s = 0.0;     // full ring AllReduce of the gradients
  double exposed_comm_s = 0.0;  // AllReduce not hidden under compute
  double iteration_s = 0.0;
  double throughput_img_s = 0.0;

  std::string ToString() const;
};

// Simulates synchronous data parallelism over every GPU of `cluster` that can
// hold the whole model (ResNet-152 at batch 32 does not fit the 6 GiB
// RTX 2060, so those GPUs are excluded, reproducing the paper's "Horovod uses
// only 12 GPUs"). Iteration time = max worker compute (stragglers!) +
// exposed ring-AllReduce time.
HorovodResult SimulateHorovod(const hw::Cluster& cluster, const model::ModelProfile& profile,
                              const partition::StageMemoryParams& mem_params = {});

}  // namespace hetpipe::dp
