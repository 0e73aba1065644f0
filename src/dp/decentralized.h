#pragma once

#include "hw/cluster.h"
#include "model/profiler.h"
#include "partition/memory_model.h"

namespace hetpipe::dp {

// AD-PSGD-style decentralized data parallelism (Lian et al., discussed in the
// paper's §9): no parameter server — after each minibatch a worker averages
// its weights with one randomly chosen neighbor and keeps going, so fast
// workers are never blocked. The paper positions this as orthogonal/future
// work for when the PS becomes a bottleneck; the model here provides the
// comparison point.
struct DecentralizedResult {
  bool feasible = false;
  int num_workers = 0;
  int num_excluded = 0;
  double throughput_img_s = 0.0;
  double avg_pairwise_comm_s = 0.0;
  // Neighbor-averaging acts like staleness ~ mixing time of the gossip graph.
  double expected_staleness = 0.0;
};

// Every GPU that fits the model is a worker; each iteration costs its own
// compute plus the exposed part of one pairwise weight exchange (weights up
// and down over the link to a random peer, usually across Infiniband).
DecentralizedResult SimulateAdPsgd(const hw::Cluster& cluster,
                                   const model::ModelProfile& profile,
                                   const partition::StageMemoryParams& mem_params = {});

}  // namespace hetpipe::dp
