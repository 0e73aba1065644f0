#pragma once

#include "hw/cluster.h"
#include "model/profiler.h"
#include "partition/memory_model.h"

namespace hetpipe::dp {

// Analytic models of classic parameter-server data parallelism (§2.2): each
// GPU that can hold the whole model is one worker; all workers push gradients
// to and pull weights from PS shards spread round-robin over the nodes.
// These are the BSP / SSP / ASP reference points WSP generalizes.
enum class PsSyncMode {
  kBsp,  // barrier every iteration: pay the slowest worker + max noise
  kSsp,  // bounded staleness s: noise amortized over the slack window
  kAsp,  // no barrier: every worker runs at its own speed
};

struct PsDpOptions {
  PsSyncMode mode = PsSyncMode::kBsp;
  int staleness = 0;  // SSP threshold s
};

struct PsDpResult {
  bool feasible = false;
  int num_workers = 0;
  int num_excluded = 0;
  double slowest_compute_s = 0.0;
  double comm_s = 0.0;            // per-iteration PS push+pull per worker
  double sync_overhead_s = 0.0;   // barrier/noise cost per iteration
  double throughput_img_s = 0.0;
  // Expected missing updates a gradient is computed against (0 for BSP),
  // feeding the convergence model.
  double expected_staleness = 0.0;
};

// Simulates PS-based DP over every GPU of `cluster` that fits the model.
PsDpResult SimulatePsDataParallel(const hw::Cluster& cluster,
                                  const model::ModelProfile& profile,
                                  const PsDpOptions& options = {},
                                  const partition::StageMemoryParams& mem_params = {});

}  // namespace hetpipe::dp
