#include "dp/ps_baselines.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "dp/placement.h"
#include "wsp/param_server.h"

namespace hetpipe::dp {
namespace {

// Per-iteration compute-time noise (stragglers), as a fraction of the
// slowest worker's compute.
constexpr double kNoiseCv = 0.10;

}  // namespace

PsDpResult SimulatePsDataParallel(const hw::Cluster& cluster,
                                  const model::ModelProfile& profile,
                                  const PsDpOptions& options,
                                  const partition::StageMemoryParams& mem_params) {
  PsDpResult result;
  const std::vector<int> workers = DataParallelWorkers(cluster, profile, mem_params);
  result.num_excluded = cluster.num_gpus() - static_cast<int>(workers.size());
  if (workers.empty()) {
    return result;
  }
  result.feasible = true;
  result.num_workers = static_cast<int>(workers.size());

  // Per-worker compute and PS traffic. Parameters are sharded round-robin
  // over the nodes: each worker pushes gradients and pulls weights (2x the
  // parameter bytes), 1/H of them local (PCIe), the rest across the node
  // NIC, which every worker on the node shares.
  const int num_nodes = cluster.num_nodes();
  const wsp::ShardSplit split = wsp::SplitShards(2 * profile.graph().total_param_bytes(),
                                                 wsp::PlacementPolicy::kRoundRobin, num_nodes);
  std::map<int, int> workers_per_node;
  for (int id : workers) {
    ++workers_per_node[cluster.gpu(id).node];
  }

  double min_compute = 1e30;
  double sum_rate_asp = 0.0;
  double worst_iteration = 0.0;
  for (int id : workers) {
    const double compute = profile.FullModelTime(cluster.gpu(id).type);
    result.slowest_compute_s = std::max(result.slowest_compute_s, compute);
    min_compute = std::min(min_compute, compute);

    const int node = cluster.gpu(id).node;
    const int sharing = workers_per_node[node];
    double inter_s = 0.0;
    if (cluster.UniformFabric() || num_nodes <= 1) {
      // Uniform fabric: every destination uses the one shared inter link, and
      // the historical aggregate formula is exact. Kept as the literal
      // expression (not the per-destination sum below, whose float additions
      // associate differently) so uniform-fabric results stay bit-identical
      // to every release before per-pair links existed.
      inter_s = cluster.WorstInterTransferTimeFrom(node, split.remote);
    } else {
      // Rack topology / link overrides: the remote shards live one per other
      // node, so price each destination over its actual resolved pair link.
      // Shards are the round-robin split of the remote bytes with the remainder
      // spread over the first destinations in node order.
      const uint64_t destinations = static_cast<uint64_t>(num_nodes - 1);
      const uint64_t base = split.remote / destinations;
      uint64_t extra = split.remote % destinations;
      for (int dest = 0; dest < num_nodes; ++dest) {
        if (dest == node) continue;
        const uint64_t shard = base + (extra > 0 ? 1 : 0);
        if (extra > 0) --extra;
        inter_s += cluster.LinkBetweenNodes(node, dest).TransferTime(shard);
      }
    }
    // The node's workers share its NIC, local shards move over PCIe.
    const double comm = cluster.pcie().TransferTime(split.local) + inter_s * sharing;
    result.comm_s = std::max(result.comm_s, comm);
    sum_rate_asp += profile.batch_size() / (compute + comm);
    worst_iteration = std::max(worst_iteration, compute + comm);
  }

  // Straggler noise: BSP pays the expected maximum of N iid per-iteration
  // deviations every iteration; SSP amortizes it over its slack window of
  // s iterations; ASP pays none.
  const double n = static_cast<double>(result.num_workers);
  const double max_noise = kNoiseCv * result.slowest_compute_s *
                           std::sqrt(2.0 * std::log(std::max(2.0, n)));
  switch (options.mode) {
    case PsSyncMode::kBsp:
      result.sync_overhead_s = max_noise;
      result.expected_staleness = 0.0;
      break;
    case PsSyncMode::kSsp:
      result.sync_overhead_s = max_noise / static_cast<double>(options.staleness + 1);
      // Each gradient misses on average ~s/2 updates from each other worker.
      result.expected_staleness = (n - 1.0) * (0.5 + options.staleness / 2.0);
      break;
    case PsSyncMode::kAsp:
      result.sync_overhead_s = 0.0;
      // Unbounded in theory; in steady state the lag tracks the rate spread.
      result.expected_staleness = (n - 1.0) * (result.slowest_compute_s / min_compute);
      break;
  }

  if (options.mode == PsSyncMode::kAsp) {
    result.throughput_img_s = sum_rate_asp;
  } else {
    // Bounded clock distance: every worker advances at the gated rate.
    const double iteration = worst_iteration + result.sync_overhead_s;
    result.throughput_img_s = n * profile.batch_size() / iteration;
  }
  return result;
}

}  // namespace hetpipe::dp
