#include "dp/decentralized.h"

#include <algorithm>
#include <cmath>

#include "dp/placement.h"

namespace hetpipe::dp {
namespace {

// Fraction of the pairwise exchange overlapped with compute (gossip can be
// fully asynchronous; some serialization remains at the endpoints).
constexpr double kCommOverlap = 0.5;

}  // namespace

DecentralizedResult SimulateAdPsgd(const hw::Cluster& cluster,
                                   const model::ModelProfile& profile,
                                   const partition::StageMemoryParams& mem_params) {
  DecentralizedResult result;
  const std::vector<int> workers = DataParallelWorkers(cluster, profile, mem_params);
  result.num_excluded = cluster.num_gpus() - static_cast<int>(workers.size());
  if (workers.empty()) {
    return result;
  }
  result.feasible = true;
  result.num_workers = static_cast<int>(workers.size());

  // A random peer is on another node with probability ~ (N - g)/(N - 1) for
  // g workers per node; weight it between the PCIe and Infiniband exchange.
  const uint64_t params = profile.graph().total_param_bytes();
  const double n = static_cast<double>(result.num_workers);

  double sum_rate = 0.0;
  double sum_comm = 0.0;
  for (int id : workers) {
    int same_node = 0;
    for (int other : workers) {
      same_node += (other != id && cluster.SameNode(id, other)) ? 1 : 0;
    }
    const double p_local = n > 1.0 ? same_node / (n - 1.0) : 0.0;
    // Exchange both directions: 2x params over the chosen link.
    const int node = cluster.gpu(id).node;
    double cross_s = 0.0;
    if (cluster.UniformFabric()) {
      // Uniform fabric: every cross-node peer costs the same shared inter
      // link, so the historical single-term expression is exact; keeping it
      // keeps uniform-fabric results bit-identical to pre-topology releases.
      cross_s = cluster.WorstInterTransferTimeFrom(node, 2 * params);
    } else {
      // Rack topology / link overrides: gossip peers are the *actual* other
      // workers, so average the exchange over their nodes' resolved pair
      // links — a peer behind a degraded cross-rack link costs what that
      // link charges, and degrading a pair no worker touches changes
      // nothing.
      int cross_peers = 0;
      for (int other : workers) {
        if (other == id || cluster.SameNode(id, other)) continue;
        cross_s += cluster.LinkBetweenNodes(node, cluster.gpu(other).node)
                       .TransferTime(2 * params);
        ++cross_peers;
      }
      cross_s = cross_peers > 0 ? cross_s / cross_peers : 0.0;
    }
    const double comm =
        p_local * cluster.pcie().TransferTime(2 * params) + (1.0 - p_local) * cross_s;
    const double exposed = comm * (1.0 - kCommOverlap);
    const double compute = profile.FullModelTime(cluster.gpu(id).type);
    sum_rate += profile.batch_size() / (compute + exposed);
    sum_comm += comm;
  }
  result.throughput_img_s = sum_rate;
  result.avg_pairwise_comm_s = sum_comm / n;
  // Gossip averaging mixes information in O(log N) rounds; until then other
  // workers' updates are effectively missing.
  result.expected_staleness = (n - 1.0) * std::log2(std::max(2.0, n));
  return result;
}

}  // namespace hetpipe::dp
