#include "oracles/reference.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "partition/memory_model.h"

namespace hetpipe::oracles {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

uint64_t ParamBytesInRangeNaive(const model::ModelGraph& graph, int first, int last) {
  uint64_t total = 0;
  for (int i = first; i <= last; ++i) {
    total += graph.layer(i).param_bytes;
  }
  return total;
}

uint64_t StashBytesInRangeNaive(const model::ModelGraph& graph, int first, int last) {
  uint64_t total = 0;
  for (int i = first; i <= last; ++i) {
    total += graph.layer(i).stash_bytes;
  }
  return total;
}

double StageFwdTimeNaive(const model::ModelProfile& profile, int first, int last,
                         hw::GpuType gpu) {
  double t = 0.0;
  for (int i = first; i <= last; ++i) {
    t += profile.TimeOf(i, gpu).fwd_s;
  }
  return t;
}

double StageBwdTimeNaive(const model::ModelProfile& profile, int first, int last,
                         hw::GpuType gpu) {
  double t = 0.0;
  for (int i = first; i <= last; ++i) {
    t += profile.TimeOf(i, gpu).bwd_s;
  }
  return t;
}

double StageTotalTimeNaive(const model::ModelProfile& profile, int first, int last,
                           hw::GpuType gpu) {
  return StageFwdTimeNaive(profile, first, last, gpu) +
         StageBwdTimeNaive(profile, first, last, gpu);
}

partition::Partition SolveFixedOrderReference(const partition::Partitioner& partitioner,
                                              const std::vector<int>& gpu_ids,
                                              const partition::PartitionOptions& options,
                                              double prune_above) {
  const model::ModelProfile& profile = partitioner.profile();
  const hw::Cluster& cluster = partitioner.cluster();
  const int n = profile.num_layers();
  const int k = static_cast<int>(gpu_ids.size());
  partition::Partition result;
  if (k == 0 || n < k) {
    return result;
  }

  std::vector<hw::GpuType> types(static_cast<size_t>(k));
  std::vector<uint64_t> mem_caps(static_cast<size_t>(k));
  for (int q = 0; q < k; ++q) {
    types[static_cast<size_t>(q)] = cluster.gpu(gpu_ids[static_cast<size_t>(q)]).type;
    mem_caps[static_cast<size_t>(q)] = hw::MemoryBytes(types[static_cast<size_t>(q)]);
  }

  const auto stage_cost = [&](int q, int j, int i) -> double {
    double cost = StageTotalTimeNaive(profile, j, i, types[static_cast<size_t>(q)]);
    if (q > 0) {
      const auto& link = cluster.LinkBetween(gpu_ids[static_cast<size_t>(q) - 1],
                                             gpu_ids[static_cast<size_t>(q)]);
      cost += link.TransferTime(profile.BoundaryTransferBytes(j - 1));
    }
    if (q < k - 1) {
      const auto& link = cluster.LinkBetween(gpu_ids[static_cast<size_t>(q)],
                                             gpu_ids[static_cast<size_t>(q) + 1]);
      cost += link.TransferTime(profile.BoundaryTransferBytes(i));
    }
    return cost;
  };

  const auto stage_fits = [&](int q, int j, int i) -> bool {
    // O(stage-length) range sums per DP state.
    const uint64_t need = partition::StageMemoryBytesFromSums(
        ParamBytesInRangeNaive(profile.graph(), j, i),
        StashBytesInRangeNaive(profile.graph(), j, i),
        static_cast<uint64_t>(profile.batch_size()),
        static_cast<uint64_t>(partition::InFlightAtStage(q, k, options.nm)),
        options.mem_params);
    return need <= mem_caps[static_cast<size_t>(q)];
  };

  std::vector<std::vector<double>> dp(static_cast<size_t>(k) + 1,
                                      std::vector<double>(static_cast<size_t>(n) + 1, kInf));
  std::vector<std::vector<int>> choice(static_cast<size_t>(k) + 1,
                                       std::vector<int>(static_cast<size_t>(n) + 1, -1));
  dp[0][0] = 0.0;
  for (int q = 1; q <= k; ++q) {
    for (int i = q; i <= n - (k - q); ++i) {
      double best = kInf;
      int best_j = -1;
      for (int j = q - 1; j < i; ++j) {
        if (dp[static_cast<size_t>(q) - 1][static_cast<size_t>(j)] == kInf) {
          continue;
        }
        if (!stage_fits(q - 1, j, i - 1)) {
          continue;
        }
        const double cand = std::max(dp[static_cast<size_t>(q) - 1][static_cast<size_t>(j)],
                                     stage_cost(q - 1, j, i - 1));
        if (cand > prune_above) {
          continue;
        }
        if (cand < best) {
          best = cand;
          best_j = j;
        }
      }
      dp[static_cast<size_t>(q)][static_cast<size_t>(i)] = best;
      choice[static_cast<size_t>(q)][static_cast<size_t>(i)] = best_j;
    }
  }

  if (dp[static_cast<size_t>(k)][static_cast<size_t>(n)] == kInf) {
    return result;
  }

  std::vector<int> lasts(static_cast<size_t>(k));
  int i = n;
  for (int q = k; q >= 1; --q) {
    lasts[static_cast<size_t>(q) - 1] = i - 1;
    i = choice[static_cast<size_t>(q)][static_cast<size_t>(i)];
  }
  return partition::BuildFixedPartition(profile, cluster, gpu_ids, lasts, options.nm,
                                        options.mem_params);
}

partition::Partition SolveReference(const partition::Partitioner& partitioner,
                                    const std::vector<int>& gpu_ids,
                                    const partition::PartitionOptions& options) {
  if (!options.search_gpu_orders || gpu_ids.size() <= 1) {
    return SolveFixedOrderReference(partitioner, gpu_ids, options, kInf);
  }

  // Scan all k! id permutations, dedup by a per-candidate (type, node)
  // string signature.
  std::vector<int> ids = gpu_ids;
  std::sort(ids.begin(), ids.end());
  std::set<std::string> seen;
  std::vector<std::vector<int>> orders;
  do {
    std::string signature;
    for (int id : ids) {
      const hw::Gpu& g = partitioner.cluster().gpu(id);
      signature += std::to_string(static_cast<int>(g.type));
      signature.push_back('@');
      signature += std::to_string(g.node);
      signature.push_back(';');
    }
    if (seen.insert(signature).second) {
      orders.push_back(ids);
    }
  } while (std::next_permutation(ids.begin(), ids.end()));

  std::vector<partition::Partition> candidates(orders.size());
  double incumbent = kInf;
  for (size_t index = 0; index < orders.size(); ++index) {
    const double bound = options.prune ? incumbent : kInf;
    partition::Partition candidate =
        SolveFixedOrderReference(partitioner, orders[index], options, bound);
    if (candidate.feasible) {
      incumbent = std::min(incumbent, candidate.bottleneck_time);
    }
    candidates[index] = std::move(candidate);
  }

  partition::Partition best;
  for (const partition::Partition& candidate : candidates) {
    if (partition::ImprovesPartition(candidate, best)) {
      best = candidate;
    }
  }
  return best;
}

}  // namespace hetpipe::oracles
