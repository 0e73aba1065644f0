#include "partition/partitioner.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace hetpipe::partition {

bool ImprovesPartition(const Partition& candidate, const Partition& best) {
  if (!candidate.feasible) {
    return false;
  }
  return !best.feasible || candidate.bottleneck_time < best.bottleneck_time ||
         (candidate.bottleneck_time == best.bottleneck_time &&
          candidate.sum_time < best.sum_time);
}

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Flat scratch buffers for SolveFixedOrder and DpRow, one set per thread (the
// GPU-order search runs SolveFixedOrder concurrently on pool workers). Buffers only
// ever grow, so after the first solve of the largest (k, n) shape a thread
// sees, repeated solves allocate nothing.
struct DpScratch {
  std::vector<double> dp;          // (k+1) x (n+1), row-major
  std::vector<int> choice;         // (k+1) x (n+1), row-major
  std::vector<double> xfer;        // (k-1) x (n-1): boundary transfer seconds
  std::vector<double> fwd_xfer;    // n: per-row shifted fwd-comm terms (SoA)
  std::vector<double> vals;        // n: masked candidate bottlenecks (SoA)
  std::vector<int> lasts;          // k
  int64_t grows = 0;

  template <typename T>
  T* Ensure(std::vector<T>& v, size_t need) {
    if (v.size() < need) {
      if (v.capacity() < need) {
        ++grows;
      }
      v.resize(need);
    }
    return v.data();
  }
};

DpScratch& LocalScratch() {
  static thread_local DpScratch scratch;
  return scratch;
}

}  // namespace

int64_t DpScratchGrowCount() { return LocalScratch().grows; }

std::string Partition::ToString(const model::ModelProfile& profile) const {
  if (!feasible) {
    return "infeasible";
  }
  std::string out;
  out.reserve(24 + stages.size() * 64);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "bottleneck %g ms:", bottleneck_time * 1e3);
  out += buf;
  for (const StageAssignment& s : stages) {
    out += " [";
    out += profile.graph().layer(s.first_layer).name;
    out += "..";
    out += profile.graph().layer(s.last_layer).name;
    out += " on ";
    out += hw::CodeOf(s.gpu_type);
    std::snprintf(buf, sizeof(buf), " %gms %lluMiB]", s.TotalTime() * 1e3,
                  static_cast<unsigned long long>(s.memory_bytes >> 20));
    out += buf;
  }
  return out;
}

Partitioner::Partitioner(const model::ModelProfile& profile, const hw::Cluster& cluster)
    : profile_(&profile), cluster_(&cluster) {}

Partition BuildFixedPartition(const model::ModelProfile& profile, const hw::Cluster& cluster,
                              const std::vector<int>& gpu_ids,
                              const std::vector<int>& stage_lasts, int nm,
                              const StageMemoryParams& mem_params) {
  Partition result;
  const int k = static_cast<int>(gpu_ids.size());
  if (k == 0 || stage_lasts.size() != gpu_ids.size() ||
      stage_lasts.back() != profile.num_layers() - 1) {
    return result;
  }

  result.feasible = true;
  int first = 0;
  for (int q = 0; q < k; ++q) {
    StageAssignment stage;
    stage.first_layer = first;
    stage.last_layer = stage_lasts[static_cast<size_t>(q)];
    if (stage.last_layer < stage.first_layer) {
      return Partition{};  // empty stage: malformed boundaries
    }
    stage.gpu_id = gpu_ids[static_cast<size_t>(q)];
    stage.gpu_type = cluster.gpu(stage.gpu_id).type;
    stage.node = cluster.gpu(stage.gpu_id).node;
    stage.fwd_compute_s =
        profile.StageFwdTime(stage.first_layer, stage.last_layer, stage.gpu_type);
    stage.bwd_compute_s =
        profile.StageBwdTime(stage.first_layer, stage.last_layer, stage.gpu_type);
    if (q > 0) {
      const auto& link = cluster.LinkBetween(gpu_ids[static_cast<size_t>(q) - 1],
                                             gpu_ids[static_cast<size_t>(q)]);
      stage.fwd_comm_in_s =
          link.TransferTime(profile.BoundaryTransferBytes(stage.first_layer - 1));
    }
    if (q < k - 1) {
      const auto& link = cluster.LinkBetween(gpu_ids[static_cast<size_t>(q)],
                                             gpu_ids[static_cast<size_t>(q) + 1]);
      stage.bwd_comm_in_s = link.TransferTime(profile.BoundaryTransferBytes(stage.last_layer));
    }
    stage.param_bytes =
        profile.graph().ParamBytesInRange(stage.first_layer, stage.last_layer);
    stage.memory_bytes = StageMemoryBytes(profile, stage.first_layer, stage.last_layer, q, k,
                                          nm, mem_params);
    stage.memory_cap = hw::MemoryBytes(stage.gpu_type);
    result.feasible = result.feasible && stage.memory_bytes <= stage.memory_cap;
    result.bottleneck_time = std::max(result.bottleneck_time, stage.TotalTime());
    result.sum_time += stage.TotalTime();
    result.stages.push_back(stage);
    first = stage.last_layer + 1;
  }
  return result;
}

std::vector<int> NaiveStageLasts(const model::ModelGraph& graph, int k, NaiveSplit kind) {
  std::vector<int> lasts;
  const int n = graph.num_layers();
  switch (kind) {
    case NaiveSplit::kEqualLayers:
      for (int q = 1; q <= k; ++q) {
        lasts.push_back(n * q / k - 1);
      }
      lasts.back() = n - 1;
      break;
    case NaiveSplit::kParamBalanced: {
      const uint64_t per_stage = graph.total_param_bytes() / static_cast<uint64_t>(k);
      uint64_t acc = 0;
      for (int i = 0; i < n; ++i) {
        acc += graph.layer(i).param_bytes;
        if (acc >= per_stage && static_cast<int>(lasts.size()) < k - 1 &&
            n - i - 1 >= k - 1 - static_cast<int>(lasts.size())) {
          lasts.push_back(i);
          acc = 0;
        }
      }
      while (static_cast<int>(lasts.size()) < k) {
        lasts.push_back(n - 1);
      }
      lasts.back() = n - 1;
      break;
    }
  }
  return lasts;
}

Partition Partitioner::SolveFixedOrder(const std::vector<int>& gpu_ids,
                                       const PartitionOptions& options,
                                       double prune_above) const {
  const int n = profile_->num_layers();
  const int k = static_cast<int>(gpu_ids.size());
  Partition result;
  if (k == 0 || n < k) {
    return result;
  }

  // Transfer seconds across each stage boundary (q -> q+1) for every layer
  // boundary b (the activation after layer b): hoists the two LinkBetween
  // lookups and the virtual TransferTime call out of the DP inner loop into
  // one O(k n) pass per order.
  DpScratch& scratch = LocalScratch();
  const int nb = n - 1;
  double* xfer = scratch.Ensure(
      scratch.xfer, static_cast<size_t>(std::max(0, k - 1)) * static_cast<size_t>(nb));
  for (int q = 0; q + 1 < k; ++q) {
    const hw::LinkModel& link = cluster_->LinkBetween(gpu_ids[static_cast<size_t>(q)],
                                                      gpu_ids[static_cast<size_t>(q) + 1]);
    double* row = xfer + static_cast<size_t>(q) * static_cast<size_t>(nb);
    for (int b = 0; b < nb; ++b) {
      row[b] = link.TransferTime(profile_->BoundaryTransferBytes(b));
    }
  }

  // dp[q][i]: minimal bottleneck assigning the first i layers to the first q
  // stages (all non-empty). choice[q][i]: split point achieving it. States
  // whose bottleneck strictly exceeds `prune_above` stay at infinity — any
  // completion would be strictly worse than the incumbent. Flat row-major
  // scratch reused across solves.
  const size_t stride = static_cast<size_t>(n) + 1;
  const size_t cells = static_cast<size_t>(k + 1) * stride;
  double* dp = scratch.Ensure(scratch.dp, cells);
  int* choice = scratch.Ensure(scratch.choice, cells);
  std::fill(dp, dp + cells, kInf);
  std::fill(choice, choice + cells, -1);
  dp[0] = 0.0;
  double* fwd_x = scratch.Ensure(scratch.fwd_xfer, static_cast<size_t>(n));
  for (int q = 1; q <= k; ++q) {
    const int sq = q - 1;  // stage index of the stage this DP row places
    // Shift the forward-comm terms so DpRow reads fwd_x[j] instead of
    // prev_xfer[j - 1] (unit stride, no branch); the first stage has none.
    if (sq > 0) {
      const double* prev_xfer = xfer + static_cast<size_t>(sq - 1) * static_cast<size_t>(nb);
      fwd_x[0] = 0.0;  // j == 0 is unreachable when sq > 0 (j >= q - 1 >= 1)
      for (int b = 0; b < nb; ++b) {
        fwd_x[b + 1] = prev_xfer[b];
      }
    } else {
      std::fill(fwd_x, fwd_x + n, 0.0);
    }
    const double* next_xfer =
        sq < k - 1 ? xfer + static_cast<size_t>(sq) * static_cast<size_t>(nb) : nullptr;
    DpRow(q, k, cluster_->gpu(gpu_ids[static_cast<size_t>(sq)]).type, options,
          dp + static_cast<size_t>(q - 1) * stride, fwd_x, next_xfer, prune_above,
          dp + static_cast<size_t>(q) * stride, choice + static_cast<size_t>(q) * stride);
  }

  if (dp[static_cast<size_t>(k) * stride + static_cast<size_t>(n)] == kInf) {
    return result;
  }

  // Reconstruct stage boundaries and rebuild the stages from them.
  int* lasts = scratch.Ensure(scratch.lasts, static_cast<size_t>(k));
  int i = n;
  for (int q = k; q >= 1; --q) {
    lasts[q - 1] = i - 1;
    i = choice[static_cast<size_t>(q) * stride + static_cast<size_t>(i)];
  }
  return BuildFixedPartition(*profile_, *cluster_, gpu_ids,
                             std::vector<int>(lasts, lasts + k), options.nm,
                             options.mem_params);
}

void Partitioner::DpRow(int q, int k, hw::GpuType type, const PartitionOptions& options,
                        const double* prev, const double* fwd_x, const double* bwd_x,
                        double prune_above, double* cur, int* cur_choice) const {
  // Stage [j, i-1] costs tot_cum[i-1][j] (= fwd_cum + bwd_cum, precombined at
  // profile build time in the same operand order) plus the boundary
  // transfers, and needs StageMemoryBytesFromSums(...) bytes evaluated on
  // prefix-sum differences with the stage's in-flight count hoisted out of
  // the loops. Every arithmetic operation happens in the same order as the
  // naive scalar DP (tests/oracles), so costs, memory sums, and therefore
  // every DP decision are bit-identical to it.
  const int n = profile_->num_layers();
  const double* tot_cum = profile_->TotalCumByLast(type);
  const uint64_t* param_prefix = profile_->graph().ParamPrefix();
  const uint64_t* stash_prefix = profile_->graph().StashPrefix();
  const StageMemoryParams& mem = options.mem_params;
  const uint64_t batch = static_cast<uint64_t>(profile_->batch_size());
  const uint64_t in_flight = static_cast<uint64_t>(InFlightAtStage(q - 1, k, options.nm));
  // Resolved once per row: SpecOf takes the registry lock for classes beyond
  // Table 1, which the O(n^2) loop below must not.
  const uint64_t cap = hw::MemoryBytes(type);
  DpScratch& scratch = LocalScratch();
  double* vals = scratch.Ensure(scratch.vals, static_cast<size_t>(n));
  for (int i = q; i <= n - (k - q); ++i) {
    const size_t last = static_cast<size_t>(i - 1);
    // Contiguous over j: entry j is the compute time of stage [j, i-1].
    const double* tot_row = tot_cum + last * static_cast<size_t>(n);
    // Adding 0.0 (no outgoing / incoming transfer) to a positive finite (or
    // +inf) cost is a bit-exact identity, so the single branchless expression
    // below reproduces the scalar DP's conditional adds. Every stage cost is
    // strictly positive (launch overheads), so the -0.0 + 0.0 == +0.0 edge
    // case cannot arise.
    const double bwd_comm = bwd_x != nullptr ? bwd_x[last] : 0.0;
    double best = kInf;
    int best_j = -1;
    // The stage's memory demand is non-increasing in j (a later split means
    // fewer layers, and both prefix differences shrink), so feasibility is
    // monotone over j: binary-search the first memory-feasible split and run
    // the tightened loop from there with no per-j memory check. The skipped j
    // values are exactly the ones the scalar loop `continue`s on, so every
    // surviving (j, cand) decision is unchanged.
    int feasible_from = i;  // i: no feasible split for this (q, i)
    {
      int lo = q - 1;
      int hi = i - 1;
      while (lo <= hi) {
        const int mid = lo + (hi - lo) / 2;
        const uint64_t need = StageMemoryBytesFromSums(
            param_prefix[i] - param_prefix[mid],  // layers [mid, i-1]
            stash_prefix[i] - stash_prefix[mid], batch, in_flight, mem);
        if (need <= cap) {
          feasible_from = mid;
          hi = mid - 1;
        } else {
          lo = mid + 1;
        }
      }
    }
    // Phase A (branchless, contiguous, auto-vectorizable): compute every
    // candidate bottleneck and mask pruned ones to +inf with a compare +
    // select. The scalar loop's `prior == kInf` skip needs no branch here:
    // inf + anything = inf, max(inf, cost) = inf, and +inf never wins the
    // strict `<` in phase B. Its `cand > prune_above` skip becomes the select
    // (a pruned candidate is stored as +inf, which likewise cannot win; with
    // prune_above = +inf the select is an identity). The arithmetic is
    // ((tot + fwd_x[j]) + bwd_comm) — the exact association order of the
    // scalar loop's conditional `+=` chain — and `prior < cost ? cost :
    // prior` is std::max(prior, cost) verbatim, so every surviving value is
    // bit-identical to the scalar loop's.
    for (int j = feasible_from; j < i; ++j) {
      const double cost = (tot_row[j] + fwd_x[j]) + bwd_comm;
      const double prior = prev[j];
      const double cand = prior < cost ? cost : prior;
      vals[j] = cand <= prune_above ? cand : kInf;
    }
    // Phase B: index-min reduction over vals with four independent lanes
    // (breaks the loop-carried min dependence so the compiler can overlap
    // the compares). Within a lane indices increase, so strict `<` keeps the
    // smallest index of the lane's argmin; the final cross-lane reduce is
    // lexicographic on (value, index), which together reproduce the scalar
    // loop's "smallest j wins ties" exactly.
    double lane_best[4] = {kInf, kInf, kInf, kInf};
    int lane_j[4] = {-1, -1, -1, -1};
    int j = feasible_from;
    for (; j + 4 <= i; j += 4) {
      for (int l = 0; l < 4; ++l) {
        if (vals[j + l] < lane_best[l]) {
          lane_best[l] = vals[j + l];
          lane_j[l] = j + l;
        }
      }
    }
    for (int l = 0; j < i; ++j, ++l) {  // remainder: still index-monotone per lane
      if (vals[j] < lane_best[l]) {
        lane_best[l] = vals[j];
        lane_j[l] = j;
      }
    }
    for (int l = 0; l < 4; ++l) {
      if (lane_best[l] < best ||
          (lane_best[l] == best && lane_j[l] != -1 && lane_j[l] < best_j)) {
        best = lane_best[l];
        best_j = lane_j[l];
      }
    }
    cur[i] = best;
    if (cur_choice != nullptr) {
      cur_choice[i] = best_j;
    }
  }
}

int FindMaxNmWith(const std::function<Partition(const PartitionOptions&)>& solve, int nm_cap,
                  PartitionOptions options) {
  // Feasibility is monotone non-increasing in nm: every stage's memory demand
  // grows with nm (InFlightAtStage is non-decreasing in nm), so a partition
  // feasible at nm is feasible at every smaller nm. Binary search the largest
  // feasible value — O(log nm_cap) solves instead of a nm_cap -> 1 scan, with
  // the identical answer.
  int lo = 1;
  int hi = nm_cap;
  int best = 0;
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    options.nm = mid;
    if (solve(options).feasible) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return best;
}

}  // namespace hetpipe::partition
