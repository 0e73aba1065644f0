#include "partition/partitioner.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "partition/dp_scratch.h"
#include "util/binary_io.h"

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

// The distinct GPU classes present in `cluster`, ordered by name so the
// result is independent of registration order (and thus of the process).
std::vector<const hw::GpuSpec*> PresentSpecs(const hw::Cluster& cluster) {
  std::vector<const hw::GpuSpec*> specs;
  for (const hw::Gpu& gpu : cluster.gpus()) {
    const hw::GpuSpec& spec = hw::SpecOf(gpu.type);
    bool known = false;
    for (const hw::GpuSpec* s : specs) {
      known = known || s == &spec;
    }
    if (!known) {
      specs.push_back(&spec);
    }
  }
  std::sort(specs.begin(), specs.end(),
            [](const hw::GpuSpec* a, const hw::GpuSpec* b) {
              return std::strcmp(a->name, b->name) < 0;
            });
  return specs;
}

// Everything the per-layer cost model feeds the partitioner: compute times on
// every GPU class present in the cluster, boundary transfer sizes, stash and
// param bytes (memory model), and the class identities (name, declared
// TFLOPS, memory capacity) those times and caps derive from.
uint64_t ProfileFingerprint(const model::ModelProfile& profile, const hw::Cluster& cluster) {
  const std::vector<const hw::GpuSpec*> specs = PresentSpecs(cluster);
  util::Fnv1a fp;
  fp.Mix(profile.graph().name());
  fp.Mix(static_cast<uint64_t>(profile.batch_size()));
  for (const hw::GpuSpec* spec : specs) {
    fp.Mix(std::string(spec->name));
    fp.Mix(spec->effective_tflops);
    fp.Mix(spec->memory_gib);
  }
  for (int layer = 0; layer < profile.num_layers(); ++layer) {
    for (const hw::GpuSpec* spec : specs) {
      const model::LayerTime& t = profile.TimeOf(layer, spec->type);
      fp.Mix(t.fwd_s);
      fp.Mix(t.bwd_s);
    }
    fp.Mix(profile.BoundaryTransferBytes(layer));
    fp.Mix(profile.graph().layer(layer).param_bytes);
    fp.Mix(profile.graph().StashBytesInRange(layer, layer));
  }
  return fp.value();
}

}  // namespace

uint64_t SolveInputsFingerprint(const model::ModelProfile& profile, const hw::Cluster& cluster) {
  util::Fnv1a fp;
  fp.Mix(ProfileFingerprint(profile, cluster));
  fp.Mix(cluster.ToString());
  // Two probes at distinct non-zero sizes fully characterize each affine
  // link model: t(1) = latency + 1/bw and t(1 MiB) = latency + 1 MiB/bw pin
  // down both coefficients, so clusters differing in any link knob —
  // bandwidth, scaling/efficiency, or latency/intercept — never share a
  // fingerprint. (A 0-byte probe would be blind to latency: TransferTime(0)
  // is 0 by definition.)
  fp.Mix(cluster.pcie().TransferTime(1));
  fp.Mix(cluster.pcie().TransferTime(1ULL << 20));
  fp.Mix(cluster.infiniband().TransferTime(1));
  fp.Mix(cluster.infiniband().TransferTime(1ULL << 20));
  return fp.value();
}

DpScratch& LocalScratch() {
  static thread_local DpScratch scratch;
  return scratch;
}

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
    : profile_(&profile),
      cluster_(&cluster),
      inputs_fingerprint_(SolveInputsFingerprint(profile, cluster)) {}

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

Partition Partitioner::SolveOrder(const int* order, int k, const PartitionOptions& options,
                                  double prune_above, HeldPrefix* held) const {
  const int* placed = LocalScratch().order.data();
  int t = 0;
  while (t < held->depth && placed[t] == order[t]) {
    ++t;
  }
  if (held->cut && t == held->depth && (t == k || placed[t] == order[t])) {
    return Partition{};  // the held cut row is this order's too, at a bound no looser
  }
  for (; t < k; ++t) {
    if (!PlaceGpu(t, k, order[t], options, prune_above)) {
      *held = HeldPrefix{t, true};
      return Partition{};
    }
  }
  Partition result = FinishOrder(k, options, prune_above);
  *held = HeldPrefix{k, !result.feasible};
  return result;
}

void Partitioner::EdgeRow(int from_id, int to_id, double* edge) const {
  // Hoists the LinkBetween lookup and the virtual TransferTime call out of
  // the DP inner loop into one O(n) pass per edge. Shifted by one so DpRow
  // reads the incoming transfer as fwd_x[j] (unit stride, no branch).
  const hw::LinkModel& link = cluster_->LinkBetween(from_id, to_id);
  edge[0] = 0.0;  // j == 0 is unreachable for every stage that has an incoming link
  for (int b = 0; b + 1 < profile_->num_layers(); ++b) {
    edge[b + 1] = link.TransferTime(profile_->BoundaryTransferBytes(b));
  }
}

bool Partitioner::PlaceGpu(int t, int k, int id, const PartitionOptions& options,
                           double prune_above) const {
  // dp[t][i]: minimal bottleneck assigning the first i layers to the first t
  // stages (all non-empty); choice[t][i]: the split achieving it. DpRow
  // writes only the cells a row can reach, and the next row reads only
  // those, so rows need no reset when a walk overwrites them.
  DpScratch& scratch = LocalScratch();
  const size_t n = static_cast<size_t>(profile_->num_layers());
  const size_t stride = n + 1;
  if (t == 0) {
    // A new order: size the stacks, seed row 0 (no layers on no stages) and
    // the all-zero incoming-transfer row of the first stage.
    double* dp = scratch.Ensure(scratch.dp, static_cast<size_t>(k + 1) * stride);
    double* edge = scratch.Ensure(scratch.edge, static_cast<size_t>(k) * n);
    scratch.Ensure(scratch.choice, static_cast<size_t>(k + 1) * stride);
    scratch.Ensure(scratch.order, static_cast<size_t>(k))[0] = id;
    std::fill(dp, dp + stride, kInf);
    dp[0] = 0.0;
    std::fill(edge, edge + n, 0.0);
    return true;
  }
  int* order = scratch.order.data();
  const double* in_edge = scratch.edge.data() + static_cast<size_t>(t - 1) * n;
  double* out_edge = nullptr;  // t == k: the last stage sends nothing
  if (t < k) {
    order[t] = id;
    out_edge = scratch.edge.data() + static_cast<size_t>(t) * n;
    EdgeRow(order[t - 1], id, out_edge);
  }
  double* row = scratch.dp.data() + static_cast<size_t>(t) * stride;
  return DpRow(t, k, cluster_->gpu(order[t - 1]).type, options, row - stride, in_edge,
               out_edge != nullptr ? out_edge + 1 : nullptr, prune_above, row,
               scratch.choice.data() + static_cast<size_t>(t) * stride);
}

Partition Partitioner::FinishOrder(int k, const PartitionOptions& options,
                                   double prune_above) const {
  if (!PlaceGpu(k, k, -1, options, prune_above)) {
    return Partition{};
  }
  // Reconstruct stage boundaries and rebuild the stages from them.
  const DpScratch& scratch = LocalScratch();
  const int n = profile_->num_layers();
  std::vector<int> lasts(static_cast<size_t>(k));
  int i = n;
  for (int q = k; q >= 1; --q) {
    lasts[static_cast<size_t>(q) - 1] = i - 1;
    i = scratch.choice[static_cast<size_t>(q) * (static_cast<size_t>(n) + 1) +
                       static_cast<size_t>(i)];
  }
  return BuildFixedPartition(*profile_, *cluster_,
                             std::vector<int>(scratch.order.begin(), scratch.order.begin() + k),
                             lasts, options.nm, options.mem_params);
}

bool Partitioner::DpRow(int q, int k, hw::GpuType type, const PartitionOptions& options,
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
  // The cells of prev this row reads, [q-1, n-(k-q)-1], are finite on one
  // span [lo, hi] at most (first and last finite cell; lo > hi when none
  // is). A split j outside it reads prev[j] = +inf, whose candidate is +inf
  // and never wins the strict `<` below, so every loop runs over the span
  // alone with values and argmins unchanged; cells i <= lo have no split in
  // it, skip the memory search and get +inf with choice -1.
  int lo = q - 1;
  int hi = n - (k - q) - 1;
  while (lo <= hi && prev[lo] == kInf) {
    ++lo;
  }
  while (hi > lo && prev[hi] == kInf) {
    --hi;
  }
  bool live = false;
  // The last row only needs its final cell: nothing reads the others.
  for (int i = q == k ? n : q; i <= n - (k - q); ++i) {
    // Splits j in [lo, end) are candidates for cell i.
    const int end = std::min(i, hi + 1);
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
    int feasible_from = end;  // end: no feasible split in the span
    {
      int left = lo;
      int right = end - 1;
      while (left <= right) {
        const int mid = left + (right - left) / 2;
        const uint64_t need = StageMemoryBytesFromSums(
            param_prefix[i] - param_prefix[mid],  // layers [mid, i-1]
            stash_prefix[i] - stash_prefix[mid], batch, in_flight, mem);
        if (need <= cap) {
          feasible_from = mid;
          right = mid - 1;
        } else {
          left = mid + 1;
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
    for (int j = feasible_from; j < end; ++j) {
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
    for (; j + 4 <= end; j += 4) {
      for (int l = 0; l < 4; ++l) {
        if (vals[j + l] < lane_best[l]) {
          lane_best[l] = vals[j + l];
          lane_j[l] = j + l;
        }
      }
    }
    for (int l = 0; j < end; ++j, ++l) {  // remainder: still index-monotone per lane
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
    live = live || best < kInf;
    if (cur_choice != nullptr) {
      cur_choice[i] = best_j;
    }
  }
  return live;
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
