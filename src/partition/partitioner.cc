#include "partition/partitioner.h"

#include <algorithm>
#include <cassert>
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

// The GPU classes of `cluster`, ordered by name so the fingerprint is a
// function of class identities, not of the cluster's class order.
std::vector<hw::GpuType> ClassesByName(const hw::Cluster& cluster) {
  std::vector<hw::GpuType> classes = cluster.classes();
  std::sort(classes.begin(), classes.end(), [](hw::GpuType a, hw::GpuType b) {
    return std::strcmp(hw::SpecOf(a).name, hw::SpecOf(b).name) < 0;
  });
  return classes;
}

// Everything the per-layer cost model feeds the partitioner: compute times on
// every GPU class present in the cluster, boundary transfer sizes, stash and
// param bytes (memory model), and the class identities (name, declared
// TFLOPS, memory capacity) those times and caps derive from.
uint64_t ProfileFingerprint(const model::ModelProfile& profile, const hw::Cluster& cluster) {
  const std::vector<hw::GpuType> classes = ClassesByName(cluster);
  util::Fnv1a fp;
  fp.Mix(profile.graph().name());
  fp.Mix(static_cast<uint64_t>(profile.batch_size()));
  for (hw::GpuType gpu : classes) {
    const hw::GpuSpec& spec = hw::SpecOf(gpu);
    fp.Mix(std::string(spec.name));
    fp.Mix(spec.effective_tflops);
    fp.Mix(spec.memory_gib);
  }
  for (int layer = 0; layer < profile.num_layers(); ++layer) {
    for (hw::GpuType gpu : classes) {
      const model::LayerTime t = profile.TimeOf(layer, gpu);
      fp.Mix(t.fwd_s);
      fp.Mix(t.bwd_s);
    }
    fp.Mix(profile.BoundaryTransferBytes(layer));
    fp.Mix(profile.graph().layer(layer).param_bytes);
    fp.Mix(profile.graph().StashBytesInRange(layer, layer));
  }
  return fp.value();
}

// Partitioner::TotalCumByLast's tables: running sums over [first, last] for
// every last >= first, accumulated in the same left-to-right order as
// ModelProfile::StageFwdTime / StageBwdTime so each entry is bit-identical to
// their sum. Built eagerly for every class of the cluster — a const
// partitioner is shared across sweep threads, so lazy fill would put
// synchronization on the DP hot path.
std::vector<std::vector<double>> BuildTotalCumByLast(const model::ModelProfile& profile,
                                                     const hw::Cluster& cluster) {
  const size_t n = static_cast<size_t>(profile.num_layers());
  std::vector<std::vector<double>> tables;
  std::vector<model::LayerTime> per_layer(n);
  for (hw::GpuType gpu : cluster.classes()) {
    for (size_t layer = 0; layer < n; ++layer) {
      per_layer[layer] = profile.TimeOf(static_cast<int>(layer), gpu);
      // DpRow's incumbent frontier needs running sums that never shrink.
      assert(per_layer[layer].fwd_s >= 0.0 && per_layer[layer].bwd_s >= 0.0);
    }
    tables.resize(std::max(tables.size(), static_cast<size_t>(hw::SpecOf(gpu).order) + 1));
    std::vector<double>& tot = tables[static_cast<size_t>(hw::SpecOf(gpu).order)];
    tot.assign(n * n, 0.0);
    for (size_t first = 0; first < n; ++first) {
      double fwd_acc = 0.0;
      double bwd_acc = 0.0;
      for (size_t last = first; last < n; ++last) {
        fwd_acc += per_layer[last].fwd_s;
        bwd_acc += per_layer[last].bwd_s;
        // Transposed combined entry: one fwd + bwd addition, same operands
        // and order as the DP's scalar path, so consumers see identical bits.
        tot[last * n + first] = fwd_acc + bwd_acc;
      }
    }
  }
  return tables;
}

// Partitioner::transfer_rows_: the zero row, then one row per link object
// LinkBetween can return (PCIe, the shared inter link, each pair link).
std::vector<double> BuildTransferRows(const model::ModelProfile& profile,
                                      const hw::Cluster& cluster) {
  const size_t n = static_cast<size_t>(profile.num_layers());
  std::vector<const hw::LinkModel*> links = {&cluster.pcie(), &cluster.infiniband()};
  for (const hw::InfinibandLink& link : cluster.pair_links()) {
    links.push_back(&link);
  }
  std::vector<double> rows((links.size() + 1) * n, 0.0);
  for (size_t r = 0; r < links.size(); ++r) {
    double* row = rows.data() + (r + 1) * n;
    for (size_t b = 0; b + 1 < n; ++b) {
      row[b + 1] = links[r]->TransferTime(profile.BoundaryTransferBytes(static_cast<int>(b)));
      assert(row[b + 1] >= 0.0);  // DpRow's incumbent frontier needs it
    }
  }
  return rows;
}

// The split test of one stage position: stage [j, i-1] on a class fits when
// its compute time is within the bound and its memory, at the position's
// in-flight count, within the class's capacity. Both hold on a suffix of the
// splits and stay failed as i grows (see DpRow), so First finds the
// frontier of a cell by scanning on from the previous cell's.
struct StageFit {
  StageFit(const Partitioner& partitioner, hw::GpuType type, int stage, int k,
           const PartitionOptions& options)
      : tot_cum(partitioner.TotalCumByLast(type)),
        param_prefix(partitioner.profile().graph().ParamPrefix()),
        stash_prefix(partitioner.profile().graph().StashPrefix()),
        n(static_cast<size_t>(partitioner.profile().num_layers())),
        batch(static_cast<uint64_t>(partitioner.profile().batch_size())),
        in_flight(static_cast<uint64_t>(InFlightAtStage(stage, k, options.nm))),
        mem_cap(hw::MemoryBytes(type)),
        mem(options.mem_params) {}

  // Entry j is the compute time of stage [j, i-1] (TotalCumByLast).
  const double* TotRow(int i) const { return tot_cum + static_cast<size_t>(i - 1) * n; }

  // The first split j in [from, end) of cell i that fits under `bound`, or
  // `end` when none does.
  int First(int i, int from, int end, double bound) const {
    const double* tot_row = TotRow(i);
    for (; from < end; ++from) {
      if (tot_row[from] > bound) {
        continue;
      }
      const uint64_t need = StageMemoryBytesFromSums(
          param_prefix[i] - param_prefix[from],  // layers [from, i-1]
          stash_prefix[i] - stash_prefix[from], batch, in_flight, mem);
      if (need <= mem_cap) {
        break;
      }
    }
    return from;
  }

  const double* tot_cum;
  const uint64_t* param_prefix;
  const uint64_t* stash_prefix;
  size_t n;
  uint64_t batch;
  uint64_t in_flight;
  uint64_t mem_cap;
  const StageMemoryParams& mem;
};

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
      inputs_fingerprint_(SolveInputsFingerprint(profile, cluster)),
      total_cum_by_last_(BuildTotalCumByLast(profile, cluster)),
      transfer_rows_(BuildTransferRows(profile, cluster)) {}

const double* Partitioner::TransferRow(int from_id, int to_id) const {
  const hw::LinkModel* link = &cluster_->LinkBetween(from_id, to_id);
  size_t row = 1;
  if (link == &cluster_->infiniband()) {
    row = 2;
  } else if (link != &cluster_->pcie()) {
    const auto* pair = static_cast<const hw::InfinibandLink*>(link);
    row = 3 + static_cast<size_t>(pair - cluster_->pair_links().data());
  }
  return transfer_rows_.data() + row * static_cast<size_t>(profile_->num_layers());
}

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

bool Partitioner::PlaceGpu(int t, int k, int id, const PartitionOptions& options,
                           double prune_above) const {
  // dp[t][i]: minimal bottleneck assigning the first i layers to the first t
  // stages (all non-empty); choice[t][i]: the split achieving it. DpRow
  // writes only the cells a row can reach, and the next row reads only
  // those, so rows need no reset when a walk overwrites them.
  DpScratch& scratch = LocalScratch();
  const int n = profile_->num_layers();
  const size_t stride = static_cast<size_t>(n) + 1;
  if (t == 0) {
    // A new order: size the stacks, seed row 0 (no layers on no stages) and
    // the first stage's all-zero incoming-transfer row. The fresh stamp
    // makes every row below a new computation.
    double* dp = scratch.Ensure(scratch.dp, static_cast<size_t>(k + 1) * stride);
    scratch.Ensure(scratch.in_rows, static_cast<size_t>(k))[0] = ZeroTransferRow();
    scratch.Ensure(scratch.choice, static_cast<size_t>(k + 1) * stride);
    scratch.Ensure(scratch.order, static_cast<size_t>(k))[0] = id;
    scratch.Ensure(scratch.rows, static_cast<size_t>(k + 1))[0].placed = ++scratch.stamps;
    std::fill(dp, dp + stride, kInf);
    dp[0] = 0.0;
    return true;
  }
  int* order = scratch.order.data();
  const double** in_rows = scratch.in_rows.data();
  const double* out_row = nullptr;  // t == k: the last stage sends nothing
  int first = n;                    // t == k: only cell n is read
  if (t < k) {
    order[t] = id;
    out_row = in_rows[t] = TransferRow(order[t - 1], id);
    first = t;
    if (t == k - 1) {
      // `id` runs the last stage, so row k reads only the cells of row k-1
      // from the first split that fits it under the bound (the frontier
      // DpRow computes for row k; the bound only tightens, so that frontier
      // is at or past this one).
      first = StageFit(*this, cluster_->gpu(id).type, t, k, options).First(n, t, n, prune_above);
    }
  }
  // Row t depends on `id` only through out_row (and, on row k-1, `first`):
  // a row computed since position t-1 was last placed, with the same
  // out_row and first cell, is this placement's row computed at a bound no
  // looser, which is a fresh row wherever that is finite and exceeds the
  // bound elsewhere (see SolveExact). Its minimum then says whether a fresh
  // row would be all cut.
  DpScratch::RowMemo& memo = scratch.rows[static_cast<size_t>(t)];
  const uint64_t above = scratch.rows[static_cast<size_t>(t) - 1].placed;
  memo.placed = ++scratch.stamps;
  if (memo.above != above || memo.out_row != out_row || memo.first != first) {
    memo.above = above;
    memo.out_row = out_row;
    memo.first = first;
    double* row = scratch.dp.data() + static_cast<size_t>(t) * stride;
    if (t < k) {
      std::fill(row + t, row + first, kInf);  // first > t on row k-1 only
    }
    memo.min = DpRow(t, k, cluster_->gpu(order[t - 1]).type, options, row - stride,
                     in_rows[t - 1], out_row != nullptr ? out_row + 1 : nullptr, prune_above,
                     first, row, scratch.choice.data() + static_cast<size_t>(t) * stride);
  }
  return memo.min < kInf && memo.min <= prune_above;
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

double Partitioner::DpRow(int q, int k, hw::GpuType type, const PartitionOptions& options,
                          const double* prev, const double* fwd_x, const double* bwd_x,
                          double prune_above, int first_cell, double* cur,
                          int* cur_choice) const {
  // Stage [j, i-1] costs tot_cum[i-1][j] (= fwd_cum + bwd_cum, precombined at
  // partitioner construction in the same operand order) plus the boundary
  // transfers, and needs StageMemoryBytesFromSums(...) bytes evaluated on
  // prefix-sum differences with the stage's in-flight count hoisted out of
  // the loops. Every arithmetic operation happens in the same order as the
  // naive scalar DP (tests/oracles), so costs, memory sums, and therefore
  // every DP decision are bit-identical to it.
  const int n = profile_->num_layers();
  const int i_end = n - (k - q);
  if (first_cell > i_end) {
    return kInf;
  }
  // The cells of prev this row reads, [q-1, n-(k-q)-1], are finite on one
  // span [lo, hi] at most (first and last finite cell; lo > hi when none
  // is). A split j outside it reads prev[j] = +inf, whose candidate is +inf
  // and never wins the strict `<` below, so every loop runs over the span
  // alone with values and argmins unchanged; cells i <= lo have no split in
  // it and get +inf with choice -1.
  int lo = q - 1;
  int hi = n - (k - q) - 1;
  while (lo <= hi && prev[lo] == kInf) {
    ++lo;
  }
  while (hi > lo && prev[hi] == kInf) {
    --hi;
  }
  // Within the span, cell i evaluates only the splits j >= from(i), the
  // first split StageFit accepts: past two frontiers, each of which only
  // moves right as i grows:
  // - Memory: the stage [j, i-1] needs StageMemoryBytesFromSums of two
  //   prefix-sum differences, which does not increase in j (fewer layers)
  //   and does not decrease in i (more layers). So the feasible splits of a
  //   cell are a suffix of the span, and a split out of memory at i is out
  //   of memory at every later i. These are exactly the splits the scalar
  //   loop `continue`s on, so the scan needs no per-j check.
  // - Incumbent: tot_row[j] = tot_cum[i-1][j] is a left-to-right running sum
  //   of non-negative layer times starting at j; rounding is monotone, so it
  //   does not increase in j and does not decrease in i. Transfers are >= 0
  //   (transfer_rows_), so cand >= cost >= tot_row[j] bit for bit, and a
  //   split with tot_row[j] > prune_above has every candidate above the
  //   bound, which the scan would never take. Such splits are a prefix of
  //   the span and stay cut at every later i.
  // Skipping both changes no value and no argmin. Once from passes hi, no
  // later cell has a candidate: they get +inf with choice -1, as the scan
  // would write.
  const StageFit fit(*this, type, q - 1, k, options);
  // suffix_min[j] = min(prev[j..hi]): no candidate at or right of j is below it.
  DpScratch& scratch = LocalScratch();
  double* suffix_min = scratch.Ensure(scratch.suffix_min, static_cast<size_t>(n) + 1);
  if (lo <= hi) {
    suffix_min[hi] = prev[hi];
    for (int j = hi - 1; j >= lo; --j) {
      suffix_min[j] = std::min(prev[j], suffix_min[j + 1]);
    }
  }
  // Candidates above the bound are never taken; neither is +inf.
  const double cap = std::min(prune_above, std::numeric_limits<double>::max());
  int from = lo;
  int guess = lo;  // the last argmin: where the next cell's scan starts
  double row_min = kInf;
  for (int i = first_cell; i <= i_end; ++i) {
    // Splits j in [from, end) are candidates for cell i.
    const int end = std::min(i, hi + 1);
    from = fit.First(i, from, end, prune_above);
    if (from > hi) {
      for (; i <= i_end; ++i) {
        cur[i] = kInf;
        if (cur_choice != nullptr) {
          cur_choice[i] = -1;
        }
      }
      break;
    }
    // Adding 0.0 (no outgoing / incoming transfer) to a positive finite (or
    // +inf) cost is a bit-exact identity, so the single branchless expression
    // below reproduces the scalar DP's conditional adds. Every stage cost is
    // strictly positive (launch overheads), so the -0.0 + 0.0 == +0.0 edge
    // case cannot arise.
    const double bwd_comm = bwd_x != nullptr ? bwd_x[i - 1] : 0.0;
    const double* tot_row = fit.TotRow(i);
    // The arithmetic is ((tot + fwd_x[j]) + bwd_comm), the exact association
    // order of the scalar loop's conditional `+=` chain, and `prior < cost ?
    // cost : prior` is std::max(prior, cost) verbatim, so every candidate is
    // bit-identical to the scalar loop's. Its `prior == kInf` skip needs no
    // branch: inf + anything = inf, max(inf, cost) = inf, and +inf is above
    // `cap`.
    const auto candidate = [&](int j) {
      const double cost = (tot_row[j] + fwd_x[j]) + bwd_comm;
      const double prior = prev[j];
      return prior < cost ? cost : prior;
    };
    // The scan starts at the last argmin and walks both ways. Going right, a
    // candidate is at least prev[j], so once suffix_min[j] reaches the best
    // so far no split from j on can beat it (and a tie there loses to a
    // smaller j). Going left, a candidate is at least tot_row[j], which only
    // grows, so once tot_row[j] exceeds the best so far no split from j down
    // can reach it. Right steps take a strictly smaller candidate and left
    // steps a tie too, so the cell is the minimum over [from, end) with the
    // smallest split among ties, the scalar loop's strict `<` over rising j.
    double best = kInf;
    int best_j = -1;
    if (from < end) {
      const int start = std::min(std::max(guess, from), end - 1);
      for (int j = start; j < end && suffix_min[j] < best; ++j) {
        const double cand = candidate(j);
        if (cand < best && cand <= cap) {
          best = cand;
          best_j = j;
        }
      }
      for (int j = start - 1; j >= from && tot_row[j] <= best; --j) {
        const double cand = candidate(j);
        if (cand <= best && cand <= cap) {
          best = cand;
          best_j = j;
        }
      }
      if (best_j >= 0) {
        guess = best_j;
      }
    }
    cur[i] = best;
    row_min = std::min(row_min, best);
    if (cur_choice != nullptr) {
      cur_choice[i] = best_j;
    }
  }
  return row_min;
}

int FindMaxNmWith(const std::function<Partition(const PartitionOptions&)>& solve, int nm_cap,
                  PartitionOptions options) {
  // Feasibility is monotone non-increasing in nm: every stage's memory demand
  // grows with nm (InFlightAtStage is non-decreasing in nm), so a partition
  // feasible at nm is feasible at every smaller nm. The cap is usually the
  // answer, so probe it first; when it is infeasible, binary search the
  // largest feasible value below it. Either way the answer is the
  // nm_cap -> 1 scan's.
  if (nm_cap < 1) return 0;
  options.nm = nm_cap;
  if (solve(options).feasible) return nm_cap;
  int lo = 1;
  int hi = nm_cap - 1;
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
