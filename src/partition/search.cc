// The partitioner's GPU-order search tiers behind Partitioner::SolveScalable:
// strategy selection, the exact distinct-order enumeration, the beam search
// over (type, node) order prefixes, and the rack-hierarchical search. The
// exact tier is optimal but visits a multinomial number of orders; the beam
// and hierarchical tiers visit a polynomial slice of that space. Every tier
// produces its result through the same SolveFixedOrder DP (partitioner.cc),
// so a returned partition is exactly what the exact tier would report for
// its order — only the set of orders tried differs. Everything here is
// deterministic and invariant under permutations of the input gpu ids with
// equal (type, node) multisets: ids are canonicalized up front and every
// search decision is a function of classes and positions, never of raw id
// values.
//
// Parallelism: when options.pool is set, the bulk loops — exact order
// enumeration, beam depth expansions, candidate-order evaluation, and the
// hierarchical coordinate-descent batches — run under
// ThreadPool::ParallelFor into index-addressed slots, and every winner is
// picked by a reduction that walks those slots in input order. Candidates
// within a batch are independent except through the shared branch-and-bound
// incumbent, and the incumbent is only ever an upper bound on the optimum
// (see SolveOrderBatch), so parallel and serial runs are byte-identical at
// any thread count. The short sequential-accept polish loops (pairwise-swap
// hill climbs) have true loop-carried dependences and deliberately stay
// serial.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "partition/partitioner.h"
#include "runner/thread_pool.h"
#include "util/mutex.h"

namespace hetpipe::partition {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One distinct (type, node) class of a virtual worker, with its member ids
// ascending. Groups are ordered by (type, node) — an id-free canonical order,
// so equal multisets on different ids group identically. This is the one
// class grouping every tier (and the order-count estimate) uses.
struct Group {
  hw::GpuType type;
  int node = -1;
  std::vector<int> ids;
};

std::vector<Group> CanonicalGroups(const hw::Cluster& cluster, std::vector<int> ids) {
  std::sort(ids.begin(), ids.end());
  std::vector<Group> groups;
  for (int id : ids) {
    const hw::Gpu& gpu = cluster.gpu(id);
    Group* group = nullptr;
    for (Group& existing : groups) {
      if (existing.type == gpu.type && existing.node == gpu.node) {
        group = &existing;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(Group{gpu.type, gpu.node, {}});
      group = &groups.back();
    }
    group->ids.push_back(id);
  }
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    if (a.type != b.type) {
      return static_cast<int>(a.type) < static_cast<int>(b.type);
    }
    return a.node < b.node;
  });
  return groups;
}

// Appends the distinct (type, node) orderings of the grouped ids to
// `orders`, each realized by its minimal GPU-id representative (every class's
// ids appear in ascending order), in lexicographic order of those
// representatives. That is exactly the sequence a factorial next_permutation
// scan with (type, node) dedup produces — the first permutation reaching a
// class sequence is its minimal representative, and first occurrences appear
// in representative order — so "first wins" tie-breaks match that scan's.
// Candidates are tried in ascending id order, so the groups' own order does
// not matter. Cost is O(#distinct-orders * k^2) instead of O(k! * k): with
// repeated GPU classes (homogeneous and mixed-node VWs, the common case) the
// distinct count is the multinomial, not the factorial.
void EmitClassOrders(const std::vector<Group>& groups, std::vector<size_t>& used,
                     std::vector<int>& current, size_t k,
                     std::vector<std::vector<int>>& orders) {
  if (current.size() == k) {
    orders.push_back(current);
    return;
  }
  // Candidates: the next unused id of each class, in ascending id order.
  std::vector<std::pair<int, size_t>> candidates;
  candidates.reserve(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    if (used[g] < groups[g].ids.size()) {
      candidates.emplace_back(groups[g].ids[used[g]], g);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  for (const auto& [id, g] : candidates) {
    ++used[g];
    current.push_back(id);
    EmitClassOrders(groups, used, current, k, orders);
    current.pop_back();
    --used[g];
  }
}

// Realizes a group-index sequence as a gpu-id order: each group contributes
// its ids in ascending order (the minimal representative, matching the exact
// enumerator's convention).
std::vector<int> RealizeOrder(const std::vector<Group>& groups, const std::vector<int>& seq) {
  std::vector<size_t> next(groups.size(), 0);
  std::vector<int> order;
  order.reserve(seq.size());
  for (int g : seq) {
    order.push_back(groups[static_cast<size_t>(g)].ids[next[static_cast<size_t>(g)]++]);
  }
  return order;
}

// A partial beam state: `seq` classes chosen for stages 0..t-1, of which
// stages 0..t-2 are "closed" (full cost known — a stage's backward comm needs
// the NEXT stage's class, so the newest stage stays pending until extended).
// `dp[i]` is the exact minimal bottleneck of placing the first i layers on
// the closed stages; `score` is min_i dp[i], an optimistic bound used only
// for beam ranking.
struct BeamState {
  std::vector<int> seq;
  std::vector<int> used;  // per-group consumed count
  std::vector<double> dp;
  double score = 0.0;
};

// Deterministic beam ordering: better bound first, ties by class sequence.
bool BeamLess(const BeamState& a, const BeamState& b) {
  if (a.score != b.score) {
    return a.score < b.score;
  }
  return a.seq < b.seq;
}

// The branch-and-bound incumbent an order batch shares across pool threads.
struct Incumbent {
  explicit Incumbent(double initial) : bound(initial) {}
  util::Mutex mu;
  double bound GUARDED_BY(mu);
};

double MinOf(const std::vector<double>& dp) {
  double best = kInf;
  for (double v : dp) {
    best = std::min(best, v);
  }
  return best;
}

}  // namespace

std::vector<std::vector<int>> DistinctClassOrders(const hw::Cluster& cluster,
                                                  const std::vector<int>& ids) {
  const std::vector<Group> groups = CanonicalGroups(cluster, ids);
  std::vector<size_t> used(groups.size(), 0);
  std::vector<std::vector<int>> orders;
  std::vector<int> current;
  current.reserve(ids.size());
  EmitClassOrders(groups, used, current, ids.size(), orders);
  return orders;
}

const char* SearchStrategyName(SearchStrategy strategy) {
  switch (strategy) {
    case SearchStrategy::kAuto:
      return "auto";
    case SearchStrategy::kExact:
      return "exact";
    case SearchStrategy::kBeam:
      return "beam";
    case SearchStrategy::kHierarchical:
      return "hierarchical";
  }
  return "unknown";
}

bool ParseSearchStrategy(const std::string& name, SearchStrategy* out) {
  for (SearchStrategy strategy :
       {SearchStrategy::kAuto, SearchStrategy::kExact, SearchStrategy::kBeam,
        SearchStrategy::kHierarchical}) {
    if (name == SearchStrategyName(strategy)) {
      *out = strategy;
      return true;
    }
  }
  return false;
}

uint64_t EstimateOrderCount(const hw::Cluster& cluster, const std::vector<int>& gpu_ids,
                            uint64_t cap) {
  if (cap == 0) {
    cap = 1;
  }
  const std::vector<Group> groups = CanonicalGroups(cluster, gpu_ids);
  // Multinomial k! / prod(c_g!) built as a product of binomials: placing each
  // group's c ids into the slots left over contributes C(placed + c, c).
  uint64_t total = 1;
  uint64_t placed = 0;
  for (const Group& group : groups) {
    const uint64_t c = group.ids.size();
    uint64_t binom = 1;
    for (uint64_t i = 1; i <= c; ++i) {
      // binom is C(placed + i, i) after each step (integral stepwise) and
      // non-decreasing in i, so saturating early is sound.
      const __uint128_t grown = static_cast<__uint128_t>(binom) * (placed + i) / i;
      if (grown > cap) {
        return cap;
      }
      binom = static_cast<uint64_t>(grown);
    }
    const __uint128_t next = static_cast<__uint128_t>(total) * binom;
    if (next > cap) {
      return cap;
    }
    total = static_cast<uint64_t>(next);
    placed += c;
  }
  return total;
}

SearchStrategy ResolveSearchStrategy(const hw::Cluster& cluster,
                                     const std::vector<int>& gpu_ids,
                                     const PartitionOptions& options) {
  // Deliberately independent of options.pool: parallelism changes how fast a
  // tier runs, never which tier runs (or what it returns — parallel and
  // serial solves are byte-identical). A pool-sensitive selector would fork
  // PartitionCache keys on thread count, splitting otherwise shareable cache
  // entries across hosts; partition_test pins this invariant.
  //
  // With the order search off the given order IS the stage order — there is
  // no order space to search, so every strategy degenerates to the exact
  // fixed-order DP.
  if (!options.search_gpu_orders || gpu_ids.size() <= 1) {
    return SearchStrategy::kExact;
  }
  if (options.strategy != SearchStrategy::kAuto) {
    return options.strategy;
  }
  const uint64_t limit =
      options.exact_order_limit < 1 ? 1 : static_cast<uint64_t>(options.exact_order_limit);
  if (EstimateOrderCount(cluster, gpu_ids, limit + 1) <= limit) {
    return SearchStrategy::kExact;
  }
  // Beyond exact reach: hierarchical when the virtual worker actually spans
  // racks (the coarse phase needs more than one super-node), beam otherwise.
  int first_rack = -2;
  bool multi_rack = false;
  for (int id : gpu_ids) {
    const int rack = cluster.NodeRack(cluster.gpu(id).node);
    if (rack < 0) {
      multi_rack = false;  // no rack structure at all
      break;
    }
    if (first_rack == -2) {
      first_rack = rack;
    } else if (rack != first_rack) {
      multi_rack = true;
    }
  }
  return multi_rack ? SearchStrategy::kHierarchical : SearchStrategy::kBeam;
}

Partition Partitioner::SolveScalable(const std::vector<int>& gpu_ids,
                                     const PartitionOptions& options) const {
  switch (ResolveSearchStrategy(*cluster_, gpu_ids, options)) {
    case SearchStrategy::kBeam:
      return SolveBeam(gpu_ids, options);
    case SearchStrategy::kHierarchical:
      return SolveHierarchical(gpu_ids, options);
    case SearchStrategy::kAuto:  // ResolveSearchStrategy never returns kAuto
    case SearchStrategy::kExact:
      break;
  }
  return SolveExact(gpu_ids, options);
}

// Every candidate shares one branch-and-bound incumbent, and callers reduce
// over the returned vector in input order, which makes the picked winner
// independent of thread interleaving: the incumbent (seeded with
// `initial_bound`, tightened to the min bottleneck of any feasible result)
// never drops below min(initial_bound, batch optimum), so whenever the batch
// can beat or tie the caller's incumbent at all, every candidate achieving
// the batch minimum is solved exactly under any schedule (`cand >
// prune_above` is strict), and candidates a tighter bound happens to prune
// could never have won the reduction anyway.
std::vector<Partition> Partitioner::SolveOrderBatch(
    const PartitionOptions& options, double initial_bound,
    const std::vector<std::vector<int>>& orders) const {
  std::vector<Partition> results(orders.size());
  Incumbent incumbent(initial_bound);
  const auto solve_one = [&](int64_t index) {
    double bound = kInf;
    if (options.prune) {
      util::MutexLock lock(incumbent.mu);
      bound = incumbent.bound;
    }
    Partition candidate = SolveFixedOrder(orders[static_cast<size_t>(index)], options, bound);
    if (candidate.feasible) {
      util::MutexLock lock(incumbent.mu);
      incumbent.bound = std::min(incumbent.bound, candidate.bottleneck_time);
    }
    results[static_cast<size_t>(index)] = std::move(candidate);
  };
  if (options.pool != nullptr && orders.size() > 1) {
    options.pool->ParallelFor(static_cast<int64_t>(orders.size()), solve_one);
  } else {
    for (int64_t index = 0; index < static_cast<int64_t>(orders.size()); ++index) {
      solve_one(index);
    }
  }
  return results;
}

Partition Partitioner::SolveExact(const std::vector<int>& gpu_ids,
                                  const PartitionOptions& options) const {
  if (!options.search_gpu_orders || gpu_ids.size() <= 1) {
    return SolveFixedOrder(gpu_ids, options, kInf);
  }
  // Identical class sequences produce identical solutions, so each distinct
  // (type, node) order is solved once.
  Partition best;
  for (Partition& candidate :
       SolveOrderBatch(options, kInf, DistinctClassOrders(*cluster_, gpu_ids))) {
    if (ImprovesPartition(candidate, best)) {
      best = std::move(candidate);
    }
  }
  return best;
}

Partition Partitioner::SolveBeam(const std::vector<int>& gpu_ids,
                                 const PartitionOptions& options) const {
  const int n = profile_->num_layers();
  const int k = static_cast<int>(gpu_ids.size());
  if (k == 0 || n < k) {
    return Partition{};
  }

  const std::vector<Group> groups = CanonicalGroups(*cluster_, gpu_ids);
  const int num_groups = static_cast<int>(groups.size());
  const size_t width = static_cast<size_t>(std::max(1, options.beam_width));

  // Closes stage `sq` (class `cur`, preceded by `prev_class` or -1 for the
  // first stage, followed by `next_class`) over `dp_prev` with the
  // fixed-order DP's own row kernel, producing the next dp row — the same
  // values SolveFixedOrder computes for that row of any order with this
  // prefix. A group's first id stands in for the class: links depend on
  // nodes only.
  const auto close_stage = [&](const std::vector<double>& dp_prev, int sq, int prev_class,
                               int cur, int next_class) {
    const auto rep = [&](int g) { return groups[static_cast<size_t>(g)].ids.front(); };
    std::vector<double> fwd_x(static_cast<size_t>(n), 0.0);  // by the stage's first layer
    if (prev_class >= 0) {
      const hw::LinkModel& link = cluster_->LinkBetween(rep(prev_class), rep(cur));
      for (int b = 0; b + 1 < n; ++b) {
        fwd_x[static_cast<size_t>(b) + 1] =
            link.TransferTime(profile_->BoundaryTransferBytes(b));
      }
    }
    std::vector<double> bwd_x(static_cast<size_t>(n), 0.0);  // by the stage's last layer
    const hw::LinkModel& link = cluster_->LinkBetween(rep(cur), rep(next_class));
    for (int b = 0; b + 1 < n; ++b) {
      bwd_x[static_cast<size_t>(b)] = link.TransferTime(profile_->BoundaryTransferBytes(b));
    }
    std::vector<double> dp(static_cast<size_t>(n) + 1, kInf);
    DpRow(sq + 1, k, groups[static_cast<size_t>(cur)].type, options, dp_prev.data(),
          fwd_x.data(), bwd_x.data(), kInf, dp.data(), nullptr);
    return dp;
  };

  // ---- Beam over order prefixes. ----
  BeamState root;
  root.used.assign(static_cast<size_t>(num_groups), 0);
  root.dp.assign(static_cast<size_t>(n) + 1, kInf);
  root.dp[0] = 0.0;
  root.score = 0.0;
  std::vector<BeamState> beam = {root};
  for (int t = 0; t < k; ++t) {
    // Expansions are addressed as state * num_groups + group and computed
    // into index-owned slots, so the compacted order below equals the serial
    // nested-loop order regardless of which thread ran which slot. Sorting is
    // then total (expanded seqs within a depth are pairwise distinct, and
    // BeamLess falls back to the seq), so the surviving beam is byte-
    // identical to the serial one.
    const int64_t expansions =
        static_cast<int64_t>(beam.size()) * static_cast<int64_t>(num_groups);
    std::vector<BeamState> slots(static_cast<size_t>(expansions));
    std::vector<char> valid(static_cast<size_t>(expansions), 0);
    const auto expand_one = [&](int64_t e) {
      const BeamState& state = beam[static_cast<size_t>(e / num_groups)];
      const int g = static_cast<int>(e % num_groups);
      if (state.used[static_cast<size_t>(g)] >=
          static_cast<int>(groups[static_cast<size_t>(g)].ids.size())) {
        return;
      }
      BeamState next = state;
      next.seq.push_back(g);
      ++next.used[static_cast<size_t>(g)];
      if (t > 0) {
        // Choosing stage t's class closes stage t-1 (its backward comm —
        // the link to stage t — is now known).
        const int prev_class = t >= 2 ? state.seq[static_cast<size_t>(t) - 2] : -1;
        next.dp = close_stage(state.dp, t - 1, prev_class, state.seq.back(), g);
        next.score = MinOf(next.dp);
        if (next.score == kInf) {
          return;  // no feasible closing: every completion is infeasible
        }
      }
      slots[static_cast<size_t>(e)] = std::move(next);
      valid[static_cast<size_t>(e)] = 1;
    };
    if (options.pool != nullptr && t > 0 && expansions > 1) {
      options.pool->ParallelFor(expansions, expand_one);
    } else {
      for (int64_t e = 0; e < expansions; ++e) {
        expand_one(e);
      }
    }
    std::vector<BeamState> expanded;
    expanded.reserve(static_cast<size_t>(expansions));
    for (int64_t e = 0; e < expansions; ++e) {
      if (valid[static_cast<size_t>(e)] != 0) {
        expanded.push_back(std::move(slots[static_cast<size_t>(e)]));
      }
    }
    std::sort(expanded.begin(), expanded.end(), BeamLess);
    if (expanded.size() > width) {
      expanded.resize(width);
    }
    beam = std::move(expanded);
    if (beam.empty()) {
      break;
    }
  }

  // ---- Candidate orders: beam survivors plus deterministic heuristic
  // ---- seeds (the classic feasibility seed puts big memory first — the
  // ---- front of a 1F1B pipeline holds the most in-flight minibatches).
  std::vector<std::vector<int>> seqs;
  for (const BeamState& state : beam) {
    seqs.push_back(state.seq);
  }
  const auto push_sorted_seed = [&](auto less) {
    std::vector<int> by_group(static_cast<size_t>(num_groups));
    std::iota(by_group.begin(), by_group.end(), 0);
    std::stable_sort(by_group.begin(), by_group.end(), less);
    std::vector<int> seq;
    seq.reserve(static_cast<size_t>(k));
    for (int g : by_group) {
      seq.insert(seq.end(), groups[static_cast<size_t>(g)].ids.size(), g);
    }
    seqs.push_back(std::move(seq));
  };
  push_sorted_seed([&](int a, int b) {
    return hw::MemoryBytes(groups[static_cast<size_t>(a)].type) >
           hw::MemoryBytes(groups[static_cast<size_t>(b)].type);
  });
  push_sorted_seed([&](int a, int b) {
    return hw::SpecOf(groups[static_cast<size_t>(a)].type).effective_tflops >
           hw::SpecOf(groups[static_cast<size_t>(b)].type).effective_tflops;
  });

  // ---- Exact evaluation of every candidate (batched onto the pool, winner
  // ---- picked in input order), then swap local search. ----
  Partition best;
  std::vector<int> best_seq;
  {
    std::vector<std::vector<int>> orders;
    orders.reserve(seqs.size());
    for (const std::vector<int>& seq : seqs) {
      orders.push_back(RealizeOrder(groups, seq));
    }
    std::vector<Partition> results = SolveOrderBatch(options, kInf, orders);
    for (size_t index = 0; index < results.size(); ++index) {
      if (ImprovesPartition(results[index], best)) {
        best = std::move(results[index]);
        best_seq = seqs[index];
      }
    }
  }
  if (!best.feasible) {
    return best;
  }

  // Greedy hill climb on pairwise class swaps: all pairs while that is cheap,
  // adjacent pairs at large k. Pruned solves (bound = incumbent bottleneck)
  // keep equal-bottleneck candidates alive, so the sum-time tie-break still
  // applies; accepted swaps update the order in place. Each probe's base
  // order depends on every earlier accept — a true loop-carried dependence —
  // so this polish stays serial by design (it is a constant-factor tail of
  // the search; the bulk phases above are the ones the pool accelerates).
  const bool all_pairs = k * (k - 1) / 2 <= 300;
  for (int pass = 0; pass < 4; ++pass) {
    bool improved = false;
    for (int a = 0; a < k - 1; ++a) {
      const int b_end = all_pairs ? k : std::min(k, a + 2);
      for (int b = a + 1; b < b_end; ++b) {
        if (best_seq[static_cast<size_t>(a)] == best_seq[static_cast<size_t>(b)]) {
          continue;
        }
        std::vector<int> swapped = best_seq;
        std::swap(swapped[static_cast<size_t>(a)], swapped[static_cast<size_t>(b)]);
        Partition candidate = SolveFixedOrder(RealizeOrder(groups, swapped), options,
                                              options.prune ? best.bottleneck_time : kInf);
        if (ImprovesPartition(candidate, best)) {
          best = std::move(candidate);
          best_seq = std::move(swapped);
          improved = true;
        }
      }
    }
    if (!improved) {
      break;
    }
  }
  return best;
}

namespace {

// One rack's slice of the virtual worker during the hierarchical search.
struct RackSegment {
  int rack = -1;
  std::vector<int> ids;     // canonical ascending
  std::vector<int> order;   // current realized order of `ids`
  uint64_t memory_bytes = 0;
  double tflops = 0.0;
};

std::vector<int> ComposeOrder(const std::vector<RackSegment>& segments,
                              const std::vector<int>& rack_order) {
  std::vector<int> full;
  for (int s : rack_order) {
    const RackSegment& segment = segments[static_cast<size_t>(s)];
    full.insert(full.end(), segment.order.begin(), segment.order.end());
  }
  return full;
}

}  // namespace

Partition Partitioner::SolveHierarchical(const std::vector<int>& gpu_ids,
                                         const PartitionOptions& options) const {
  const int n = profile_->num_layers();
  const int k = static_cast<int>(gpu_ids.size());
  if (k == 0 || n < k) {
    return Partition{};
  }

  // ---- Coarsen: one super-node per rack the virtual worker touches. ----
  std::vector<int> ids = gpu_ids;
  std::sort(ids.begin(), ids.end());
  std::vector<RackSegment> segments;
  for (int id : ids) {
    const int rack = cluster_->NodeRack(cluster_->gpu(id).node);
    RackSegment* segment = nullptr;
    for (RackSegment& existing : segments) {
      if (existing.rack == rack) {
        segment = &existing;
        break;
      }
    }
    if (segment == nullptr) {
      segments.push_back(RackSegment{rack, {}, {}, 0, 0.0});
      segment = &segments.back();
    }
    segment->ids.push_back(id);
    segment->memory_bytes += hw::MemoryBytes(cluster_->gpu(id).type);
    segment->tflops += hw::SpecOf(cluster_->gpu(id).type).effective_tflops;
  }
  std::sort(segments.begin(), segments.end(),
            [](const RackSegment& a, const RackSegment& b) { return a.rack < b.rack; });
  const int num_segments = static_cast<int>(segments.size());
  if (num_segments <= 1) {
    // Single rack (or no rack structure): nothing to coarsen.
    return SolveBeam(gpu_ids, options);
  }

  // Default within-rack order: big memory first, then fast first — the same
  // feasibility-minded heuristic the beam seeds use. Id-free tie-breaks keep
  // equal multisets on different ids order-identical.
  for (RackSegment& segment : segments) {
    segment.order = segment.ids;
    std::stable_sort(segment.order.begin(), segment.order.end(), [&](int a, int b) {
      const hw::Gpu& ga = cluster_->gpu(a);
      const hw::Gpu& gb = cluster_->gpu(b);
      const uint64_t ma = hw::MemoryBytes(ga.type);
      const uint64_t mb = hw::MemoryBytes(gb.type);
      if (ma != mb) {
        return ma > mb;
      }
      const double ta = hw::SpecOf(ga.type).effective_tflops;
      const double tb = hw::SpecOf(gb.type).effective_tflops;
      if (ta != tb) {
        return ta > tb;
      }
      if (ga.type != gb.type) {
        return static_cast<int>(ga.type) < static_cast<int>(gb.type);
      }
      return ga.node < gb.node;
    });
  }

  // ---- Coarse phase: search the rack order. Few racks are enumerated
  // ---- exhaustively; beyond that, deterministic heuristic orders plus
  // ---- adjacent-swap local search at rack granularity.
  std::vector<std::vector<int>> rack_orders;
  uint64_t permutations = 1;
  for (int s = 2; s <= num_segments && permutations <= 720; ++s) {
    permutations *= static_cast<uint64_t>(s);
  }
  if (permutations <= 720) {
    std::vector<int> perm(static_cast<size_t>(num_segments));
    std::iota(perm.begin(), perm.end(), 0);
    do {
      rack_orders.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
  } else {
    std::vector<int> base(static_cast<size_t>(num_segments));
    std::iota(base.begin(), base.end(), 0);
    rack_orders.push_back(base);
    std::vector<int> by_memory = base;
    std::stable_sort(by_memory.begin(), by_memory.end(), [&](int a, int b) {
      return segments[static_cast<size_t>(a)].memory_bytes >
             segments[static_cast<size_t>(b)].memory_bytes;
    });
    rack_orders.push_back(by_memory);
    std::vector<int> by_tflops = base;
    std::stable_sort(by_tflops.begin(), by_tflops.end(), [&](int a, int b) {
      return segments[static_cast<size_t>(a)].tflops > segments[static_cast<size_t>(b)].tflops;
    });
    rack_orders.push_back(by_tflops);
  }

  Partition best;
  std::vector<int> best_rack_order;
  const auto evaluate = [&](const std::vector<int>& rack_order) {
    const double bound = options.prune && best.feasible ? best.bottleneck_time : kInf;
    Partition candidate = SolveFixedOrder(ComposeOrder(segments, rack_order), options, bound);
    if (ImprovesPartition(candidate, best)) {
      best = std::move(candidate);
      best_rack_order = rack_order;
    }
  };
  {
    // The enumerated (or heuristic) rack orders are independent candidates:
    // batch them onto the pool and pick the winner in enumeration order.
    std::vector<std::vector<int>> orders;
    orders.reserve(rack_orders.size());
    for (const std::vector<int>& rack_order : rack_orders) {
      orders.push_back(ComposeOrder(segments, rack_order));
    }
    std::vector<Partition> results = SolveOrderBatch(options, kInf, orders);
    for (size_t index = 0; index < results.size(); ++index) {
      if (ImprovesPartition(results[index], best)) {
        best = std::move(results[index]);
        best_rack_order = rack_orders[index];
      }
    }
  }
  if (permutations > 720 && best.feasible) {
    // Adjacent-swap polish over the rack order. Sequential accepts feed the
    // next probe's base order, so this short loop (num_segments - 1 probes
    // per pass) stays serial by design.
    for (int pass = 0; pass < 3; ++pass) {
      bool improved = false;
      for (int a = 0; a + 1 < num_segments; ++a) {
        std::vector<int> swapped = best_rack_order;
        std::swap(swapped[static_cast<size_t>(a)], swapped[static_cast<size_t>(a) + 1]);
        const Partition before = best;
        evaluate(swapped);
        improved = improved || best.bottleneck_time < before.bottleneck_time ||
                   (best.feasible && !before.feasible);
      }
      if (!improved) {
        break;
      }
    }
  }
  if (!best.feasible || best_rack_order.empty()) {
    // No rack order produced a feasible pipeline with the heuristic interior
    // orders; fall back to the flat beam, which searches interleavings the
    // rack-contiguous composition cannot express.
    return SolveBeam(gpu_ids, options);
  }

  // ---- Refine: coordinate descent across rack segments, each segment's
  // ---- interior order searched with the exact distinct-order enumerator
  // ---- (adjacent swaps when a segment alone overflows rack_order_limit).
  for (int pass = 0; pass < 2; ++pass) {
    bool improved = false;
    for (int position = 0; position < num_segments; ++position) {
      RackSegment& segment = segments[static_cast<size_t>(best_rack_order[
          static_cast<size_t>(position)])];
      const uint64_t limit =
          options.rack_order_limit < 1 ? 1 : static_cast<uint64_t>(options.rack_order_limit);
      std::vector<std::vector<int>> interior_orders;
      if (EstimateOrderCount(*cluster_, segment.ids, limit + 1) <= limit) {
        interior_orders = DistinctClassOrders(*cluster_, segment.ids);
      } else {
        for (size_t a = 0; a + 1 < segment.order.size(); ++a) {
          std::vector<int> swapped = segment.order;
          std::swap(swapped[a], swapped[a + 1]);
          interior_orders.push_back(std::move(swapped));
        }
      }
      // Within one position the interior candidates are independent (each
      // composes the full order with its own interior; only the incumbent
      // bound is shared), so the batch runs on the pool and the winner —
      // the same one the serial accept-in-place loop would end on — is
      // picked in enumeration order and installed once.
      std::vector<std::vector<int>> full_orders;
      full_orders.reserve(interior_orders.size());
      const std::vector<int> saved = segment.order;
      for (const std::vector<int>& interior : interior_orders) {
        segment.order = interior;
        full_orders.push_back(ComposeOrder(segments, best_rack_order));
      }
      segment.order = saved;
      const double bound = options.prune ? best.bottleneck_time : kInf;
      std::vector<Partition> results = SolveOrderBatch(options, bound, full_orders);
      for (size_t index = 0; index < results.size(); ++index) {
        if (ImprovesPartition(results[index], best)) {
          best = std::move(results[index]);
          segment.order = interior_orders[index];
          improved = true;
        }
      }
    }
    if (!improved) {
      break;
    }
  }
  return best;
}

}  // namespace hetpipe::partition
