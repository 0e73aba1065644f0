// The partitioner's GPU-order search tiers behind Partitioner::SolveScalable:
// strategy selection, the exact walk of the trie of interchangeable-class
// orders, the beam search over (type, node) order prefixes, and the
// rack-hierarchical search. The exact tier is optimal but visits a
// multinomial number of orders (at most the distinct (type, node) orders,
// fewer when same-type GPUs on different nodes are interchangeable); the
// beam and hierarchical tiers visit a polynomial slice of that space. Every
// tier computes its rows with the same prefix DP (PlaceGpu / DpRow in
// partitioner.cc) and starts a solve at the first position that differs
// from rows it already holds. The exact walk shares each prefix's rows among
// the orders below it. The beam closes one stage per (state, distinct link).
// Every other order the beam and hierarchical tiers try goes through one
// primitive, SolveOrder, which resumes at the first position where the order
// differs from its HeldPrefix's rows. The swap polishes and the leaves of the
// refinement's lazy interior walk call it once per order; SolveOrders folds
// it over a list (beam candidates, rack orders, swap fallbacks). Rows cut at an
// earlier, looser bound give later orders a fresh solve's answer (see
// SolveExact), so a returned partition is exactly what the exact tier would
// report for its order — only the set of orders tried differs. Everything
// here is deterministic and invariant under permutations of the input gpu
// ids with equal (type, node) multisets: ids are canonicalized up front and
// every search decision is a function of classes and positions, never of raw
// id values.
//
// Parallelism: when options.pool is set (and would really fan out), the
// bulk loops — the exact walk's and the refinement's first-level subtrees,
// the runs of orders SolveOrders splits its list into, and the beam's
// per-state closings — run under ThreadPool::ParallelFor into
// index-addressed slots, and every winner is picked by a reduction that
// walks those slots in input order. Each task holds its own prefix rows on
// its thread's scratch. Candidates are independent except through the shared
// branch-and-bound incumbent, and the incumbent is only ever an upper bound
// on the optimum (see SolveOrders), so parallel and serial runs are
// byte-identical at any thread count. The short sequential-accept polish
// loops (pairwise-swap hill climbs) have true loop-carried dependences and
// deliberately stay serial.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "partition/dp_scratch.h"
#include "partition/partitioner.h"
#include "runner/thread_pool.h"

namespace hetpipe::partition {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One class of a virtual worker's GPUs, with its member ids ascending.
// CanonicalGroups builds the distinct (type, node) classes, ordered by the
// cluster's class order (GpuSpec::order), then node — an id-free canonical
// order, so equal multisets on different ids group identically — for the
// beam and the hierarchical refinement's segment walks. The exact walk uses the coarser InterchangeableGroups
// (`node` is then the first member's).
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
      return hw::SpecOf(a.type).order < hw::SpecOf(b.type).order;
    }
    return a.node < b.node;
  });
  return groups;
}

// The classes of interchangeable GPUs among `ids`, each with its ids
// ascending: a and b share a class when they have the same type and every
// other GPU c of the virtual worker reaches both over the same LinkModel
// object (&LinkBetween(a, c) == &LinkBetween(b, c)). Swapping two members
// of a class in an order then changes no stage type and no transfer row,
// so the two orders' solves tie bit for bit. Links are symmetric, so the
// relation is transitive: each id joins the first class whose first member
// it matches. Every (type, node) class lies inside one of these classes.
std::vector<Group> InterchangeableGroups(const hw::Cluster& cluster, std::vector<int> ids) {
  std::sort(ids.begin(), ids.end());
  const auto interchangeable = [&](int a, int b) {
    if (cluster.gpu(a).type != cluster.gpu(b).type) {
      return false;
    }
    for (int c : ids) {
      if (c != a && c != b && &cluster.LinkBetween(a, c) != &cluster.LinkBetween(b, c)) {
        return false;
      }
    }
    return true;
  };
  std::vector<Group> groups;
  for (int id : ids) {
    const auto match = std::find_if(groups.begin(), groups.end(), [&](const Group& group) {
      return interchangeable(group.ids.front(), id);
    });
    if (match == groups.end()) {
      groups.push_back(Group{cluster.gpu(id).type, cluster.gpu(id).node, {id}});
    } else {
      match->ids.push_back(id);
    }
  }
  return groups;
}

// Walks the trie of the distinct class orderings of the grouped ids depth
// first from depth t (used[g] of group g's ids already placed). The
// candidates at a depth are the next unused id of each class, ascending;
// place(t, id) puts one at position t and returns false to cut its subtree,
// and leaf() runs on every complete order. Each leaf is the minimal GPU-id
// representative of its class sequence, and leaves come in lexicographic
// order of those representatives: on CanonicalGroups, exactly the first
// occurrences of a factorial next_permutation scan with (type, node) dedup
// (tests/oracles DistinctClassOrders), so "first wins" tie-breaks match
// that scan's, with a multinomial number of leaves instead of k!.
template <typename Place, typename Leaf>
void WalkClassOrders(const std::vector<Group>& groups, size_t* used, int t, int k,
                     const Place& place, const Leaf& leaf) {
  if (t == k) {
    leaf();
    return;
  }
  for (int last = -1;;) {
    size_t pick = groups.size();
    for (size_t g = 0; g < groups.size(); ++g) {
      if (used[g] < groups[g].ids.size() && groups[g].ids[used[g]] > last &&
          (pick == groups.size() || groups[g].ids[used[g]] < groups[pick].ids[used[pick]])) {
        pick = g;
      }
    }
    if (pick == groups.size()) {
      return;
    }
    last = groups[pick].ids[used[pick]];
    if (place(t, last)) {
      ++used[pick];
      WalkClassOrders(groups, used, t + 1, k, place, leaf);
      --used[pick];
    }
  }
}

// Realizes a group-index sequence as a gpu-id order: each group contributes
// its ids in ascending order (the minimal representative, matching the exact
// walk's convention).
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

// The branch-and-bound incumbent a search shares across pool threads: the
// best feasible bottleneck offered so far, never below the optimum. One
// atomic: every store lowers it (a compare-exchange min), so its
// modification order only tightens, and read-read coherence means no thread
// ever reads a bound looser than one it read before, which is all a
// HeldPrefix needs (see SolveOrder). Relaxed order suffices: any value the
// bound has held is a valid cut, and nothing else is published through it.
class Incumbent {
 public:
  explicit Incumbent(double initial) : bound_(initial) {}
  // What to cut at.
  double Bound() const { return bound_.load(std::memory_order_relaxed); }
  void Offer(const Partition& candidate) {
    if (!candidate.feasible) {
      return;
    }
    // A failed exchange reloads `bound`; stop once it is no higher.
    double bound = bound_.load(std::memory_order_relaxed);
    while (candidate.bottleneck_time < bound) {
      if (bound_.compare_exchange_weak(bound, candidate.bottleneck_time,
                                       std::memory_order_relaxed)) {
        return;
      }
    }
  }
  // Offers `candidate`, then moves it into *slot if it improves on it.
  bool Keep(Partition candidate, Partition* slot) {
    Offer(candidate);
    if (!ImprovesPartition(candidate, *slot)) {
      return false;
    }
    *slot = std::move(candidate);
    return true;
  }

 private:
  std::atomic<double> bound_;
};

// Runs body(first, last) over [0, count): one call per index on a pool that
// would really fan out, one call over the whole range otherwise (serial, or
// inside a pool worker, where ParallelFor would run inline anyway). Bodies
// write only the slot of `first`, so callers reduce the slots in index order
// (FoldSlots) whichever thread ran which index. A body places the prefix its
// indices share once per call: once in all when serial.
template <typename Body>
void RunRanges(runner::ThreadPool* pool, int64_t count, const Body& body) {
  if (pool != nullptr && count > 1 && !pool->RunsInline()) {
    pool->ParallelFor(count, [&](int64_t index) { body(index, index + 1); });
    return;
  }
  body(0, count);
}

// Folds the slots into *best in index order, first wins. Returns the index
// of the slot that last replaced *best (the winner), or -1.
int FoldSlots(std::vector<Partition>* slots, Partition* best) {
  int winner = -1;
  for (size_t index = 0; index < slots->size(); ++index) {
    if (ImprovesPartition((*slots)[index], *best)) {
      *best = std::move((*slots)[index]);
      winner = static_cast<int>(index);
    }
  }
  return winner;
}

}  // namespace

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
  // Multinomial k! / prod(c_g!) over the (type, node) classes, built one id
  // at a time: the first i ids have i! / prod(c_g(i)!) distinct orders, so
  // adding id i multiplies by i / (its class's multiplicity so far). Each
  // partial product is such a count, hence integral and non-decreasing, so
  // saturating at the first one above `cap` returns min(multinomial, cap).
  uint64_t total = 1;
  for (size_t i = 0; i < gpu_ids.size(); ++i) {
    const hw::Gpu& gpu = cluster.gpu(gpu_ids[i]);
    uint64_t same = 1;
    for (size_t j = 0; j < i; ++j) {
      const hw::Gpu& other = cluster.gpu(gpu_ids[j]);
      same += other.type == gpu.type && other.node == gpu.node ? 1 : 0;
    }
    const __uint128_t next = static_cast<__uint128_t>(total) * (i + 1) / same;
    if (next > cap) {
      return cap;
    }
    total = static_cast<uint64_t>(next);
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

// Every order shares one branch-and-bound incumbent, and the runs' slots are
// reduced in list order, which makes the winner independent of thread
// interleaving: the incumbent (seeded from *best, tightened to the min
// bottleneck of any feasible result) never drops below min(*best, list
// optimum), so whenever the list can beat or tie *best at all, every order
// achieving the list minimum is solved exactly under any schedule (`cand >
// prune_above` is strict), and orders a tighter bound happens to prune could
// never have won the reduction anyway.
int Partitioner::SolveOrders(const std::vector<std::vector<int>>& orders,
                             const PartitionOptions& options, Partition* best) const {
  // Run r is orders [runs[r], runs[r + 1]): they agree one position past
  // the prefix every order in the list shares, so each run is one
  // first-level subtree of the list's trie.
  size_t shared = orders.empty() ? 0 : orders.front().size();
  for (const std::vector<int>& order : orders) {
    shared = static_cast<size_t>(
        std::mismatch(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(shared),
                      orders.front().begin())
            .first -
        order.begin());
  }
  std::vector<size_t> runs;
  for (size_t index = 0; index < orders.size(); ++index) {
    if (index == 0 ||
        (shared < orders[index].size() && orders[index][shared] != orders[index - 1][shared])) {
      runs.push_back(index);
    }
  }
  const int64_t num_runs = static_cast<int64_t>(runs.size());
  runs.push_back(orders.size());
  Incumbent incumbent(best->feasible ? best->bottleneck_time : kInf);
  std::vector<Partition> slots(static_cast<size_t>(num_runs));
  std::vector<int> picks(static_cast<size_t>(num_runs), -1);
  RunRanges(options.pool, num_runs, [&](int64_t first, int64_t last) {
    HeldPrefix held;
    for (size_t index = runs[static_cast<size_t>(first)]; index < runs[static_cast<size_t>(last)];
         ++index) {
      const std::vector<int>& order = orders[index];
      if (incumbent.Keep(SolveOrder(order.data(), static_cast<int>(order.size()), options,
                                    incumbent.Bound(), &held),
                         &slots[static_cast<size_t>(first)])) {
        picks[static_cast<size_t>(first)] = static_cast<int>(index);
      }
    }
  });
  const int slot = FoldSlots(&slots, best);
  return slot < 0 ? -1 : picks[static_cast<size_t>(slot)];
}

Partition Partitioner::SolveExact(const std::vector<int>& gpu_ids,
                                  const PartitionOptions& options) const {
  const int k = static_cast<int>(gpu_ids.size());
  if (k == 0 || profile_->num_layers() < k) {
    return Partition{};
  }
  if (!options.search_gpu_orders || k <= 1) {
    HeldPrefix held;
    return SolveOrder(gpu_ids.data(), k, options, kInf, &held);
  }
  // Each order of interchangeable classes is one leaf of the walk, realized
  // by its smallest id order. An order the walk skips differs from a leaf
  // only by swaps within classes, so it ties that lexicographically smaller
  // leaf bit for bit and never wins "first wins": the result is that of
  // walking every distinct (type, node) order. Rows
  // are cut at the incumbent read when they are computed, which only
  // tightens, so a row reused below a prefix, or by a sibling on the same
  // link (PlaceGpu), equals a fresh solve's row wherever that is finite and
  // elsewhere exceeds the bound the fresh solve would cut at: every leaf's
  // result is the fresh solve's.
  const std::vector<Group> groups = InterchangeableGroups(*cluster_, gpu_ids);
  Incumbent incumbent(kInf);
  // First-level subtrees: each class's smallest id at depth 0.
  std::vector<Partition> slots(groups.size());
  RunRanges(options.pool, static_cast<int64_t>(groups.size()), [&](int64_t first, int64_t last) {
    size_t* used = LocalScratch().Ensure(LocalScratch().used, groups.size());
    std::fill(used, used + groups.size(), size_t{0});
    int64_t rank = 0;
    Partition& best = slots[static_cast<size_t>(first)];
    WalkClassOrders(
        groups, used, 0, k,
        [&](int t, int id) {
          if (t > 0) {
            return PlaceGpu(t, k, id, options, incumbent.Bound());
          }
          const int64_t subtree = rank++;
          return subtree >= first && subtree < last && PlaceGpu(0, k, id, options, kInf);
        },
        [&] { incumbent.Keep(FinishOrder(k, options, incumbent.Bound()), &best); });
  });
  Partition best;
  FoldSlots(&slots, &best);
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

  // A group's first id stands in for its class: links depend on nodes only.
  const auto rep = [&](int g) { return groups[static_cast<size_t>(g)].ids.front(); };
  const size_t stride = static_cast<size_t>(n) + 1;

  // ---- Beam over order prefixes. ----
  BeamState root;
  root.used.assign(static_cast<size_t>(num_groups), 0);
  root.dp.assign(stride, kInf);
  root.dp[0] = 0.0;
  root.score = 0.0;
  std::vector<BeamState> beam = {root};
  // An expansion before it is materialised: class `group` after beam state
  // `state`, scored by the min of its closing row (`row` of the state's
  // Closing; -1 at depth 0, where nothing closes).
  struct Child {
    double score;
    int state;
    int group;
    int row;
  };
  // Choosing class g for stage t closes stage t-1: its row is the prefix
  // DP's row for any order with this prefix, and depends on g only through
  // the link from the state's last class to g. So each state computes one
  // row per distinct link.
  struct Closing {
    std::vector<const double*> links;  // each distinct link's TransferRow
    std::vector<double> rows;          // links.size() x stride
    std::vector<double> scores;        // per link: its row's minimum (DpRow's return)
    std::vector<Child> children;
  };
  std::vector<Closing> closings;
  std::vector<Child> children;
  for (int t = 0; t < k; ++t) {
    const auto close_state = [&](int64_t index) {
      const BeamState& state = beam[static_cast<size_t>(index)];
      Closing& closing = closings[static_cast<size_t>(index)];
      const int cur = state.seq.back();
      const double* fwd_x = ZeroTransferRow();
      if (t >= 2) {
        fwd_x = TransferRow(rep(state.seq[static_cast<size_t>(t) - 2]), rep(cur));
      }
      closing.links.clear();
      closing.rows.clear();
      closing.scores.clear();
      closing.children.clear();
      for (int g = 0; g < num_groups; ++g) {
        if (state.used[static_cast<size_t>(g)] >=
            static_cast<int>(groups[static_cast<size_t>(g)].ids.size())) {
          continue;
        }
        const double* link = TransferRow(rep(cur), rep(g));
        const size_t r = static_cast<size_t>(
            std::find(closing.links.begin(), closing.links.end(), link) - closing.links.begin());
        if (r == closing.links.size()) {
          closing.links.push_back(link);
          closing.rows.resize(closing.links.size() * stride, kInf);
          closing.scores.push_back(DpRow(t, k, groups[static_cast<size_t>(cur)].type, options,
                                         state.dp.data(), fwd_x, link + 1, kInf, t,
                                         closing.rows.data() + r * stride, nullptr));
        }
        const double score = closing.scores[r];
        // An all-infinite closing row has no feasible completion.
        if (score != kInf) {
          closing.children.push_back(
              Child{score, static_cast<int>(index), g, static_cast<int>(r)});
        }
      }
    };
    children.clear();
    if (t == 0) {
      for (int g = 0; g < num_groups; ++g) {
        children.push_back(Child{beam[0].score, 0, g, -1});
      }
    } else {
      closings.resize(beam.size());
      RunRanges(options.pool, static_cast<int64_t>(beam.size()),
                [&](int64_t first, int64_t last) {
                  for (int64_t index = first; index < last; ++index) {
                    close_state(index);
                  }
                });
      for (const Closing& closing : closings) {
        children.insert(children.end(), closing.children.begin(), closing.children.end());
      }
    }
    // Rank by (score, class sequence): a child's sequence is its parent's
    // plus one class, and parent sequences within a depth are distinct, so
    // that is (score, parent sequence, class) — a total order, so the
    // survivors do not depend on which thread closed which state.
    const size_t keep = std::min(width, children.size());
    std::partial_sort(children.begin(), children.begin() + static_cast<std::ptrdiff_t>(keep),
                      children.end(), [&](const Child& a, const Child& b) {
                        if (a.score != b.score) {
                          return a.score < b.score;
                        }
                        if (a.state != b.state) {
                          return beam[static_cast<size_t>(a.state)].seq <
                                 beam[static_cast<size_t>(b.state)].seq;
                        }
                        return a.group < b.group;
                      });
    std::vector<BeamState> next(keep);
    for (size_t i = 0; i < keep; ++i) {
      const Child& child = children[i];
      const BeamState& parent = beam[static_cast<size_t>(child.state)];
      BeamState& state = next[i];
      state.seq = parent.seq;
      state.seq.push_back(child.group);
      state.used = parent.used;
      ++state.used[static_cast<size_t>(child.group)];
      if (child.row < 0) {
        state.dp = parent.dp;
      } else {
        const double* row = closings[static_cast<size_t>(child.state)].rows.data() +
                            static_cast<size_t>(child.row) * stride;
        state.dp.assign(row, row + stride);
      }
      state.score = child.score;
    }
    beam = std::move(next);
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

  // ---- Exact evaluation of every candidate (runs on the pool, winner
  // ---- picked in input order), then swap local search. ----
  std::vector<std::vector<int>> orders;
  orders.reserve(seqs.size());
  for (const std::vector<int>& seq : seqs) {
    orders.push_back(RealizeOrder(groups, seq));
  }
  Partition best;
  const int winner = SolveOrders(orders, options, &best);
  if (winner < 0) {
    return best;
  }
  std::vector<int> best_seq = std::move(seqs[static_cast<size_t>(winner)]);

  // Greedy hill climb on pairwise class swaps: all pairs while that is cheap,
  // adjacent pairs at large k. Pruned solves (bound = incumbent bottleneck)
  // keep equal-bottleneck candidates alive, so the sum-time tie-break still
  // applies; accepted swaps update the order in place. Each probe's base
  // order depends on every earlier accept — a true loop-carried dependence —
  // so this polish stays serial by design (it is a constant-factor tail of
  // the search; the bulk phases above are the ones the pool accelerates).
  // Swapping (a, b) keeps positions < a, so each probe resumes at or after
  // the first position where it differs from the probe before it, and the
  // bound only tightens.
  const bool all_pairs = k * (k - 1) / 2 <= 300;
  HeldPrefix held;
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
        const std::vector<int> order = RealizeOrder(groups, swapped);
        Partition candidate =
            SolveOrder(order.data(), k, options, best.bottleneck_time, &held);
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
        return hw::SpecOf(ga.type).order < hw::SpecOf(gb.type).order;
      }
      return ga.node < gb.node;
    });
  }

  // ---- Coarse phase: search the rack order. Few racks are enumerated
  // ---- exhaustively, in next_permutation order; beyond that, deterministic
  // ---- heuristic orders plus adjacent-swap local search at rack
  // ---- granularity. Each rack order is solved as the segments' realized
  // ---- orders end to end.
  uint64_t permutations = 1;
  for (int s = 2; s <= num_segments && permutations <= 720; ++s) {
    permutations *= static_cast<uint64_t>(s);
  }
  const bool enumerate = permutations <= 720;
  std::vector<std::vector<int>> rack_orders;
  std::vector<int> base(static_cast<size_t>(num_segments));
  std::iota(base.begin(), base.end(), 0);
  if (enumerate) {
    std::vector<int> rack_order = base;
    do {
      rack_orders.push_back(rack_order);
    } while (std::next_permutation(rack_order.begin(), rack_order.end()));
  } else {
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
  std::vector<std::vector<int>> orders;
  orders.reserve(rack_orders.size());
  for (const std::vector<int>& rack_order : rack_orders) {
    orders.push_back(ComposeOrder(segments, rack_order));
  }
  Partition best;
  const int winner = SolveOrders(orders, options, &best);
  if (winner < 0) {
    // No rack order produced a feasible pipeline with the heuristic interior
    // orders; fall back to the flat beam, which searches interleavings the
    // rack-contiguous composition cannot express.
    return SolveBeam(gpu_ids, options);
  }
  std::vector<int> best_rack_order = std::move(rack_orders[static_cast<size_t>(winner)]);
  if (!enumerate) {
    // Adjacent-swap polish over the rack order. Sequential accepts feed the
    // next probe's base order, so this short loop (num_segments - 1 probes
    // per pass) stays serial by design.
    HeldPrefix held;
    for (int pass = 0; pass < 3; ++pass) {
      bool improved = false;
      for (int a = 0; a + 1 < num_segments; ++a) {
        std::vector<int> swapped = best_rack_order;
        std::swap(swapped[static_cast<size_t>(a)], swapped[static_cast<size_t>(a) + 1]);
        const std::vector<int> order = ComposeOrder(segments, swapped);
        Partition candidate =
            SolveOrder(order.data(), k, options, best.bottleneck_time, &held);
        if (ImprovesPartition(candidate, best)) {
          improved = improved || candidate.bottleneck_time < best.bottleneck_time;
          best = std::move(candidate);
          best_rack_order = std::move(swapped);
        }
      }
      if (!improved) {
        break;
      }
    }
  }

  // ---- Refine: coordinate descent across rack segments. At each position
  // ---- the segment's interior orders are written into the best order so
  // ---- far: the leaves of a lazy walk of its (type, node) class-order trie,
  // ---- or adjacent swaps of its current order when a segment alone
  // ---- overflows rack_order_limit. Candidates share one incumbent seeded
  // ---- with the best bottleneck, and the first improvement in walk order
  // ---- wins.
  const uint64_t limit =
      options.rack_order_limit < 1 ? 1 : static_cast<uint64_t>(options.rack_order_limit);
  for (int pass = 0; pass < 2; ++pass) {
    bool improved = false;
    int from = 0;  // the segment's first position
    for (int position = 0; position < num_segments; ++position) {
      const RackSegment& segment =
          segments[static_cast<size_t>(best_rack_order[static_cast<size_t>(position)])];
      const int count = static_cast<int>(segment.ids.size());
      std::vector<int> order(static_cast<size_t>(k));
      for (int t = 0; t < k; ++t) {
        order[static_cast<size_t>(t)] = best.stages[static_cast<size_t>(t)].gpu_id;
      }
      if (EstimateOrderCount(*cluster_, segment.ids, limit + 1) <= limit) {
        const std::vector<Group> groups = CanonicalGroups(*cluster_, segment.ids);
        Incumbent incumbent(best.bottleneck_time);
        std::vector<Partition> slots(groups.size());
        RunRanges(options.pool, static_cast<int64_t>(groups.size()),
                  [&](int64_t first, int64_t last) {
                    std::vector<int> leaf = order;
                    HeldPrefix held;
                    size_t* used = LocalScratch().Ensure(LocalScratch().used, groups.size());
                    std::fill(used, used + groups.size(), size_t{0});
                    int64_t rank = 0;
                    WalkClassOrders(
                        groups, used, 0, count,
                        [&](int t, int id) {
                          if (t == 0) {
                            const int64_t subtree = rank++;
                            if (subtree < first || subtree >= last) {
                              return false;
                            }
                          }
                          leaf[static_cast<size_t>(from + t)] = id;
                          // Cut the subtree when its prefix repeats the held
                          // cut row: SolveOrder would return each leaf below
                          // infeasible without DP work.
                          return !(held.cut && held.depth <= from + t &&
                                   std::equal(leaf.begin(), leaf.begin() + held.depth + 1,
                                              LocalScratch().order.begin()));
                        },
                        [&] {
                          incumbent.Keep(
                              SolveOrder(leaf.data(), k, options, incumbent.Bound(), &held),
                              &slots[static_cast<size_t>(first)]);
                        });
                  });
        improved = FoldSlots(&slots, &best) >= 0 || improved;
      } else {
        std::vector<std::vector<int>> swaps(static_cast<size_t>(count) - 1, order);
        for (int a = 0; a + 1 < count; ++a) {
          std::swap(swaps[static_cast<size_t>(a)][static_cast<size_t>(from + a)],
                    swaps[static_cast<size_t>(a)][static_cast<size_t>(from + a) + 1]);
        }
        improved = SolveOrders(swaps, options, &best) >= 0 || improved;
      }
      from += count;
    }
    if (!improved) {
      break;
    }
  }
  return best;
}

}  // namespace hetpipe::partition
