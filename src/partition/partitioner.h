#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hw/cluster.h"
#include "model/profiler.h"
#include "partition/memory_model.h"

namespace hetpipe::runner {
class ThreadPool;
}  // namespace hetpipe::runner

namespace hetpipe::partition {

struct HeldPrefix;  // dp_scratch.h

// One pipeline stage of a solved partition.
struct StageAssignment {
  int first_layer = 0;
  int last_layer = -1;
  int gpu_id = -1;  // physical GPU executing this stage
  hw::GpuType gpu_type = hw::GpuType::kTitanV;
  int node = -1;

  double fwd_compute_s = 0.0;  // per minibatch
  double bwd_compute_s = 0.0;
  double fwd_comm_in_s = 0.0;  // receive activations from the previous stage
  double bwd_comm_in_s = 0.0;  // receive gradients from the next stage
  uint64_t param_bytes = 0;    // weights owned by this stage (synced with the PS)
  uint64_t memory_bytes = 0;
  uint64_t memory_cap = 0;

  // Stage execution time used by the min-max objective (§4: compute plus the
  // communication needed to receive its inputs).
  double TotalTime() const {
    return fwd_compute_s + bwd_compute_s + fwd_comm_in_s + bwd_comm_in_s;
  }
};

// A solved model partition for one virtual worker.
struct Partition {
  bool feasible = false;
  std::vector<StageAssignment> stages;
  double bottleneck_time = 0.0;  // max over stages of TotalTime()
  double sum_time = 0.0;         // sum over stages (the Nm=1 round-trip basis)

  int num_stages() const { return static_cast<int>(stages.size()); }
  std::string ToString(const model::ModelProfile& profile) const;
};

// How SolveScalable searches the space of (type, node) stage orders. The
// exact enumeration is optimal but its distinct-order count is a multinomial
// that explodes once a virtual worker spans many distinct nodes (16 GPUs on
// 16 nodes is already 16! orders); the scalable strategies trade optimality
// guarantees for polynomial search cost. See docs/architecture.md
// ("Partition search strategies").
enum class SearchStrategy {
  kAuto,          // pick by search-space size (exact whenever it is tractable)
  kExact,         // every distinct (type, node) order: optimal
  kBeam,          // beam over order prefixes + swap local search
  kHierarchical,  // rack-level coarse order, then within-rack refinement
};
const char* SearchStrategyName(SearchStrategy strategy);

// Inverse of SearchStrategyName: decodes "auto" / "exact" / "beam" /
// "hierarchical" into *out and returns true; returns false (leaving *out
// untouched) on anything else. The serve protocol and CLI flags parse
// strategy tokens through this one mapping.
bool ParseSearchStrategy(const std::string& name, SearchStrategy* out);

struct PartitionOptions {
  int nm = 1;  // concurrent minibatches the partition must support
  // If true, try every distinct assignment of the virtual worker's GPUs to
  // stage positions and keep the best feasible solution; heterogeneous VWs
  // care because memory demand falls toward the back of the pipeline while
  // the first stage needs the most.
  bool search_gpu_orders = true;
  // When set, the GPU-order enumeration is solved in parallel on this pool;
  // results are reduced in enumeration order, so the answer is byte-identical
  // to the serial search. Nested calls from inside a pool task degrade to
  // serial automatically (ThreadPool::ParallelFor is nesting-safe).
  runner::ThreadPool* pool = nullptr;
  StageMemoryParams mem_params;

  // ---- Search-strategy knobs. ----
  // kAuto picks exact whenever the distinct-order estimate fits under
  // exact_order_limit, so every paper-scale solve is the exact optimum; an
  // explicit strategy is honored whenever there is an order search to run
  // (with search_gpu_orders off the given order IS the stage order, so
  // everything resolves to the exact fixed-order DP).
  SearchStrategy strategy = SearchStrategy::kAuto;
  // Largest distinct (type, node) order count the auto selector still solves
  // exactly. The default is far above every paper/mixed grid in this repo
  // (those peak at a few thousand orders) but well below the multinomials a
  // many-node virtual worker produces.
  int64_t exact_order_limit = 10000;
  // Beam width of the prefix beam search (kBeam and the hierarchical coarse
  // phase when racks overflow exact enumeration).
  int beam_width = 8;
  // Within-rack refinement enumerates a rack segment's distinct orders
  // exactly up to this count; beyond it the segment falls back to adjacent
  // swap local search.
  int64_t rack_order_limit = 720;
};

// Min-max partitioner (§7): splits the layer chain into k contiguous stages,
// one per GPU of a virtual worker, minimizing the maximum per-stage
// execution time (compute + input communication) subject to each stage
// fitting its GPU's memory with Nm concurrent minibatches. The paper solves
// this with CPLEX; this implementation solves the identical objective exactly
// by dynamic programming over (layer, stage) plus a branch-and-bound search
// over GPU orders.
//
// A fixed order costs at most k rows of n cells of n splits, O(k n^2), with
// O(1) work per split: stage times come from the partitioner's per-class
// cumulative tables, stage memory from the graph's prefix sums, and transfer
// times from one row per distinct link of the cluster, built with the tables
// at construction; the DP runs on flat thread-local scratch reused across
// solves (no per-solve allocation after warmup). The search does far less
// than that bound, because it computes only what a leaf can read:
// - The exact search walks the trie of orders of interchangeable-GPU classes
//   (same type, same link objects to the rest of the virtual worker) depth
//   first, so orders sharing a prefix share its DP rows. Its leaves come in
//   the order a factorial next_permutation scan with (type, node) dedup
//   first reaches them, and every order it skips ties a kept, earlier one
//   bit for bit, so exact ties break the same way that scan's "first wins"
//   reduction does.
// - Row t depends on the GPU placed at t only through the link from the GPU
//   before it, so siblings on one link share one row (see PlaceGpu).
// - Row k-1 starts at the first split that fits the last GPU: row k reads
//   nothing below it.
// - Each cell evaluates only splits that can win: inside the span between
//   the first and last finite cell of the row before it and past the memory
//   and incumbent frontiers, scanning out from the previous cell's argmin
//   only as far as a candidate could still beat the best so far (see
//   DpRow).
//
// The partitioner holds its profile and cluster by pointer and fingerprints
// them once, at construction (inputs_fingerprint()), so neither may change
// while it lives. Clusters are immutable once built (outside tests, only
// ClusterSpec::Build calls SetLinkTopology / set_spec_text, before any
// partitioner exists); PartitionCache::Solve asserts this in Debug builds.
class Partitioner {
 public:
  Partitioner(const model::ModelProfile& profile, const hw::Cluster& cluster);

  // Solves for the virtual worker owning `gpu_ids` (k = gpu_ids.size()): the
  // one solve entry point. Resolves options.strategy (kAuto goes through
  // ResolveSearchStrategy) and runs the exact, beam, or hierarchical search
  // (src/partition/search.cc). The exact tier is optimal, ties included; the
  // approximate tiers return a valid partition (built by the same
  // BuildFixedPartition machinery, so TimeOf/stage fields mean the same
  // thing) whose bottleneck is >= the exact optimum; they search only a
  // polynomial slice of the order space. Callers that need the optimum
  // whatever the input size set options.strategy = kExact.
  Partition SolveScalable(const std::vector<int>& gpu_ids,
                          const PartitionOptions& options) const;

  const model::ModelProfile& profile() const { return *profile_; }
  const hw::Cluster& cluster() const { return *cluster_; }
  // SolveInputsFingerprint(profile(), cluster()), computed once.
  uint64_t inputs_fingerprint() const { return inputs_fingerprint_; }
  // Rank of a class of cluster() among the cluster's classes ordered by name
  // (the order inputs_fingerprint() hashes them in; equal names share a
  // rank), so comparing ranks compares class names.
  int ClassNameRank(hw::GpuType gpu) const {
    return class_name_ranks_.at(static_cast<size_t>(hw::SpecOf(gpu).order));
  }

  // Raw combined table for the DP inner loop, which cannot afford a
  // bounds-checked call per state, for a class of cluster(): entry
  // last * num_layers + first = profile().StageFwdTime(first, last, gpu) +
  // profile().StageBwdTime(first, last, gpu), i.e. the total compute time of
  // stage [first, last]. The DP scans candidate split points `first` at a
  // fixed `last`, so this transposed layout makes that scan a contiguous
  // unit-stride pass. Each entry is the single addition fwd + bwd of the two
  // running sums — the same operands in the same order a scalar loop adds
  // them — so reading it is bit-identical to computing the sum in the loop.
  const double* TotalCumByLast(hw::GpuType gpu) const {
    return total_cum_by_last_.at(static_cast<size_t>(hw::SpecOf(gpu).order)).data();
  }

 private:
  // Every order of interchangeable-GPU classes (InterchangeableGroups in
  // search.cc), as a depth-first walk of their trie that computes each
  // prefix's DP rows once, under a shared branch-and-bound incumbent. The
  // orders it skips tie kept, earlier ones bit for bit, so the result is
  // that of every distinct (type, node) order: the optimum.
  Partition SolveExact(const std::vector<int>& gpu_ids, const PartitionOptions& options) const;

  // Beam search over (type, node) order prefixes: states carry the exact DP
  // row of their closed stages, extend one class at a time, and the top
  // options.beam_width states per depth survive. A state computes one
  // closing row per distinct link to the classes it can extend with (the row
  // depends on the next class only through that link), and only the
  // survivors are materialised. The surviving complete orders and two
  // heuristic seeds are solved with SolveOrders, and the winner is polished
  // by deterministic pairwise-swap local search, one SolveOrder per probe.
  // Deterministic, and invariant under permutations of `gpu_ids` with equal
  // (type, node) multisets (ids are canonicalized first).
  Partition SolveBeam(const std::vector<int>& gpu_ids, const PartitionOptions& options) const;

  // Hierarchical search over the rack topology: coarsen the virtual worker
  // to its racks and solve one list of rack orders with SolveOrders (every
  // permutation up to 720 of them; three heuristic orders otherwise, then
  // adjacent swaps, one SolveOrder per probe). Then refine each rack's
  // internal order (coordinate descent across racks): every leaf of a lazy
  // walk of its (type, node) class-order trie is written into the best order
  // so far and solved with SolveOrder, or, past rack_order_limit, its
  // adjacent swaps are solved with SolveOrders. Virtual workers inside a
  // single rack degrade to the beam.
  Partition SolveHierarchical(const std::vector<int>& gpu_ids,
                              const PartitionOptions& options) const;

  // Solves the order order[0..k-1] (order[i] runs stage i) on the calling
  // thread's DpScratch, resuming at the first position where it differs
  // from the rows `held` says the thread holds, and updates `held`. An order
  // that repeats the ids up to a held cut row returns infeasible with no DP
  // work. Cells whose bottleneck strictly exceeds `prune_above` are cut, and
  // a cut order reports infeasible, which callers must treat as "no
  // solution better than the incumbent". Exact as long as every call on one
  // HeldPrefix passes a bound no looser than the calls before it (see
  // SolveExact); a fresh HeldPrefix starts at row 0.
  Partition SolveOrder(const int* order, int k, const PartitionOptions& options,
                       double prune_above, HeldPrefix* held) const;
  // tests/partition_test.cc: runs SolveOrder calls on one HeldPrefix.
  friend struct PartitionerTestAccess;

  // First-wins fold of `orders` into *best under one branch-and-bound
  // incumbent, seeded from *best when it is feasible. Each run of orders
  // that agree one position past the prefix the whole list shares is one
  // task on options.pool with its own HeldPrefix, and the runs' winners are
  // reduced in list order (see search.cc for why any schedule yields the
  // same winner). Returns the index of the order that replaced *best, or -1
  // when none did.
  int SolveOrders(const std::vector<std::vector<int>>& orders, const PartitionOptions& options,
                  Partition* best) const;

  // The prefix DP behind every solve, on the calling thread's DpScratch: the
  // dp/choice table and the incoming-transfer row pointers are stacks indexed
  // by position, so a walk returning to depth t overwrites row t and keeps
  // the prefix's rows. PlaceGpu puts GPU `id` at position t (t == 0 starts
  // an order); for 0 < t < k it pushes the transfer row of the edge
  // order[t-1] -> id (the fwd input of stage t, the bwd input of stage t-1),
  // then runs DP row t, and returns false when every cell of that row is
  // cut; t == k runs the last row. Row t depends on `id` only through that
  // transfer row, so a placement that follows a sibling's at the same
  // position (nothing above it placed since) on the same link reuses the
  // sibling's row and answers from its minimum. At t == k-1, `id` runs the
  // last stage: the row starts at the first split whose stage [j, n) fits
  // it under the bound, the cells below are +inf and never scanned, and a
  // reused row must have started at the same cell. FinishOrder runs the last
  // row and builds the partition (infeasible when cut or out of memory). The
  // exact walk calls them directly; every other search goes through
  // SolveOrder.
  bool PlaceGpu(int t, int k, int id, const PartitionOptions& options, double prune_above) const;
  Partition FinishOrder(int k, const PartitionOptions& options, double prune_above) const;
  // The transfer row of the link from_id -> to_id: entry j (0 < j < n) is
  // the seconds to send the activation after layer j-1 over it, entry 0 is
  // 0; a stage's fwd_x as is, the sending stage's bwd_x from row + 1. O(1):
  // the link object LinkBetween returns picks its row by address.
  const double* TransferRow(int from_id, int to_id) const;
  // The all-zero row: the first stage's incoming transfer.
  const double* ZeroTransferRow() const { return transfer_rows_.data(); }

  // One row of the k-stage DP: places stage q-1 on a GPU of `type` after
  // the q-1 stages whose minimal bottlenecks over the first j layers are
  // prev[j], writing cur[i] (and cur_choice[i], the split achieving it, when
  // cur_choice is not null) for every i in [first_cell, n-(k-q)]: the row's
  // cells from the first one its reader needs (q for an interior row, n for
  // the last row, q == k). fwd_x[j] is the transfer into the stage when it
  // starts at layer j (all zeros for the first stage); bwd_x[last] is the
  // transfer out of it when it ends at layer `last` (null for the last
  // stage). Candidates above `prune_above` are cut. Returns the smallest
  // cell it wrote, +inf when every written cell is cut: PlaceGpu tests it
  // against +inf, and the beam ranks the row's children by it. Only splits
  // that can win are evaluated: those inside the span between the first and
  // last finite cell of prev and past the row's frontier, the larger of the
  // first memory-feasible split and the first split whose compute time
  // alone is within `prune_above`; both only move right as i grows. A cell
  // starts at the previous cell's argmin and walks right while the suffix
  // minimum of prev is below the best so far and left while the stage's
  // compute time is within it, so it costs O(n) only at worst. PlaceGpu
  // runs it once per placed position whose row it cannot reuse (once per
  // distinct link below a prefix in the exact walk, at most once per
  // position past the resume point in SolveOrder); the beam closes one
  // stage at a time with it, once per (state, distinct outgoing link).
  double DpRow(int q, int k, hw::GpuType type, const PartitionOptions& options,
               const double* prev, const double* fwd_x, const double* bwd_x, double prune_above,
               int first_cell, double* cur, int* cur_choice) const;

  const model::ModelProfile* profile_;
  const hw::Cluster* cluster_;
  uint64_t inputs_fingerprint_;
  std::vector<int> class_name_ranks_;  // by GpuSpec::order (see ClassNameRank)
  // total_cum_by_last_[order][last * n + first] (see TotalCumByLast), indexed
  // by GpuSpec::order and built for the cluster's classes only: n^2 doubles
  // per class. Layer chains are block-granular (tens of entries), so a table
  // is a few tens of KiB, built once per partitioner.
  std::vector<std::vector<double>> total_cum_by_last_;
  // n doubles per row (see TransferRow): row 0 all zeros, row 1 the cluster's
  // PCIe link, row 2 its shared inter link, row 3 + p its pair_links()[p].
  // Each entry is link.TransferTime(BoundaryTransferBytes(j - 1)), the
  // expression BuildFixedPartition evaluates, and is >= 0, which DpRow's
  // incumbent frontier relies on.
  std::vector<double> transfer_rows_;
};

// FNV-1a state (util::Fnv1a) over every (profile, cluster) input a solve
// depends on, whatever the virtual worker: the per-layer fwd/bwd time on each
// GPU class present in the cluster, transfer/param/stash bytes, class
// identities, the cluster layout, and its base link models. Value-based, so
// two processes that build the same model and cluster spec agree on it. The
// partition cache's keys continue this state with the per-call inputs.
uint64_t SolveInputsFingerprint(const model::ModelProfile& profile, const hw::Cluster& cluster);

// Number of times the calling thread's reusable partitioner scratch had to
// grow a buffer. After one solve of the largest (k, n) a thread will see, the
// count stays flat across further solves — the no-allocation property
// bench/partitioner_speed and the tests pin.
int64_t DpScratchGrowCount();

// Builds the partition with prescribed stage boundaries: stage q covers
// layers (stage_lasts[q-1], stage_lasts[q]] on gpu_ids[q]. No optimization;
// `feasible` reports whether every stage fits its GPU's memory at `nm`.
// Used by the naive-baseline ablations and by tools that want to inspect a
// hand-chosen split.
Partition BuildFixedPartition(const model::ModelProfile& profile, const hw::Cluster& cluster,
                              const std::vector<int>& gpu_ids,
                              const std::vector<int>& stage_lasts, int nm,
                              const StageMemoryParams& mem_params = {});

// The Maxm probe of §4 (the partition cache's FindMaxNm wraps it): largest
// nm in [1, nm_cap] for which `solve` (called with `options` at that nm) is
// feasible; 0 if even nm=1 is not, or if nm_cap < 1 (no solve). Feasibility
// is monotone non-increasing in nm (stage memory grows with nm through
// InFlightAtStage), so this solves at nm_cap first and returns it when
// feasible (1 solve), and otherwise binary-searches [1, nm_cap - 1] (at most
// 1 + ceil(log2(nm_cap)) solves in all) instead of scanning nm_cap -> 1; the
// returned nm is identical to the linear scan's. Its feasible probes come in
// rising nm, so the last of them is the one at the returned nm.
int FindMaxNmWith(const std::function<Partition(const PartitionOptions&)>& solve, int nm_cap,
                  PartitionOptions options);

// True when `candidate` improves on `best` under the min-max objective with
// the sum-time tie-break: the "first wins" rule every search tier reduces
// its candidates with, visiting them in enumeration order.
bool ImprovesPartition(const Partition& candidate, const Partition& best);

// Number of distinct (type, node) orderings of the virtual worker's GPUs, a
// multinomial k! / prod(class_count!): an upper bound on the leaves the exact
// search walks, and the count ResolveSearchStrategy compares against
// exact_order_limit. Saturates at `cap` (so thousand-node multisets never
// overflow); cap must be >= 1.
uint64_t EstimateOrderCount(const hw::Cluster& cluster, const std::vector<int>& gpu_ids,
                            uint64_t cap);

// The strategy SolveScalable (and the partition cache's key derivation) uses
// for this input: an explicit options.strategy wins; kAuto picks kExact when
// EstimateOrderCount fits under options.exact_order_limit (or the order
// search is off — a fixed order has nothing to search), else kHierarchical
// when the virtual worker spans more than one rack, else kBeam. Never
// returns kAuto, and a resolved strategy passed back in resolves to itself,
// so a caller may resolve once and hand the result on as options.strategy.
SearchStrategy ResolveSearchStrategy(const hw::Cluster& cluster,
                                     const std::vector<int>& gpu_ids,
                                     const PartitionOptions& options);

// Stage boundaries of the naive baselines the ablation compares against.
enum class NaiveSplit {
  kEqualLayers,    // the same number of layers per stage
  kParamBalanced,  // roughly equal parameter bytes per stage
};
std::vector<int> NaiveStageLasts(const model::ModelGraph& graph, int k, NaiveSplit kind);

}  // namespace hetpipe::partition
