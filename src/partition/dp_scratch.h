#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hetpipe::partition {

// The partitioner's flat DP buffers, one set per thread (the order searches
// run concurrently on pool workers); internal to src/partition. Buffers only
// grow, so after the first solve of the largest (k, n) shape a thread sees,
// repeated solves allocate nothing (DpScratchGrowCount).
struct DpScratch {
  std::vector<double> dp;    // (k+1) x (n+1): DP row t of the current prefix
  std::vector<int> choice;   // (k+1) x (n+1): the split achieving each dp cell
  std::vector<double> edge;  // k x n: transfer row t of edge order[t-1] -> order[t]
  std::vector<double> vals;  // n: DpRow's masked candidate bottlenecks (SoA)
  std::vector<int> order;    // k: the placed GPU ids
  std::vector<size_t> used;  // per class: ids the order walk has placed
  int64_t grows = 0;

  template <typename T>
  T* Ensure(std::vector<T>& v, size_t need) {
    if (v.capacity() < need) {
      ++grows;
    }
    if (v.size() < need) {
      v.resize(need);
    }
    return v.data();
  }
};

// What a run of Partitioner::SolveOrder calls has left on one thread's
// DpScratch: the ids at positions [0, depth) of `order` are placed (DP rows
// 0..depth-1 are theirs), and `cut` says that placing order[depth] cut
// every cell of row `depth` (at depth == k: that the whole order solved
// infeasible).
struct HeldPrefix {
  int depth = 0;
  bool cut = false;
};

DpScratch& LocalScratch();

}  // namespace hetpipe::partition
