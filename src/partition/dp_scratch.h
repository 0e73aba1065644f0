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
  // k: the partitioner's transfer row into stage t (of edge order[t-1] ->
  // order[t]; the zero row at t = 0). Rows are shared and built once per
  // Partitioner, so the stack holds pointers, not copies.
  std::vector<const double*> in_rows;
  std::vector<int> order;    // k: the placed GPU ids
  std::vector<size_t> used;  // per class: ids the order walk has placed
  // k+1: what DP row t was last computed from, so that PlaceGpu reuses a
  // row that placing a sibling would compute again.
  struct RowMemo {
    uint64_t placed = 0;              // fresh on every placement at position t
    uint64_t above = 0;               // row t-1's `placed` when row t was computed
    const double* out_row = nullptr;  // the outgoing transfer row (null at t == k)
    int first = 0;                    // the first cell DpRow wrote
    double min = 0.0;                 // DpRow's return
  };
  std::vector<RowMemo> rows;
  uint64_t stamps = 0;             // the last `placed` handed out
  std::vector<double> suffix_min;  // n+1: DpRow's suffix minima of its prev row
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
