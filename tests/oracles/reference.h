#pragma once

// Test oracles for the partitioner, the model tables, the simulator's
// utilization windows and the pipeline stage queue: the straightforward
// implementations the optimized code in src/ must match bit for bit. They
// use only the public accessors of the types they check, so none of this
// ships in the hetpipe library. partition_test and bench/partitioner_speed
// link it as the hetpipe_oracles library.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hw/cluster.h"
#include "hw/gpu_spec.h"
#include "model/model_graph.h"
#include "model/profiler.h"
#include "partition/partitioner.h"
#include "pipeline/task.h"

namespace hetpipe::oracles {

// O(last - first) summation loops over layers [first, last]; the
// prefix-sum and cumulative-table queries of ModelGraph / ModelProfile are
// bit-identical to them.
uint64_t ParamBytesInRangeNaive(const model::ModelGraph& graph, int first, int last);
uint64_t StashBytesInRangeNaive(const model::ModelGraph& graph, int first, int last);
double StageFwdTimeNaive(const model::ModelProfile& profile, int first, int last,
                         hw::GpuType gpu);
double StageBwdTimeNaive(const model::ModelProfile& profile, int first, int last,
                         hw::GpuType gpu);
double StageTotalTimeNaive(const model::ModelProfile& profile, int first, int last,
                           hw::GpuType gpu);

// The fixed-order DP with naive O(stage-length) cost and memory sums and a
// vector-of-vector table: gpu_ids[q] runs stage q, and states whose
// bottleneck strictly exceeds `prune_above` are cut.
partition::Partition SolveFixedOrderReference(const partition::Partitioner& partitioner,
                                              const std::vector<int>& gpu_ids,
                                              const partition::PartitionOptions& options,
                                              double prune_above);

// The distinct (type, node) orderings of `gpu_ids`: a scan of all k! id
// permutations in next_permutation order from ascending ids, keeping the
// first permutation of each (type, node) signature — its minimal id
// representative. The search tiers walk class-order tries that must list
// the same orders in the same order; EstimateOrderCount counts them.
std::vector<std::vector<int>> DistinctClassOrders(const hw::Cluster& cluster,
                                                  const std::vector<int>& gpu_ids);

// The exact search done the slow way: every order DistinctClassOrders
// lists, each solved in full by SolveFixedOrderReference (no
// branch-and-bound). Returns a Partition bit-identical to SolveScalable with
// strategy kExact, which prunes.
partition::Partition SolveReference(const partition::Partitioner& partitioner,
                                    const std::vector<int>& gpu_ids,
                                    const partition::PartitionOptions& options);

// A double as the result sinks used to render it: an ostringstream at
// precision(12), and "null" for NaN and the infinities. The to_chars encoder
// behind ResultRow::Get and RowToJson must print the same bytes.
std::string FormatDoubleOstream(double v);

// One window of sim::BusyTracker::Utilization by a full scan: the busy time
// of every interval [start, end) clipped to [window_start, window_end), summed
// in interval order, over the window width and capped at 1; 0 for an empty or
// reversed window. Utilization and the cursor sweep SweepUtilization, which
// skip intervals outside the window, must return the same bits.
double UtilizationFullScan(const std::vector<std::pair<double, double>>& intervals,
                           double window_start, double window_end);

// pipeline::StageQueue as a vector in arrival order: PickNext scans it for
// the first task whose ordering condition holds and erases that task. The
// ring StageQueue must pick the same tasks and keep the same next-minibatch
// counters under any interleaving of arrivals and picks.
class StageQueueReference {
 public:
  void MakeAvailable(const pipeline::Task& task) { queue_.push_back(task); }
  std::optional<pipeline::Task> PickNext();
  size_t size() const { return queue_.size(); }
  // The held tasks, oldest first.
  const std::vector<pipeline::Task>& tasks() const { return queue_; }
  int64_t next_forward() const { return next_fw_; }
  int64_t next_backward() const { return next_bw_; }

 private:
  std::vector<pipeline::Task> queue_;
  int64_t next_fw_ = 1;
  int64_t next_bw_ = 1;
};

}  // namespace hetpipe::oracles
