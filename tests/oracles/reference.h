#pragma once

// Test oracles for the partitioner and the model tables: the straightforward
// implementations the optimized code in src/ must match bit for bit. They
// use only the public accessors of the types they check, so none of this
// ships in the hetpipe library. partition_test and bench/partitioner_speed
// link it as the hetpipe_oracles library.

#include <cstdint>
#include <vector>

#include "hw/gpu_spec.h"
#include "model/model_graph.h"
#include "model/profiler.h"
#include "partition/partitioner.h"

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

// The exact search done the slow way: every k! id permutation, deduplicated
// by a (type, node) string signature, each solved by
// SolveFixedOrderReference under a serial branch-and-bound incumbent. Returns
// a Partition bit-identical to SolveScalable with strategy kExact.
partition::Partition SolveReference(const partition::Partitioner& partitioner,
                                    const std::vector<int>& gpu_ids,
                                    const partition::PartitionOptions& options);

}  // namespace hetpipe::oracles
