#pragma once

#include <cstdint>
#include <vector>

#include "hw/gpu_spec.h"
#include "model/model_graph.h"

namespace hetpipe::model {

// Calibrated effective throughput in TFLOP/s that `gpu` sustains on layers of
// `family`. This plays the role of the paper's profiling step (§7), which
// measures per-layer compute time on every GPU type in the cluster: here
// per-layer time = FLOPs / effective-throughput + launch overhead, with the
// throughput constants fit to the absolute single-virtual-worker throughputs
// published in Fig. 3 of the paper. GPU classes registered beyond Table 1 use
// their declared sustained TFLOPS (ResNet-class kernels), scaled up for VGG's
// large uniform convolutions the same ~2x the paper classes exhibit.
double EffectiveTflops(ModelFamily family, hw::GpuType gpu);

// Per-minibatch forward/backward execution time of a layer on some GPU.
struct LayerTime {
  double fwd_s = 0.0;
  double bwd_s = 0.0;
  double total() const { return fwd_s + bwd_s; }
};

// Profile of one model at a fixed minibatch size: per-layer, per-GPU-type
// compute times plus boundary transfer sizes. This is the input to the
// partitioner and the pipeline simulator.
class ModelProfile {
 public:
  ModelProfile(const ModelGraph& graph, int batch_size);

  const ModelGraph& graph() const { return *graph_; }
  int batch_size() const { return batch_size_; }
  int num_layers() const { return graph_->num_layers(); }

  // Per-minibatch time of one layer on `gpu`. Throws std::out_of_range for
  // GPU classes registered after construction; the layer index is only
  // bounds-checked in debug builds (release paths index directly).
  const LayerTime& TimeOf(int layer, hw::GpuType gpu) const {
    return times_.at(static_cast<size_t>(gpu))[static_cast<size_t>(layer)];
  }

  // Per-minibatch forward / backward / total compute time of layers
  // [first, last] on `gpu`. O(1): served from cumulative-sum tables anchored
  // at every start layer, precomputed at construction. Each table row is
  // accumulated left-to-right exactly like the naive loop (the equivalence
  // oracle in tests/oracles), so the returned
  // double is bit-identical to what the loop computes — a plain
  // prefix-difference would drift in the last ulp (floating-point addition is
  // not associative) and could flip near-tie decisions in the partitioner DP.
  double StageFwdTime(int first, int last, hw::GpuType gpu) const;
  double StageBwdTime(int first, int last, hw::GpuType gpu) const;
  double StageTotalTime(int first, int last, hw::GpuType gpu) const;

  // Raw combined table for the partitioner's DP inner loop, which cannot
  // afford a bounds-checked call per state: entry last * num_layers() +
  // first = StageFwdTime(first, last, gpu) + StageBwdTime(first, last, gpu),
  // i.e. the total compute time of stage [first, last]. The DP scans
  // candidate split points `first` at a fixed `last`, so this transposed
  // layout makes that scan a contiguous unit-stride pass. Each entry is the
  // single addition fwd + bwd of the two cumulative-table entries — the same
  // operands in the same order a scalar loop adds them — so reading it is
  // bit-identical to computing the sum in the loop. Throws std::out_of_range
  // for classes registered after construction.
  const double* TotalCumByLast(hw::GpuType gpu) const {
    return total_cum_by_last_.at(static_cast<size_t>(gpu)).data();
  }

  // Whole-model per-minibatch compute (fwd+bwd) on `gpu`.
  double FullModelTime(hw::GpuType gpu) const;

  // Bytes of activations crossing the boundary after `layer` for one
  // minibatch (the backward-pass gradient transfer has the same size).
  uint64_t BoundaryTransferBytes(int layer) const;

 private:
  // Row-major index of the per-type cumulative tables: entry (first, last).
  size_t CumIndex(int first, int last) const {
    return static_cast<size_t>(first) * static_cast<size_t>(graph_->num_layers()) +
           static_cast<size_t>(last);
  }

  const ModelGraph* graph_;
  int batch_size_;
  // times_[gpu_type][layer], covering every GPU class known at construction
  // (TimeOf throws for classes registered later).
  std::vector<std::vector<LayerTime>> times_;
  // fwd_cum_[gpu_type][first * n + last] = sum of fwd_s over layers
  // [first, last], accumulated left-to-right (likewise bwd_cum_). n^2 doubles
  // per type — layer chains are block-granular (tens of entries), so the
  // tables are a few tens of KiB and are built once per profile.
  std::vector<std::vector<double>> fwd_cum_;
  std::vector<std::vector<double>> bwd_cum_;
  // total_cum_by_last_[gpu_type][last * n + first] = fwd_cum_ + bwd_cum_ at
  // (first, last): the transposed, combined layout the partitioner DP reads
  // contiguously (see TotalCumByLast).
  std::vector<std::vector<double>> total_cum_by_last_;
};

}  // namespace hetpipe::model
