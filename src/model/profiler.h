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
// published in Fig. 3 of the paper. GPU classes declared beyond Table 1 use
// their declared sustained TFLOPS (ResNet-class kernels), scaled up for VGG's
// large uniform convolutions the same ~2x the paper classes exhibit.
double EffectiveTflops(ModelFamily family, hw::GpuType gpu);

// Per-minibatch forward/backward execution time of a layer on some GPU.
struct LayerTime {
  double fwd_s = 0.0;
  double bwd_s = 0.0;
  double total() const { return fwd_s + bwd_s; }
};

// Profile of one model at a fixed minibatch size: the per-layer FLOPs of a
// minibatch plus boundary transfer sizes, from which it times layers and
// stages on any GPU class. It holds nothing per class, so one profile serves
// every cluster. This is the input to the partitioner and the pipeline
// simulator.
class ModelProfile {
 public:
  ModelProfile(const ModelGraph& graph, int batch_size);

  const ModelGraph& graph() const { return *graph_; }
  int batch_size() const { return batch_size_; }
  int num_layers() const { return graph_->num_layers(); }

  // Per-minibatch time of one layer on `gpu`, computed from the class's
  // spec. The layer index is only bounds-checked in debug builds.
  LayerTime TimeOf(int layer, hw::GpuType gpu) const;

  // Per-minibatch forward / backward / total compute time of layers
  // [first, last] on `gpu`. O(last - first): summed left-to-right exactly
  // like the naive loop over TimeOf (the equivalence oracle in
  // tests/oracles), each layer timed by the expression TimeOf uses, so the
  // returned double is bit-identical to what the loop computes — a plain
  // prefix-difference would drift in the last ulp (floating-point addition
  // is not associative) and could flip near-tie decisions in the
  // partitioner DP. The DP reads partition::Partitioner::TotalCumByLast,
  // which is built from these sums.
  double StageFwdTime(int first, int last, hw::GpuType gpu) const;
  double StageBwdTime(int first, int last, hw::GpuType gpu) const;
  double StageTotalTime(int first, int last, hw::GpuType gpu) const;

  // Whole-model per-minibatch compute (fwd+bwd) on `gpu`.
  double FullModelTime(hw::GpuType gpu) const;

  // Bytes of activations crossing the boundary after `layer` for one
  // minibatch (the backward-pass gradient transfer has the same size).
  uint64_t BoundaryTransferBytes(int layer) const;

 private:
  const ModelGraph* graph_;
  int batch_size_;
  std::vector<double> fwd_flops_;  // per layer, forward FLOPs of one minibatch
};

}  // namespace hetpipe::model
