#pragma once

#include <cstdint>
#include <string>

namespace hetpipe::model {

// Coarse layer taxonomy. ResNet bottleneck blocks are emitted as single
// kBlock layers: a residual block cannot be split across a partition
// boundary, so blocks are the natural partitioning granularity.
enum class LayerKind {
  kConv,
  kPool,
  kFc,
  kBlock,    // residual bottleneck block (3 convs + BN + shortcut)
  kSoftmax,
};

// One layer (or fused block) of a DNN, described by the quantities the
// HetPipe partitioner and pipeline simulator need. All per-image quantities
// are for a single sample; multiply by the minibatch size for totals.
struct Layer {
  std::string name;
  LayerKind kind = LayerKind::kConv;

  // Forward-pass FLOPs for one image. The backward pass is modeled as 2x
  // (gradient w.r.t. activations + gradient w.r.t. weights).
  double fwd_flops = 0.0;

  // Parameter bytes (fp32 weights + biases / BN scales).
  uint64_t param_bytes = 0;

  // Output activation bytes per image — this is what crosses a partition
  // boundary if the model is cut after this layer.
  uint64_t out_bytes = 0;

  // Activation bytes per image this layer must keep resident from its forward
  // pass until its backward pass (its output plus block-internal activations;
  // for BN blocks this includes stored normalized inputs).
  uint64_t stash_bytes = 0;
};

// Convenience constructors that derive the cost fields from layer shapes.

// k x k convolution (+bias) producing hout x wout x cout from cin channels.
Layer MakeConv(const std::string& name, int k, int cin, int cout, int hout, int wout);

// Max/avg pool: no params, negligible FLOPs relative to convs.
Layer MakePool(const std::string& name, int cout, int hout, int wout);

// Fully connected in -> out.
Layer MakeFc(const std::string& name, int in, int out);

// ResNet bottleneck block at spatial resolution h x w: 1x1 (cin->mid),
// 3x3 (mid->mid), 1x1 (mid->cout), batch norms, shortcut (projection conv if
// cin != cout).
Layer MakeBottleneckBlock(const std::string& name, int cin, int mid, int cout, int h, int w);

}  // namespace hetpipe::model
