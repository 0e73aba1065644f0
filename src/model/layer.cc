#include "model/layer.h"

namespace hetpipe::model {
namespace {

constexpr uint64_t kFloatBytes = 4;

uint64_t ActBytes(int c, int h, int w) {
  return static_cast<uint64_t>(c) * static_cast<uint64_t>(h) * static_cast<uint64_t>(w) *
         kFloatBytes;
}

}  // namespace

Layer MakeConv(const std::string& name, int k, int cin, int cout, int hout, int wout) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kConv;
  // 2 * K^2 * Cin * Cout * Hout * Wout multiply-adds.
  layer.fwd_flops = 2.0 * k * k * cin * cout * static_cast<double>(hout) * wout;
  layer.param_bytes = (static_cast<uint64_t>(k) * k * cin * cout + static_cast<uint64_t>(cout)) *
                      kFloatBytes;
  layer.out_bytes = ActBytes(cout, hout, wout);
  // The output (post-ReLU, computed in place) is stashed for the backward pass.
  layer.stash_bytes = layer.out_bytes;
  return layer;
}

Layer MakePool(const std::string& name, int cout, int hout, int wout) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kPool;
  // Comparison/accumulate cost, ~1 op per output element per 3x3 window.
  layer.fwd_flops = 9.0 * cout * static_cast<double>(hout) * wout;
  layer.param_bytes = 0;
  layer.out_bytes = ActBytes(cout, hout, wout);
  layer.stash_bytes = layer.out_bytes;
  return layer;
}

Layer MakeFc(const std::string& name, int in, int out) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kFc;
  layer.fwd_flops = 2.0 * in * static_cast<double>(out);
  layer.param_bytes = (static_cast<uint64_t>(in) * out + static_cast<uint64_t>(out)) * kFloatBytes;
  layer.out_bytes = static_cast<uint64_t>(out) * kFloatBytes;
  layer.stash_bytes = layer.out_bytes;
  return layer;
}

Layer MakeBottleneckBlock(const std::string& name, int cin, int mid, int cout, int h, int w) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kBlock;

  const double hw = static_cast<double>(h) * w;
  // conv1 1x1 cin->mid, conv2 3x3 mid->mid, conv3 1x1 mid->cout.
  double flops = 2.0 * cin * mid * hw;          // 1x1 reduce
  flops += 2.0 * 9.0 * mid * mid * hw;          // 3x3
  flops += 2.0 * mid * cout * hw;               // 1x1 expand
  uint64_t params = static_cast<uint64_t>(cin) * mid + 9ULL * mid * mid +
                    static_cast<uint64_t>(mid) * cout;
  // BN scale/shift for each conv output.
  params += 2ULL * (static_cast<uint64_t>(mid) + mid + cout);
  if (cin != cout) {
    // Projection shortcut.
    flops += 2.0 * cin * cout * hw;
    params += static_cast<uint64_t>(cin) * cout + 2ULL * cout;
  }
  layer.fwd_flops = flops;
  layer.param_bytes = params * kFloatBytes;
  layer.out_bytes = ActBytes(cout, h, w);
  // Stashed for backward: the two mid-channel intermediate activations, the
  // block output, and (because of batch norm + ReLU) the stored normalized
  // pre-activations — modeled as a 2.3x multiplier on the visible
  // activations, which is what makes ResNet-152 at batch 32 exceed a 6 GB
  // RTX 2060 (but fit the 8 GB Quadro P4000) as reported in §8.3.
  const uint64_t internal = ActBytes(mid, h, w) * 2 + layer.out_bytes;
  layer.stash_bytes = static_cast<uint64_t>(static_cast<double>(internal) * 2.3);
  return layer;
}

}  // namespace hetpipe::model
