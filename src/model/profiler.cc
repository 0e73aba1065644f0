#include "model/profiler.h"

#include <array>
#include <cassert>

namespace hetpipe::model {
namespace {

// Per-layer kernel-launch / framework overhead. Backward passes launch more
// kernels (two gradient computations per conv).
constexpr double kFwdLaunchOverheadS = 25e-6;
constexpr double kBwdLaunchOverheadS = 45e-6;

// Calibration: effective TFLOP/s by (family, GPU), with FLOPs counted as 2
// ops per multiply-add (matching layer.cc). Derived from the absolute Nm=1
// throughputs in Fig. 3 of the paper: Nm=1 pipelining is sequential
// execution, so e.g. VVVV at 96 img/s on ResNet-152 implies the TITAN V
// sustains ~3 * 22.6 GF * 96 ~ 6.5 TFLOP/s on ResNet kernels. The
// ResNet-class numbers live in hw::GpuSpec::effective_tflops (the one copy
// the allocator ranking and cache fingerprints read too); only VGG's large
// uniform convolutions, which run markedly closer to peak than ResNet's
// small bottleneck kernels, need this separate table.
constexpr std::array<double, hw::kNumGpuTypes> kVggTflops = {
    // V     R     G     Q
    14.3, 12.85, 7.43, 6.10,
};

// GPU classes declared beyond Table 1 carry one sustained-TFLOPS number,
// calibrated like the ResNet-class column. VGG's large uniform convolutions
// run about 2x closer to peak than ResNet's small bottleneck kernels on every
// paper class, so the same factor is applied to declared classes.
constexpr double kVggOverResNet = 2.0;

// The one per-layer timing expression: TimeOf and the stage sums all go
// through it, so their bits agree.
double FwdSeconds(double fwd_flops, double flops_per_s) {
  return fwd_flops / flops_per_s + kFwdLaunchOverheadS;
}
// Backward computes gradients w.r.t. both inputs and weights: ~2x the
// forward FLOPs.
double BwdSeconds(double fwd_flops, double flops_per_s) {
  return 2.0 * fwd_flops / flops_per_s + kBwdLaunchOverheadS;
}

}  // namespace

double EffectiveTflops(ModelFamily family, hw::GpuType gpu) {
  const hw::GpuSpec& spec = hw::SpecOf(gpu);
  if (family != ModelFamily::kVgg19) {
    return spec.effective_tflops;  // ResNet-class calibration, for built-in and declared alike
  }
  return gpu.builtin() ? kVggTflops[static_cast<size_t>(spec.order)]
                       : spec.effective_tflops * kVggOverResNet;
}

ModelProfile::ModelProfile(const ModelGraph& graph, int batch_size)
    : graph_(&graph), batch_size_(batch_size) {
  fwd_flops_.reserve(static_cast<size_t>(graph.num_layers()));
  for (const Layer& layer : graph.layers()) {
    fwd_flops_.push_back(layer.fwd_flops * batch_size_);
  }
}

LayerTime ModelProfile::TimeOf(int layer, hw::GpuType gpu) const {
  assert(layer >= 0 && layer < graph_->num_layers());
  const double flops_per_s = EffectiveTflops(graph_->family(), gpu) * 1e12;
  const double fwd_flops = fwd_flops_[static_cast<size_t>(layer)];
  return LayerTime{FwdSeconds(fwd_flops, flops_per_s), BwdSeconds(fwd_flops, flops_per_s)};
}

double ModelProfile::StageFwdTime(int first, int last, hw::GpuType gpu) const {
  assert(last < first || (first >= 0 && last < graph_->num_layers()));
  const double flops_per_s = EffectiveTflops(graph_->family(), gpu) * 1e12;
  double acc = 0.0;
  for (int layer = first; layer <= last; ++layer) {
    acc += FwdSeconds(fwd_flops_[static_cast<size_t>(layer)], flops_per_s);
  }
  return acc;
}

double ModelProfile::StageBwdTime(int first, int last, hw::GpuType gpu) const {
  assert(last < first || (first >= 0 && last < graph_->num_layers()));
  const double flops_per_s = EffectiveTflops(graph_->family(), gpu) * 1e12;
  double acc = 0.0;
  for (int layer = first; layer <= last; ++layer) {
    acc += BwdSeconds(fwd_flops_[static_cast<size_t>(layer)], flops_per_s);
  }
  return acc;
}

double ModelProfile::StageTotalTime(int first, int last, hw::GpuType gpu) const {
  return StageFwdTime(first, last, gpu) + StageBwdTime(first, last, gpu);
}

double ModelProfile::FullModelTime(hw::GpuType gpu) const {
  return StageTotalTime(0, graph_->num_layers() - 1, gpu);
}

uint64_t ModelProfile::BoundaryTransferBytes(int layer) const {
  return graph_->BoundaryBytes(layer) * static_cast<uint64_t>(batch_size_);
}

}  // namespace hetpipe::model
