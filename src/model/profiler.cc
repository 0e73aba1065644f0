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

// GPU classes registered beyond Table 1 declare one sustained-TFLOPS number,
// calibrated like kResNetTflops. VGG's large uniform convolutions run about
// 2x closer to peak than ResNet's small bottleneck kernels on every paper
// class, so the same factor is applied to registered classes.
constexpr double kVggOverResNet = 2.0;

}  // namespace

double EffectiveTflops(ModelFamily family, hw::GpuType gpu) {
  const auto idx = static_cast<size_t>(gpu);
  const double base = hw::SpecOf(gpu).effective_tflops;
  if (family != ModelFamily::kVgg19) {
    return base;  // ResNet-class calibration, for built-in and registered alike
  }
  return idx < static_cast<size_t>(hw::kNumGpuTypes) ? kVggTflops[idx]
                                                     : base * kVggOverResNet;
}

ModelProfile::ModelProfile(const ModelGraph& graph, int batch_size)
    : graph_(&graph), batch_size_(batch_size), times_(static_cast<size_t>(hw::NumGpuTypes())) {
  const size_t n = static_cast<size_t>(graph.num_layers());
  fwd_cum_.resize(times_.size());
  bwd_cum_.resize(times_.size());
  total_cum_by_last_.resize(times_.size());
  for (int t = 0; t < static_cast<int>(times_.size()); ++t) {
    const auto gpu = static_cast<hw::GpuType>(t);
    const double flops_per_s = EffectiveTflops(graph.family(), gpu) * 1e12;
    auto& per_layer = times_[static_cast<size_t>(t)];
    per_layer.reserve(n);
    for (const Layer& layer : graph.layers()) {
      const double fwd_flops = layer.fwd_flops * batch_size_;
      LayerTime lt;
      lt.fwd_s = fwd_flops / flops_per_s + kFwdLaunchOverheadS;
      // Backward computes gradients w.r.t. both inputs and weights: ~2x the
      // forward FLOPs.
      lt.bwd_s = 2.0 * fwd_flops / flops_per_s + kBwdLaunchOverheadS;
      per_layer.push_back(lt);
    }

    // Cumulative stage-time tables: row `first` holds running sums over
    // [first, last] for every last >= first, accumulated in the same
    // left-to-right order as the naive loops so each entry is bit-identical
    // to the loop result (see the header). Built eagerly for every
    // registered class — a const ModelProfile is shared across sweep
    // threads, so lazy fill would put synchronization on the DP hot path to
    // save ~n^2 doubles (tens of KiB at block granularity) per unused class.
    auto& fwd = fwd_cum_[static_cast<size_t>(t)];
    auto& bwd = bwd_cum_[static_cast<size_t>(t)];
    auto& tot = total_cum_by_last_[static_cast<size_t>(t)];
    fwd.assign(n * n, 0.0);
    bwd.assign(n * n, 0.0);
    tot.assign(n * n, 0.0);
    for (size_t first = 0; first < n; ++first) {
      double fwd_acc = 0.0;
      double bwd_acc = 0.0;
      for (size_t last = first; last < n; ++last) {
        fwd_acc += per_layer[last].fwd_s;
        bwd_acc += per_layer[last].bwd_s;
        fwd[first * n + last] = fwd_acc;
        bwd[first * n + last] = bwd_acc;
        // Transposed combined entry: one fwd + bwd addition, same operands
        // and order as the DP's scalar path, so consumers see identical bits.
        tot[last * n + first] = fwd_acc + bwd_acc;
      }
    }
  }
}

double ModelProfile::StageFwdTime(int first, int last, hw::GpuType gpu) const {
  if (last < first) {
    return 0.0;
  }
  assert(first >= 0 && last < graph_->num_layers());
  return fwd_cum_.at(static_cast<size_t>(gpu))[CumIndex(first, last)];
}

double ModelProfile::StageBwdTime(int first, int last, hw::GpuType gpu) const {
  if (last < first) {
    return 0.0;
  }
  assert(first >= 0 && last < graph_->num_layers());
  return bwd_cum_.at(static_cast<size_t>(gpu))[CumIndex(first, last)];
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
