#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/layer.h"

namespace hetpipe::model {

// Families with published calibration data (see profiler.cc). kGeneric models
// use a default throughput table.
enum class ModelFamily {
  kResNet152,
  kVgg19,
  kGeneric,
};

// A DNN expressed as a chain of layers (residual blocks are fused into single
// chain elements, so a chain fully describes the paper's two models).
class ModelGraph {
 public:
  ModelGraph(std::string name, ModelFamily family, std::vector<Layer> layers);

  const std::string& name() const { return name_; }
  ModelFamily family() const { return family_; }
  int num_layers() const { return static_cast<int>(layers_.size()); }
  const Layer& layer(int i) const { return layers_.at(static_cast<size_t>(i)); }
  const std::vector<Layer>& layers() const { return layers_; }

  // Totals, per image where applicable.
  double total_fwd_flops() const { return total_fwd_flops_; }
  uint64_t total_param_bytes() const { return total_param_bytes_; }
  uint64_t total_stash_bytes() const { return total_stash_bytes_; }

  // Sum of param bytes over layers [first, last]. O(1): a difference of two
  // prefix sums (exact — the addends are integers).
  uint64_t ParamBytesInRange(int first, int last) const;
  // Sum of stash bytes (per image) over layers [first, last]. O(1).
  uint64_t StashBytesInRange(int first, int last) const;

  // Raw prefix arrays (num_layers() + 1 entries, prefix[i] = sum over layers
  // [0, i)) for the partitioner's DP inner loop, which cannot afford a
  // function call per state: sum over [first, last] = prefix[last+1] -
  // prefix[first].
  const uint64_t* ParamPrefix() const { return param_prefix_.data(); }
  const uint64_t* StashPrefix() const { return stash_prefix_.data(); }
  // Activation bytes per image crossing the boundary after layer i
  // (i.e. layer i's output feeding layer i+1).
  uint64_t BoundaryBytes(int i) const { return layer(i).out_bytes; }

  std::string Summary() const;

 private:
  std::string name_;
  ModelFamily family_;
  std::vector<Layer> layers_;
  // prefix[i] = sum over layers [0, i): the partitioner's stage-memory
  // queries hit these ranges inside its O(k n^2) DP, so they must be O(1).
  std::vector<uint64_t> param_prefix_;
  std::vector<uint64_t> stash_prefix_;
  double total_fwd_flops_ = 0.0;
  uint64_t total_param_bytes_ = 0;
  uint64_t total_stash_bytes_ = 0;
};

}  // namespace hetpipe::model
