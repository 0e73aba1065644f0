#include "model/model_graph.h"

#include <cassert>
#include <sstream>
#include <utility>

namespace hetpipe::model {

ModelGraph::ModelGraph(std::string name, ModelFamily family, std::vector<Layer> layers)
    : name_(std::move(name)), family_(family), layers_(std::move(layers)) {
  param_prefix_.reserve(layers_.size() + 1);
  stash_prefix_.reserve(layers_.size() + 1);
  param_prefix_.push_back(0);
  stash_prefix_.push_back(0);
  for (const Layer& layer : layers_) {
    total_fwd_flops_ += layer.fwd_flops;
    total_param_bytes_ += layer.param_bytes;
    total_stash_bytes_ += layer.stash_bytes;
    param_prefix_.push_back(param_prefix_.back() + layer.param_bytes);
    stash_prefix_.push_back(stash_prefix_.back() + layer.stash_bytes);
  }
}

uint64_t ModelGraph::ParamBytesInRange(int first, int last) const {
  if (last < first) {
    return 0;
  }
  assert(first >= 0 && last < num_layers());
  return param_prefix_[static_cast<size_t>(last) + 1] - param_prefix_[static_cast<size_t>(first)];
}

uint64_t ModelGraph::StashBytesInRange(int first, int last) const {
  if (last < first) {
    return 0;
  }
  assert(first >= 0 && last < num_layers());
  return stash_prefix_[static_cast<size_t>(last) + 1] - stash_prefix_[static_cast<size_t>(first)];
}

std::string ModelGraph::Summary() const {
  std::ostringstream os;
  os << name_ << ": " << layers_.size() << " layers, "
     << static_cast<double>(total_param_bytes_) / (1 << 20) << " MiB params, "
     << total_fwd_flops_ / 1e9 << " GFLOPs/image fwd";
  return os.str();
}

}  // namespace hetpipe::model
