#include "hw/cluster.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace hetpipe::hw {
namespace {

std::vector<NodeGpus> UniformNodes(const std::vector<GpuType>& node_types, int gpus_per_node) {
  std::vector<NodeGpus> nodes;
  nodes.reserve(node_types.size());
  for (GpuType type : node_types) {
    nodes.push_back(NodeGpus{type, gpus_per_node});
  }
  return nodes;
}

std::vector<std::vector<GpuType>> ExpandNodes(const std::vector<NodeGpus>& nodes) {
  std::vector<std::vector<GpuType>> node_gpus;
  node_gpus.reserve(nodes.size());
  for (const NodeGpus& node : nodes) {
    node_gpus.emplace_back(static_cast<size_t>(std::max(node.count, 0)), node.type);
  }
  return node_gpus;
}

}  // namespace

Cluster::Cluster(const std::vector<GpuType>& node_types, int gpus_per_node)
    : Cluster(UniformNodes(node_types, gpus_per_node), PcieLink(), InfinibandLink()) {}

Cluster::Cluster(const std::vector<NodeGpus>& nodes, const PcieLink& pcie,
                 const InfinibandLink& infiniband, std::string name)
    : Cluster(ExpandNodes(nodes), pcie, infiniband, std::move(name)) {}

Cluster::Cluster(const std::vector<std::vector<GpuType>>& node_gpus, const PcieLink& pcie,
                 const InfinibandLink& infiniband, std::string name,
                 std::shared_ptr<const GpuClassTable> declared)
    : declared_(std::move(declared)),
      num_nodes_(static_cast<int>(node_gpus.size())),
      pcie_(pcie),
      infiniband_(infiniband),
      name_(std::move(name)) {
  int id = 0;
  for (int n = 0; n < num_nodes_; ++n) {
    const std::vector<GpuType>& types = node_gpus[static_cast<size_t>(n)];
    if (types.empty()) {
      throw std::invalid_argument("cluster node " + std::to_string(n) +
                                  " must hold at least one GPU");
    }
    node_types_.push_back(types.front());
    node_homogeneous_.push_back(
        std::all_of(types.begin(), types.end(), [&](GpuType t) { return t == types.front(); }));
    node_counts_.push_back(static_cast<int>(types.size()));
    gpus_per_node_ = std::max(gpus_per_node_, static_cast<int>(types.size()));
    for (GpuType type : types) {
      gpus_.push_back(Gpu{id++, type, n});
      if (std::find(classes_.begin(), classes_.end(), type) == classes_.end()) {
        classes_.push_back(type);
      }
    }
  }
  std::sort(classes_.begin(), classes_.end(),
            [](GpuType a, GpuType b) { return SpecOf(a).order < SpecOf(b).order; });
  for (int count : node_counts_) {
    uniform_ = uniform_ && count == gpus_per_node_;
  }
}

Cluster Cluster::Paper() { return PaperSubset("VRGQ"); }

Cluster Cluster::PaperSubset(const std::string& node_codes) {
  return Cluster(ParseGpuCodes(node_codes), /*gpus_per_node=*/4);
}

std::vector<int> Cluster::GpusOnNode(int node) const {
  std::vector<int> ids;
  for (const Gpu& g : gpus_) {
    if (g.node == node) {
      ids.push_back(g.id);
    }
  }
  return ids;
}

void Cluster::SetLinkTopology(std::vector<int> rack_of_node,
                              std::vector<InfinibandLink> pair_links,
                              std::vector<int> pair_link_index) {
  const size_t nodes = static_cast<size_t>(num_nodes_);
  if (!rack_of_node.empty() && rack_of_node.size() != nodes) {
    throw std::invalid_argument("link topology: rack_of_node must name every node");
  }
  if (!pair_link_index.empty() && pair_link_index.size() != nodes * nodes) {
    throw std::invalid_argument("link topology: pair_link_index must cover every node pair");
  }
  for (int index : pair_link_index) {
    if (index < -1 || index >= static_cast<int>(pair_links.size())) {
      throw std::invalid_argument("link topology: pair link index out of range");
    }
  }
  rack_of_node_ = std::move(rack_of_node);
  pair_links_ = std::move(pair_links);
  pair_link_index_ = std::move(pair_link_index);
}

const LinkModel& Cluster::LinkBetweenNodes(int node_a, int node_b) const {
  if (node_a == node_b) {
    return pcie_;
  }
  if (pair_link_index_.empty()) {
    return infiniband_;
  }
  const int index = pair_link_index_.at(static_cast<size_t>(node_a) *
                                            static_cast<size_t>(num_nodes_) +
                                        static_cast<size_t>(node_b));
  return index < 0 ? static_cast<const LinkModel&>(infiniband_)
                   : pair_links_[static_cast<size_t>(index)];
}

double Cluster::WorstInterTransferTimeFrom(int node, uint64_t bytes) const {
  if (pair_link_index_.empty() || num_nodes_ < 2) {
    return infiniband_.TransferTime(bytes);
  }
  double worst_s = 0.0;
  for (int peer = 0; peer < num_nodes_; ++peer) {
    if (peer != node) {
      worst_s = std::max(worst_s, LinkBetweenNodes(node, peer).TransferTime(bytes));
    }
  }
  return worst_s;
}

const LinkModel& Cluster::LinkBetween(int gpu_a, int gpu_b) const {
  return LinkBetweenNodes(gpu(gpu_a).node, gpu(gpu_b).node);
}

const LinkModel& Cluster::LinkToNode(int gpu_id, int node) const {
  return LinkBetweenNodes(gpu(gpu_id).node, node);
}

std::string Cluster::ToString() const {
  std::ostringstream os;
  bool paper_classes = true;
  for (const Gpu& g : gpus_) {
    paper_classes = paper_classes && g.type.builtin();
  }
  if (uniform_ && paper_classes) {
    os << num_nodes_ << " nodes x " << gpus_per_node_ << " GPUs [";
    for (const Gpu& g : gpus_) {
      if (g.id > 0 && g.node != gpu(g.id - 1).node) {
        os << '|';
      }
      os << CodeOf(g.type);
    }
    os << ']';
    return os.str();
  }
  os << num_nodes_ << " nodes [";
  for (int n = 0; n < num_nodes_; ++n) {
    if (n > 0) {
      os << '|';
    }
    // Each node lists its class runs ("A100 x2 + T4 x2"), so two clusters
    // differing only in a node's class mix never share a ToString.
    const std::vector<int> ids = GpusOnNode(n);
    size_t i = 0;
    bool first_run = true;
    while (i < ids.size()) {
      const GpuType type = gpu(ids[i]).type;
      size_t run = 0;
      while (i + run < ids.size() && gpu(ids[i + run]).type == type) {
        ++run;
      }
      if (!first_run) {
        os << " + ";
      }
      first_run = false;
      os << SpecOf(type).name << " x" << run;
      i += run;
    }
  }
  os << ']';
  return os.str();
}

}  // namespace hetpipe::hw
