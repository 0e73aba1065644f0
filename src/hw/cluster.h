#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/gpu_spec.h"
#include "hw/link.h"

namespace hetpipe::hw {

// A physical GPU: identity plus its node placement.
struct Gpu {
  int id = -1;        // global id, unique within the cluster
  GpuType type = GpuType::kTitanV;
  int node = -1;      // node the GPU lives in
};

// One homogeneous group of `count` GPUs of one class inside a node.
struct NodeGpus {
  GpuType type = GpuType::kTitanV;
  int count = 0;
};

// A cluster of H nodes; a node may hold GPUs of several classes (mixed-class
// nodes), and nodes may differ from one another in GPU classes and counts
// (Fig. 2 of the paper is the uniform homogeneous 4 x 4 special case). Built
// either from the paper testbed helpers below or from a declarative
// hw::ClusterSpec, which may also supply non-default intra-/inter-node link
// models.
class Cluster {
 public:
  // Builds a cluster with one entry per node; entry i is the GPU type of node
  // i, replicated `gpus_per_node` times. Paper-default links.
  Cluster(const std::vector<GpuType>& node_types, int gpus_per_node);

  // One homogeneous GPU group per node, plus explicit link models. `name`
  // labels the cluster in reports ("" for anonymous).
  Cluster(const std::vector<NodeGpus>& nodes, const PcieLink& pcie,
          const InfinibandLink& infiniband, std::string name = "");

  // Fully general form: node i holds exactly node_gpus[i], in that order
  // (classes may repeat and mix freely within a node). `declared` owns every
  // non-Table-1 class node_gpus names (ClusterSpec::Build makes it); copies
  // of the cluster share it, so its GpuTypes stay valid while one lives.
  Cluster(const std::vector<std::vector<GpuType>>& node_gpus, const PcieLink& pcie,
          const InfinibandLink& infiniband, std::string name = "",
          std::shared_ptr<const GpuClassTable> declared = nullptr);

  // The paper's testbed: 4 nodes x 4 GPUs = V-node, R-node, G-node, Q-node,
  // PCIe 3.0 x16 inside a node, 56 Gbps Infiniband between nodes.
  static Cluster Paper();

  // A cluster restricted to the first `num_nodes` node types of the paper
  // testbed, used for the Table 4 scaling study (4[V], 8[VR], 12[VRQ], ...).
  static Cluster PaperSubset(const std::string& node_codes);

  int num_nodes() const { return num_nodes_; }
  // Largest per-node GPU count (the common count on uniform clusters).
  int gpus_per_node() const { return gpus_per_node_; }
  int NodeGpuCount(int node) const {
    return node_counts_.at(static_cast<size_t>(node));
  }
  // True when every node holds the same number of GPUs.
  bool UniformGpusPerNode() const { return uniform_; }
  int num_gpus() const { return static_cast<int>(gpus_.size()); }

  const Gpu& gpu(int id) const { return gpus_.at(static_cast<size_t>(id)); }
  const std::vector<Gpu>& gpus() const { return gpus_; }
  // The classes this cluster has GPUs of, in class order (GpuSpec::order):
  // Table 1 classes first, then declared classes by first use.
  const std::vector<GpuType>& classes() const { return classes_; }
  // The owner of this cluster's declared classes (null for a cluster built
  // in code): holding it keeps every GpuType of this cluster valid.
  const std::shared_ptr<const GpuClassTable>& declared_classes() const { return declared_; }
  std::vector<int> GpusOnNode(int node) const;
  // Class of the node's first GPU — the node's class on homogeneous nodes.
  // Callers that care about mixed-class nodes must check NodeHomogeneous.
  GpuType NodeType(int node) const { return node_types_.at(static_cast<size_t>(node)); }
  // True when every GPU of `node` is of one class.
  bool NodeHomogeneous(int node) const {
    return node_homogeneous_.at(static_cast<size_t>(node));
  }

  bool SameNode(int gpu_a, int gpu_b) const { return gpu(gpu_a).node == gpu(gpu_b).node; }

  // Rack of `node` (0-based), or -1 when the cluster has no rack structure.
  int NodeRack(int node) const {
    return rack_of_node_.empty() ? -1 : rack_of_node_.at(static_cast<size_t>(node));
  }
  // True when both nodes sit in one rack — also when there is no rack
  // structure at all (one implicit rack).
  bool SameRack(int node_a, int node_b) const {
    return rack_of_node_.empty() || NodeRack(node_a) == NodeRack(node_b);
  }
  // True when every inter-node pair uses the one shared inter link (no rack
  // degradation and no per-pair overrides); such clusters behave exactly as
  // before topology support existed.
  bool UniformFabric() const { return pair_link_index_.empty(); }

  // Rack membership and per-node-pair inter links, set by ClusterSpec::Build
  // (a cluster without them is a uniform fabric). `rack_of_node` is empty or
  // one rack id per node; `pair_link_index` is empty or num_nodes^2 entries
  // (row-major, symmetric) indexing `pair_links`, -1 selecting the shared
  // inter link.
  void SetLinkTopology(std::vector<int> rack_of_node, std::vector<InfinibandLink> pair_links,
                       std::vector<int> pair_link_index);

  // Link used between two GPUs: PCIe-class within a node, the pair's
  // network link across nodes.
  const LinkModel& LinkBetween(int gpu_a, int gpu_b) const;
  // Link between a GPU and a (parameter-server) process on node `node`.
  const LinkModel& LinkToNode(int gpu_id, int node) const;
  // The resolved link between two nodes: PCIe-class when equal, else the
  // pair's inter-node link (explicit override, cross-rack, or shared inter).
  const LinkModel& LinkBetweenNodes(int node_a, int node_b) const;
  // Slowest inter-node transfer of `bytes` out of `node` across its resolved
  // pair links — the conservative funnel bound used by the PS comm model and
  // the aggregate dp baselines (a node's remote traffic fans out to every
  // other node, so the worst link bounds it). Bit-identical to
  // infiniband().TransferTime(bytes) on a uniform fabric, including the
  // degenerate single-node cluster.
  double WorstInterTransferTimeFrom(int node, uint64_t bytes) const;

  const PcieLink& pcie() const { return pcie_; }
  const InfinibandLink& infiniband() const { return infiniband_; }
  // The distinct pair-resolved inter links (empty on a uniform fabric):
  // every LinkBetween result is pcie(), infiniband() or one of these.
  const std::vector<InfinibandLink>& pair_links() const { return pair_links_; }

  // Spec label and canonical spec text when built from a hw::ClusterSpec
  // (empty otherwise). The text is what a core::Experiment carries so a sweep
  // task can rebuild this cluster on any thread or in any process.
  const std::string& name() const { return name_; }
  const std::string& spec_text() const { return spec_text_; }
  void set_spec_text(std::string text) { spec_text_ = std::move(text); }

  // Human-readable summary: "4 nodes x 4 GPUs [VVVV|RRRR|GGGG|QQQQ]" for
  // uniform paper-class clusters, "3 nodes [A100 x4|A100 x2 + T4 x2|T4 x8]"
  // in general (mixed-class nodes list each class run). Stable across
  // processes (class names), so the partition cache can key on it —
  // mixed-class compositions must therefore be spelled out faithfully.
  std::string ToString() const;

 private:
  std::shared_ptr<const GpuClassTable> declared_;
  std::vector<GpuType> classes_;
  std::vector<GpuType> node_types_;
  std::vector<bool> node_homogeneous_;
  std::vector<int> node_counts_;
  int num_nodes_ = 0;
  int gpus_per_node_ = 0;
  bool uniform_ = true;
  std::vector<Gpu> gpus_;
  PcieLink pcie_;
  InfinibandLink infiniband_;
  // Rack ids per node (empty: no rack structure) and the pair-resolved inter
  // links (empty: uniform fabric, every pair shares infiniband_).
  std::vector<int> rack_of_node_;
  std::vector<InfinibandLink> pair_links_;
  std::vector<int> pair_link_index_;  // num_nodes^2 or empty; -1 = infiniband_
  std::string name_;
  std::string spec_text_;
};

}  // namespace hetpipe::hw
