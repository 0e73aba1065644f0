#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hw/cluster.h"

namespace hetpipe::hw {

// A GPU class declared by a spec (beyond the paper's Table 1): the sustained
// compute throughput and device memory the cost model needs, nothing more.
// A class name is a process-wide identity: every spec in one process must
// agree on a name's numbers (the registry rejects conflicting
// redefinitions), so sensitivity sweeps over a class's TFLOPS/memory should
// use distinct names ("A100-18", "A100-20").
struct GpuClassDecl {
  std::string name;
  double tflops = 0.0;      // sustained TFLOP/s on ResNet-class kernels
  double memory_gib = 0.0;  // device memory capacity
  char code = '\0';         // optional display letter ('\0' auto-assigns)
};

// One homogeneous run of a node declaration: `count` GPUs of class `type` (a
// declared class name, a built-in class name, or a single built-in code
// letter V/R/G/Q).
struct NodeGroup {
  std::string type;
  int count = 1;
};

// One node declaration: an ordered list of class groups. Homogeneous nodes
// have one group; mixed-class nodes ("node{V100*2,K80*2}") have several, and
// the group order is the GPU-id order inside the node (which the ED allocator
// and fixed-order partitions observe).
struct NodeDecl {
  std::vector<NodeGroup> groups;

  NodeDecl() = default;
  NodeDecl(std::string type, int count) : groups{{std::move(type), count}} {}
  explicit NodeDecl(std::vector<NodeGroup> node_groups) : groups(std::move(node_groups)) {}

  bool mixed() const { return groups.size() > 1; }
  int64_t TotalCount() const;
};

// One rack declaration: a named group of node indices ("rack r0 { node0
// node1 }"). Rack membership shapes the inter-node fabric: node pairs in
// different racks use the cross_rack_* link knobs (which default to the
// inter_* values), so a spec with racks but no cross-rack knob is
// link-identical to the same spec without racks. A node not named by any
// rack forms its own implicit single-node rack.
struct RackDecl {
  std::string name;
  std::vector<int> nodes;  // node indices, in declaration order
};

// One per-node-pair link override ("link node0<->node2 gbits 10
// efficiency 0.2 intercept_s 5e-4"). The pair is unordered (canonicalized
// node_a < node_b); unset fields inherit the pair's base link (the
// cross-rack link when the pair crosses racks, the inter link otherwise).
struct LinkOverrideDecl {
  int node_a = -1;
  int node_b = -1;
  std::optional<double> gbits;
  std::optional<double> efficiency;
  std::optional<double> intercept_s;
};

// Declarative description of an arbitrary heterogeneous cluster: GPU classes
// with TFLOPS/memory, per-node GPU counts (mixed classes allowed within one
// node), intra-/inter-node link models including their latency/intercept
// and scaling/efficiency knobs, and a rack-structured inter-node fabric
// (rack groups, cross-rack link knobs, per-node-pair overrides). This is the
// "any cluster you can imagine" entry point the experiment pipeline runs on
// — the paper's fixed 4 x 4 testbed is just PaperTestbed().
//
// Compact text form: statements separated by newlines or ';', tokens by
// whitespace, '#' comments to end of line.
//
//   name edge-mix
//   gpu A100 tflops=18 mem=40 code=a
//   gpu T4  tflops=4.1 mem=16
//   node 2xA100             # 2 GPUs of class A100
//   node{A100*2,T4*2}       # mixed-class node: 2 A100s then 2 T4s
//   node 4xV                # built-in paper classes by code letter
//   intra_gbps 12           # intra-node link peak, GB/s  (default: PCIe 3.0 x16)
//   intra_scaling 0.5       # achievable fraction of that peak
//   intra_latency_s 2e-05   # per-transfer setup cost, seconds
//   inter_gbits 25          # inter-node link rate, Gbit/s (default: 56G IB FDR)
//   inter_efficiency 0.2    # achieved fraction of the line rate (regression slope)
//   inter_intercept_s 5e-04 # per-transfer regression intercept, seconds
//   rack r0 { node0 node1 } # rack group (nodes by index; at most one rack each)
//   rack r1 { node2 }
//   cross_rack_gbits 10     # link rate between racks (default: inter_gbits)
//   cross_rack_efficiency 0.15   # (default: inter_efficiency)
//   cross_rack_intercept_s 5e-4  # (default: inter_intercept_s)
//   link node0<->node2 gbits 5 efficiency 0.1 intercept_s 1e-3
//                           # per-pair override; each key optional, unset
//                           # keys inherit the pair's base (cross-)rack link
//
// ToString() emits canonical single-line text ("; "-separated) that Parse()
// round-trips, so a core::Experiment can carry a whole cluster as one string
// field across threads and processes. Link knobs are emitted only when they
// differ from the defaults, so paper-testbed specs stay bit-identical.
struct ClusterSpec {
  // Size bounds Validate enforces. Specs arrive from remote clients, and
  // Build() allocates per GPU and per node pair, so larger specs are
  // rejected before anything is built. The largest cluster in this repo
  // (partitioner_speed's g1024-16rack) has 128 nodes and 1024 GPUs.
  static constexpr int kMaxNodes = 1024;
  static constexpr int64_t kMaxGpus = 16384;

  std::string name;
  std::vector<GpuClassDecl> gpu_classes;
  std::vector<NodeDecl> nodes;
  double intra_gbps = PcieLink::kDefaultPeakGBps;
  double intra_scaling = PcieLink::kDefaultScaling;
  double intra_latency_s = PcieLink::kDefaultLatency;
  double inter_gbits = InfinibandLink::kDefaultRawGbits;
  double inter_efficiency = InfinibandLink::kDefaultEfficiency;
  double inter_intercept_s = InfinibandLink::kDefaultIntercept;
  std::vector<RackDecl> racks;
  std::vector<LinkOverrideDecl> link_overrides;
  // Cross-rack link knobs; an unset knob inherits the matching inter_* value,
  // so racks alone (no knob set) leave the fabric link-identical.
  std::optional<double> cross_rack_gbits;
  std::optional<double> cross_rack_efficiency;
  std::optional<double> cross_rack_intercept_s;

  // Chainable builder API.
  ClusterSpec& Named(std::string label);
  ClusterSpec& AddGpuClass(std::string class_name, double tflops, double memory_gib,
                           char code = '\0');
  ClusterSpec& AddNode(std::string type, int count = 1);
  // Mixed-class node: the groups' order is the GPU order inside the node.
  ClusterSpec& AddMixedNode(std::vector<NodeGroup> groups);
  ClusterSpec& IntraGbps(double gbps);
  ClusterSpec& IntraScaling(double scaling);
  ClusterSpec& IntraLatencyS(double latency_s);
  ClusterSpec& InterGbits(double gbits);
  ClusterSpec& InterEfficiency(double efficiency);
  ClusterSpec& InterInterceptS(double intercept_s);
  // Rack topology: groups `node_indices` under `rack_name`.
  ClusterSpec& AddRack(std::string rack_name, std::vector<int> node_indices);
  ClusterSpec& CrossRackGbits(double gbits);
  ClusterSpec& CrossRackEfficiency(double efficiency);
  ClusterSpec& CrossRackInterceptS(double intercept_s);
  // Per-pair override; pass std::nullopt for fields that should inherit the
  // pair's base link (at least one field must be set).
  ClusterSpec& OverrideLink(int node_a, int node_b, std::optional<double> gbits,
                            std::optional<double> efficiency = std::nullopt,
                            std::optional<double> intercept_s = std::nullopt);

  // The spec's link models (what Build() hands the cluster).
  PcieLink IntraLink() const { return PcieLink(intra_gbps, intra_scaling, intra_latency_s); }
  InfinibandLink InterLink() const {
    return InfinibandLink(inter_gbits, inter_efficiency, inter_intercept_s);
  }
  // The resolved inter-node link for a specific pair: the inter link, with
  // cross_rack_* knobs applied when the nodes sit in different racks and the
  // pair's explicit override (if any) applied on top. Requires a validated
  // spec; node indices are range-checked.
  InfinibandLink InterLinkBetween(int node_a, int node_b) const;

  // Parses the text form; throws std::invalid_argument (with the offending
  // statement in the message) on malformed input. The result is validated.
  static ClusterSpec Parse(const std::string& text);

  // The paper's 4-node x 4-GPU testbed as a spec; Build() of this is
  // equivalent to hw::Cluster::Paper().
  static ClusterSpec PaperTestbed();

  // Canonical text form (see above); Parse(ToString()) == *this.
  std::string ToString() const;

  // Throws std::invalid_argument on an unknown GPU type, a zero-GPU node or
  // node group, more than kMaxNodes nodes or kMaxGpus GPUs, an out-of-range
  // link knob, a non-positive TFLOPS/memory, duplicate class names, an empty
  // node list, a rack naming an out-of-range or twice-racked node, a
  // cross-rack knob without racks, or a malformed link override (self pair,
  // out-of-range node, duplicate pair, no fields, out-of-range values).
  void Validate() const;

  // Registers the declared GPU classes and materializes the cluster (with
  // spec_text() set to ToString() so experiments can rebuild it anywhere).
  // Validates first.
  Cluster Build() const;
};

bool operator==(const GpuClassDecl& a, const GpuClassDecl& b);
bool operator==(const NodeGroup& a, const NodeGroup& b);
bool operator==(const NodeDecl& a, const NodeDecl& b);
bool operator==(const RackDecl& a, const RackDecl& b);
bool operator==(const LinkOverrideDecl& a, const LinkOverrideDecl& b);
bool operator==(const ClusterSpec& a, const ClusterSpec& b);

}  // namespace hetpipe::hw
