// Tests for hw::ClusterSpec: the compact text parser and builder API, the
// malformed-spec error cases, equivalence of the spec-built paper testbed
// with hw::Cluster::PaperSubset, and generic (non-Table-1) clusters running
// kFullCluster experiments end-to-end through the sweep runner.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/allocator.h"
#include "core/experiment.h"
#include "hw/cluster_spec.h"
#include "model/resnet.h"
#include "oracles/golden.h"
#include "oracles/reference.h"
#include "partition/partitioner.h"
#include "runner/result_sink.h"
#include "runner/spec_sweep.h"
#include "runner/sweep_runner.h"

namespace hetpipe::hw {
namespace {

// The class of `cluster` named `name`; fails the test when there is none.
GpuType ClassNamed(const Cluster& cluster, const std::string& name) {
  for (GpuType type : cluster.classes()) {
    if (name == SpecOf(type).name) {
      return type;
    }
  }
  ADD_FAILURE() << "the cluster has no class " << name;
  return GpuType::kTitanV;
}

constexpr const char* kMixedSpecText =
    "name edge-mix\n"
    "gpu BigCard tflops=8.5 mem=32 code=b   # strong, roomy\n"
    "gpu TinyCard tflops=1.4 mem=11\n"
    "node 2xBigCard\n"
    "node 3xTinyCard\n"
    "node 4xV\n"
    "intra_gbps 12\n"
    "inter_gbits 25\n";

TEST(ClusterSpecTest, ParsesTextForm) {
  const ClusterSpec spec = ClusterSpec::Parse(kMixedSpecText);
  EXPECT_EQ(spec.name, "edge-mix");
  ASSERT_EQ(spec.gpu_classes.size(), 2u);
  EXPECT_EQ(spec.gpu_classes[0].name, "BigCard");
  EXPECT_EQ(spec.gpu_classes[0].tflops, 8.5);
  EXPECT_EQ(spec.gpu_classes[0].memory_gib, 32.0);
  EXPECT_EQ(spec.gpu_classes[0].code, 'b');
  EXPECT_EQ(spec.gpu_classes[1].code, '\0');
  ASSERT_EQ(spec.nodes.size(), 3u);
  ASSERT_EQ(spec.nodes[0].groups.size(), 1u);
  EXPECT_EQ(spec.nodes[0].groups[0].type, "BigCard");
  EXPECT_EQ(spec.nodes[0].groups[0].count, 2);
  EXPECT_FALSE(spec.nodes[0].mixed());
  EXPECT_EQ(spec.nodes[2].groups[0].type, "V");
  EXPECT_EQ(spec.nodes[2].groups[0].count, 4);
  EXPECT_EQ(spec.intra_gbps, 12.0);
  EXPECT_EQ(spec.inter_gbits, 25.0);
  // Unmentioned link knobs stay at their defaults.
  EXPECT_EQ(spec.intra_scaling, PcieLink::kDefaultScaling);
  EXPECT_EQ(spec.intra_latency_s, PcieLink::kDefaultLatency);
  EXPECT_EQ(spec.inter_efficiency, InfinibandLink::kDefaultEfficiency);
  EXPECT_EQ(spec.inter_intercept_s, InfinibandLink::kDefaultIntercept);
}

TEST(ClusterSpecTest, RoundTripsThroughToString) {
  const ClusterSpec spec = ClusterSpec::Parse(kMixedSpecText);
  const std::string canonical = spec.ToString();
  EXPECT_TRUE(ClusterSpec::Parse(canonical) == spec) << canonical;
  // Canonical form is one line (";"-separated) so experiments can carry it.
  EXPECT_EQ(canonical.find('\n'), std::string::npos);
}

TEST(ClusterSpecTest, BuilderMatchesParser) {
  ClusterSpec built;
  built.Named("edge-mix")
      .AddGpuClass("BigCard", 8.5, 32.0, 'b')
      .AddGpuClass("TinyCard", 1.4, 11.0)
      .AddNode("BigCard", 2)
      .AddNode("TinyCard", 3)
      .AddNode("V", 4)
      .IntraGbps(12.0)
      .InterGbits(25.0);
  EXPECT_TRUE(built == ClusterSpec::Parse(kMixedSpecText));
}

TEST(ClusterSpecTest, RejectsMalformedSpecs) {
  // Unknown GPU type.
  EXPECT_THROW(ClusterSpec::Parse("node 4xNoSuchCard"), std::invalid_argument);
  // Zero-GPU node.
  EXPECT_THROW(ClusterSpec::Parse("node 0xV"), std::invalid_argument);
  // Negative / non-positive bandwidths.
  EXPECT_THROW(ClusterSpec::Parse("node 4xV; inter_gbits -3"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("node 4xV; intra_gbps 0"), std::invalid_argument);
  // Classes need positive numbers.
  EXPECT_THROW(ClusterSpec::Parse("gpu X2 tflops=-1 mem=4; node 1xX2"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("gpu X3 tflops=2 mem=0; node 1xX3"),
               std::invalid_argument);
  // No nodes at all.
  EXPECT_THROW(ClusterSpec::Parse("gpu X4 tflops=2 mem=4"), std::invalid_argument);
  // Unknown statements and attributes.
  EXPECT_THROW(ClusterSpec::Parse("frobnicate 12"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("gpu X5 speed=3; node 1xX5"), std::invalid_argument);
  // Duplicate class declaration.
  EXPECT_THROW(ClusterSpec::Parse("gpu D tflops=1 mem=2; gpu D tflops=3 mem=4; node 1xD"),
               std::invalid_argument);
  // Malformed node argument.
  EXPECT_THROW(ClusterSpec::Parse("node 4x"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("node 99999999999999999999xV"), std::invalid_argument);
  // Out-of-range link knobs.
  EXPECT_THROW(ClusterSpec::Parse("node 4xV; intra_scaling 0"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("node 4xV; intra_scaling 1.5"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("node 4xV; intra_latency_s -1e-6"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("node 4xV; inter_efficiency 0"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("node 4xV; inter_intercept_s -0.001"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("node 4xV; inter_intercept_s junk"), std::invalid_argument);
  // NaN would slip past one-sided range checks (and break the ToString round
  // trip, NaN != NaN); infinities would poison every simulated number.
  EXPECT_THROW(ClusterSpec::Parse("node 4xV; intra_scaling nan"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("node 4xV; inter_intercept_s inf"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("node 4xV; inter_gbits inf"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("gpu N1 tflops=nan mem=4; node 1xN1"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("gpu N2 tflops=2 mem=inf; node 1xN2"),
               std::invalid_argument);
  // Builder-set names and codes that would not survive the text round trip.
  EXPECT_THROW(ClusterSpec().Named("my cluster").AddNode("V", 4).Validate(),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec().Named("a;b").AddNode("V", 4).Validate(), std::invalid_argument);
  EXPECT_THROW(ClusterSpec().AddGpuClass("X9", 1.0, 1.0, ';').AddNode("X9", 2).Validate(),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec().AddGpuClass("X9", 1.0, 1.0, ' ').AddNode("X9", 2).Validate(),
               std::invalid_argument);
  // Class names outside [A-Za-z0-9_.-], or spelling a bare V/R/G/Q (which a
  // node reads as the built-in class), fail in Parse, whose result is
  // validated, and not later in Build — also for a class no node uses.
  for (const char* text : {"gpu A+B tflops=1 mem=1; node 1xA+B", "gpu V tflops=1 mem=1; node 1xV",
                           "gpu A+B tflops=1 mem=1; node 1xV"}) {
    try {
      ClusterSpec::Parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("invalid GPU class name"), std::string::npos)
          << text << ": " << e.what();
    }
  }
  // Size bounds: remote specs must not make Build() overflow a GPU count or
  // allocate per GPU or per node pair without limit.
  EXPECT_THROW(ClusterSpec::Parse("node{V*2000000000,R*2000000000}"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse("node 100000000xV"), std::invalid_argument);
  std::string many_nodes;
  for (int i = 0; i < 40000; ++i) {
    many_nodes += "node 1xV\n";
  }
  many_nodes += "rack r0 { node0 node1 }\n";
  EXPECT_THROW(ClusterSpec::Parse(many_nodes), std::invalid_argument);
  // The bounds themselves are accepted.
  EXPECT_NO_THROW(ClusterSpec::Parse("node 16xV; node{V*8192,R*8176}"));
  std::string max_nodes;
  for (int i = 0; i < ClusterSpec::kMaxNodes; ++i) {
    max_nodes += "node 1xV\n";
  }
  EXPECT_NO_THROW(ClusterSpec::Parse(max_nodes));
  EXPECT_THROW(ClusterSpec::Parse(max_nodes + "node 1xV\n"), std::invalid_argument);
}

constexpr const char* kMixedNodeSpecText =
    "name node-mix\n"
    "gpu BigCard tflops=8.5 mem=32 code=b\n"
    "gpu TinyCard tflops=1.4 mem=11\n"
    "node{BigCard*2,TinyCard*2}   # mixed-class node: 2 big then 2 tiny\n"
    "node 4xV\n"
    "inter_gbits 25\n";

TEST(ClusterSpecTest, ParsesMixedClassNodes) {
  const ClusterSpec spec = ClusterSpec::Parse(kMixedNodeSpecText);
  ASSERT_EQ(spec.nodes.size(), 2u);
  EXPECT_TRUE(spec.nodes[0].mixed());
  ASSERT_EQ(spec.nodes[0].groups.size(), 2u);
  EXPECT_EQ(spec.nodes[0].groups[0].type, "BigCard");
  EXPECT_EQ(spec.nodes[0].groups[0].count, 2);
  EXPECT_EQ(spec.nodes[0].groups[1].type, "TinyCard");
  EXPECT_EQ(spec.nodes[0].groups[1].count, 2);
  EXPECT_EQ(spec.nodes[0].TotalCount(), 4);
  EXPECT_FALSE(spec.nodes[1].mixed());

  // The whitespace-tolerant spelling and implicit *1 counts parse too.
  const ClusterSpec spaced = ClusterSpec::Parse(
      "gpu BigCard tflops=8.5 mem=32 code=b; gpu TinyCard tflops=1.4 mem=11;"
      "node { BigCard*2, TinyCard }");
  ASSERT_EQ(spaced.nodes.size(), 1u);
  ASSERT_EQ(spaced.nodes[0].groups.size(), 2u);
  EXPECT_EQ(spaced.nodes[0].groups[1].type, "TinyCard");
  EXPECT_EQ(spaced.nodes[0].groups[1].count, 1);
}

TEST(ClusterSpecTest, MixedNodeRoundTripsAndMatchesBuilder) {
  const ClusterSpec spec = ClusterSpec::Parse(kMixedNodeSpecText);
  const std::string canonical = spec.ToString();
  EXPECT_NE(canonical.find("node{BigCard*2,TinyCard*2}"), std::string::npos) << canonical;
  EXPECT_TRUE(ClusterSpec::Parse(canonical) == spec) << canonical;

  ClusterSpec built;
  built.Named("node-mix")
      .AddGpuClass("BigCard", 8.5, 32.0, 'b')
      .AddGpuClass("TinyCard", 1.4, 11.0)
      .AddMixedNode({{"BigCard", 2}, {"TinyCard", 2}})
      .AddNode("V", 4)
      .InterGbits(25.0);
  EXPECT_TRUE(built == spec);
}

TEST(ClusterSpecTest, RejectsMalformedMixedNodes) {
  constexpr const char* kClasses = "gpu MBig tflops=8 mem=32; gpu MTiny tflops=1 mem=11; ";
  // Empty list / empty group / missing type / bad counts.
  EXPECT_THROW(ClusterSpec::Parse(std::string(kClasses) + "node{}"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kClasses) + "node{MBig,,MTiny}"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kClasses) + "node{*2}"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kClasses) + "node{MBig*0}"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kClasses) + "node{MBig*junk}"),
               std::invalid_argument);
  EXPECT_THROW(
      ClusterSpec::Parse(std::string(kClasses) + "node{MBig*99999999999999999999}"),
      std::invalid_argument);
  // Unterminated brace and unknown member class.
  EXPECT_THROW(ClusterSpec::Parse(std::string(kClasses) + "node{MBig*2"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kClasses) + "node{NoSuchCard*2}"),
               std::invalid_argument);
}

TEST(ClusterSpecTest, MixedClassNodeBuildsAndPartitionsPerClassMemory) {
  const Cluster cluster = ClusterSpec::Parse(kMixedNodeSpecText).Build();
  EXPECT_EQ(cluster.num_nodes(), 2);
  EXPECT_EQ(cluster.num_gpus(), 8);
  EXPECT_FALSE(cluster.NodeHomogeneous(0));
  EXPECT_TRUE(cluster.NodeHomogeneous(1));
  const GpuType big = ClassNamed(cluster, "BigCard");
  const GpuType tiny = ClassNamed(cluster, "TinyCard");
  // Declaration order is GPU-id order inside the node.
  EXPECT_EQ(cluster.gpu(0).type, big);
  EXPECT_EQ(cluster.gpu(1).type, big);
  EXPECT_EQ(cluster.gpu(2).type, tiny);
  EXPECT_EQ(cluster.gpu(3).type, tiny);
  EXPECT_EQ(cluster.NodeType(0), big);  // first GPU's class
  // The composition is spelled out (cache keys depend on it).
  EXPECT_NE(cluster.ToString().find("BigCard x2 + TinyCard x2"), std::string::npos)
      << cluster.ToString();

  // A VW spanning the mixed node partitions with per-class memory caps.
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = 2;
  const std::vector<int> vw = core::PickGpus(cluster, "BigCard*2@0,TinyCard*2@0");
  ASSERT_EQ(vw.size(), 4u);
  const partition::Partition partition = partitioner.SolveScalable(vw, options);
  ASSERT_TRUE(partition.feasible);
  for (const partition::StageAssignment& stage : partition.stages) {
    EXPECT_EQ(stage.node, 0);
    EXPECT_EQ(stage.memory_cap, MemoryBytes(stage.gpu_type));
    EXPECT_LE(stage.memory_bytes, stage.memory_cap);
  }

  // HD pairing is undefined across mixed-class nodes and must refuse them.
  const Cluster hd_shaped =
      ClusterSpec::Parse(
          "gpu MBig tflops=8 mem=32; gpu MTiny tflops=1 mem=11;"
          "node{MBig*2,MTiny*2}; node 4xV; node 4xR; node 4xQ")
          .Build();
  EXPECT_THROW(cluster::Allocate(hd_shaped, cluster::AllocationPolicy::kHybridDistribution),
               std::invalid_argument);
  // ED hands out mixed-node GPUs in declaration order.
  const cluster::Allocation ed =
      cluster::Allocate(cluster, cluster::AllocationPolicy::kEqualDistribution);
  ASSERT_EQ(ed.vw_gpus.size(), 4u);
  EXPECT_EQ(cluster.gpu(ed.vw_gpus[0][0]).type, big);
  EXPECT_EQ(cluster.gpu(ed.vw_gpus[2][0]).type, tiny);
}

TEST(ClusterSpecTest, LinkKnobsRoundTripAndReachTheLinkModels) {
  const ClusterSpec spec = ClusterSpec::Parse(
      "node 4xV; node 4xQ;"
      "intra_gbps 12; intra_scaling 0.5; intra_latency_s 2e-05;"
      "inter_gbits 25; inter_efficiency 0.2; inter_intercept_s 0.0005");
  EXPECT_EQ(spec.intra_scaling, 0.5);
  EXPECT_EQ(spec.intra_latency_s, 2e-5);
  EXPECT_EQ(spec.inter_efficiency, 0.2);
  EXPECT_EQ(spec.inter_intercept_s, 5e-4);
  EXPECT_TRUE(ClusterSpec::Parse(spec.ToString()) == spec) << spec.ToString();

  const Cluster cluster = spec.Build();
  EXPECT_EQ(cluster.pcie().latency_s(), 2e-5);
  EXPECT_EQ(cluster.pcie().EffectiveBandwidth(), 12.0 * 1e9 * 0.5);
  EXPECT_EQ(cluster.infiniband().intercept_s(), 5e-4);
  EXPECT_EQ(cluster.infiniband().EffectiveBandwidth(), 25.0 / 8.0 * 1e9 * 0.2);
  // TransferTime reflects the knobs: intercept + bytes / effective bw.
  EXPECT_DOUBLE_EQ(cluster.infiniband().TransferTime(1ULL << 20),
                   5e-4 + static_cast<double>(1ULL << 20) / (25.0 / 8.0 * 1e9 * 0.2));

  // Defaulted knobs are not emitted, so paper-shaped specs stay identical.
  EXPECT_EQ(ClusterSpec::PaperTestbed().ToString(),
            "name paper-testbed; node 4xV; node 4xR; node 4xG; node 4xQ");
}

TEST(ClusterSpecTest, NodesNameOnlyTheSpecsOwnClasses) {
  // A spec means the same in any process: a class another spec declared
  // earlier is still unknown to a spec that does not declare it.
  const Cluster declared = ClusterSpec::Parse("gpu ScopedFoo tflops=5 mem=8; node 2xScopedFoo").Build();
  EXPECT_EQ(declared.num_gpus(), 2);
  for (const char* text : {"node 2xScopedFoo", "node{ScopedFoo*1,V*1}"}) {
    try {
      ClusterSpec::Parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "cluster spec: unknown GPU type \"ScopedFoo\"") << text;
    }
  }
  ClusterSpec built;
  built.AddNode("ScopedFoo", 2);
  EXPECT_THROW(built.Build(), std::invalid_argument);
}

TEST(ClusterSpecTest, GpuClassCountIsCapped) {
  std::string classes;
  for (int i = 0; i < ClusterSpec::kMaxGpuClasses; ++i) {
    classes += "gpu CapClass" + std::to_string(i) + " tflops=1 mem=1\n";
  }
  EXPECT_NO_THROW(ClusterSpec::Parse(classes + "node 1xCapClass0"));
  try {
    ClusterSpec::Parse(classes + "gpu CapClassExtra tflops=1 mem=1\nnode 1xCapClass0");
    ADD_FAILURE() << "the cap + 1 classes parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "cluster spec: 65 GPU classes exceed the limit of 64");
  }
}

TEST(ClusterSpecTest, ClassNamesShadowCodeStringsInPickGpus) {
  // A declared class whose name spells known code letters ("VQ") must be
  // selectable by name; the code-string interpretation yields to names.
  const Cluster cluster =
      ClusterSpec::Parse("gpu VQ tflops=3 mem=12; node 1xVQ; node 4xV; node 4xQ").Build();
  const std::vector<int> picked = core::PickGpus(cluster, "VQ");
  ASSERT_EQ(picked.size(), 1u);
  EXPECT_EQ(cluster.gpu(picked[0]).type, ClassNamed(cluster, "VQ"));
}

TEST(ClusterSpecTest, PickGpusResolvesNamesAmongTheClustersClasses) {
  // Only a class of the cluster shadows code letters: on the paper testbed,
  // which has no VQ GPUs, "VQ" stays two code letters however many specs
  // declared a class named VQ, and a VQ term is unknown there.
  const Cluster vq = ClusterSpec::Parse("gpu VQ tflops=3 mem=12; node 1xVQ").Build();
  const Cluster paper = Cluster::Paper();
  const std::vector<int> codes = core::PickGpus(paper, "VQ");
  ASSERT_EQ(codes.size(), 2u);
  EXPECT_EQ(paper.gpu(codes[0]).type, GpuType::kTitanV);
  EXPECT_EQ(paper.gpu(codes[1]).type, GpuType::kQuadroP4000);
  try {
    core::PickGpus(paper, "VQ*1");
    ADD_FAILURE() << "VQ*1 picked on the paper testbed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown GPU class \"VQ\"");
  }
}

TEST(ClusterSpecTest, PickGpusResolvesCodesAmongTheClustersClasses) {
  // Code letters resolve like names, among the cluster's own classes, and a
  // declared class's letter is assigned within its cluster: Mine gets 'a'
  // whatever other specs the process built first. The letter of a class the
  // cluster has no GPUs of, built-in or declared by another spec, is unknown
  // here.
  const Cluster other_cluster =
      ClusterSpec::Parse("gpu PickOther tflops=3 mem=12 code=p; node 1xPickOther").Build();
  EXPECT_EQ(CodeOf(ClassNamed(other_cluster, "PickOther")), 'p');
  const Cluster cluster = ClusterSpec::Parse("gpu Mine tflops=5 mem=8; node 2xMine").Build();
  EXPECT_EQ(CodeOf(ClassNamed(cluster, "Mine")), 'a');
  EXPECT_EQ(core::PickGpus(cluster, "aa"), (std::vector<int>{0, 1}));
  EXPECT_EQ(core::PickGpus(cluster, "a*2"), (std::vector<int>{0, 1}));
  for (const std::string selector : {"p", "V", "ap"}) {
    try {
      core::PickGpus(cluster, selector);
      ADD_FAILURE() << selector << " picked on a cluster of Mine GPUs";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), "unknown GPU class \"" + selector + "\"");
    }
  }
}

TEST(ClusterSpecTest, CodesAreAssignedWithinTheCluster) {
  // A requested code stays unless an earlier class of the same cluster has
  // it or it is a built-in letter; every other class takes the first free
  // letter of a-z0-9, in first-use order.
  const Cluster cluster = ClusterSpec::Parse(
                              "gpu P tflops=1 mem=1 code=b; gpu Q2 tflops=1 mem=1 code=b;"
                              "gpu R2 tflops=1 mem=1 code=V; gpu S tflops=1 mem=1;"
                              "node 1xR2; node 1xP; node 1xQ2; node 1xS; node 1xV")
                              .Build();
  EXPECT_EQ(CodeOf(ClassNamed(cluster, "R2")), 'a');  // V is Table 1's
  EXPECT_EQ(CodeOf(ClassNamed(cluster, "P")), 'b');
  EXPECT_EQ(CodeOf(ClassNamed(cluster, "Q2")), 'c');  // b is P's
  EXPECT_EQ(CodeOf(ClassNamed(cluster, "S")), 'd');
  // Class order: Table 1 first, then declared classes by first use.
  std::string order;
  for (GpuType type : cluster.classes()) {
    order += std::string(order.empty() ? "" : ",") + SpecOf(type).name;
  }
  EXPECT_EQ(order, "TITAN V,R2,P,Q2,S");
}

TEST(ClusterSpecTest, PaperTestbedEquivalentToPaperSubset) {
  const Cluster direct = Cluster::Paper();
  const Cluster from_spec = ClusterSpec::PaperTestbed().Build();

  ASSERT_EQ(from_spec.num_nodes(), direct.num_nodes());
  ASSERT_EQ(from_spec.num_gpus(), direct.num_gpus());
  EXPECT_TRUE(from_spec.UniformGpusPerNode());
  for (int id = 0; id < direct.num_gpus(); ++id) {
    EXPECT_EQ(from_spec.gpu(id).type, direct.gpu(id).type);
    EXPECT_EQ(from_spec.gpu(id).node, direct.gpu(id).node);
  }
  // Identical link models, hence identical transfer times.
  const uint64_t bytes = 64ULL << 20;
  EXPECT_EQ(from_spec.pcie().TransferTime(bytes), direct.pcie().TransferTime(bytes));
  EXPECT_EQ(from_spec.infiniband().TransferTime(bytes), direct.infiniband().TransferTime(bytes));
  // And identical layout key.
  EXPECT_EQ(from_spec.ToString(), direct.ToString());

  // The partitioner solves both clusters identically.
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  partition::PartitionOptions options;
  options.nm = 2;
  const std::vector<int> vw = {0, 4, 8, 12};
  const partition::Partition a = partition::Partitioner(profile, direct).SolveScalable(vw, options);
  const partition::Partition b = partition::Partitioner(profile, from_spec).SolveScalable(vw, options);
  EXPECT_EQ(oracles::PartitionDiff(a, b), "");
}

TEST(ClusterSpecTest, BuildsHeterogeneousClusterWithDeclaredClasses) {
  const Cluster cluster = ClusterSpec::Parse(kMixedSpecText).Build();
  EXPECT_EQ(cluster.num_nodes(), 3);
  EXPECT_EQ(cluster.num_gpus(), 2 + 3 + 4);
  EXPECT_FALSE(cluster.UniformGpusPerNode());
  EXPECT_EQ(cluster.gpus_per_node(), 4);
  EXPECT_EQ(cluster.NodeGpuCount(0), 2);
  EXPECT_EQ(cluster.NodeGpuCount(1), 3);
  EXPECT_EQ(cluster.name(), "edge-mix");
  EXPECT_FALSE(cluster.spec_text().empty());

  const GpuType big = ClassNamed(cluster, "BigCard");
  EXPECT_EQ(SpecOf(big).effective_tflops, 8.5);
  EXPECT_EQ(MemoryBytes(big), 32ULL << 30);
  EXPECT_EQ(cluster.NodeType(0), big);
  // Declared classes rank by declared TFLOPS among the paper classes:
  // BigCard (8.5) above V (6.6); TinyCard (1.4) below V, the cluster's only
  // paper class.
  EXPECT_LT(cluster::ComputeRank(cluster, big), cluster::ComputeRank(cluster, GpuType::kTitanV));
  EXPECT_GT(cluster::ComputeRank(cluster, ClassNamed(cluster, "TinyCard")),
            cluster::ComputeRank(cluster, GpuType::kTitanV));
  // Spec links: 12 GB/s PCIe class, 25 Gbit/s network.
  EXPECT_LT(cluster.pcie().EffectiveBandwidth(), PcieLink().EffectiveBandwidth());
  EXPECT_LT(cluster.infiniband().EffectiveBandwidth(), InfinibandLink().EffectiveBandwidth());

}

TEST(ClusterSpecTest, PickGpusSelectorsOnGenericCluster) {
  const Cluster cluster = ClusterSpec::Parse(kMixedSpecText).Build();
  const std::vector<int> by_name = core::PickGpus(cluster, "BigCard*2,TinyCard");
  ASSERT_EQ(by_name.size(), 3u);
  EXPECT_EQ(cluster.gpu(by_name[0]).type, ClassNamed(cluster, "BigCard"));
  EXPECT_EQ(cluster.gpu(by_name[2]).type, ClassNamed(cluster, "TinyCard"));

  const std::vector<int> pinned = core::PickGpus(cluster, "V*2@2");
  ASSERT_EQ(pinned.size(), 2u);
  EXPECT_EQ(cluster.gpu(pinned[0]).node, 2);

  // Code strings still work, on any cluster that has the classes.
  EXPECT_EQ(core::PickGpus(cluster, "VV").size(), 2u);

  EXPECT_THROW(core::PickGpus(cluster, "BigCard*3"), std::invalid_argument);
  EXPECT_THROW(core::PickGpus(cluster, "NoSuchCard"), std::invalid_argument);
  EXPECT_THROW(core::PickGpus(cluster, "TinyCard*2@0"), std::invalid_argument);
  // Malformed numeric suffixes must fail loudly, not silently truncate.
  EXPECT_THROW(core::PickGpus(cluster, "BigCard@0*2"), std::invalid_argument);
  EXPECT_THROW(core::PickGpus(cluster, "BigCard*2junk"), std::invalid_argument);
  EXPECT_THROW(core::PickGpus(cluster, "BigCard*"), std::invalid_argument);
  EXPECT_THROW(core::PickGpus(cluster, "BigCard*99999999999999999999"),
               std::invalid_argument);
}

// The ISSUE's acceptance scenario: a non-paper cluster spec runs kFullCluster
// end-to-end through SweepRunner and emits valid JSON rows.
TEST(ClusterSpecTest, GenericClusterRunsFullClusterExperimentEndToEnd) {
  core::Experiment e;
  e.kind = core::ExperimentKind::kFullCluster;
  e.model = core::ModelKind::kResNet152;
  e.cluster_spec = ClusterSpec::Parse(kMixedSpecText).ToString();
  e.cluster_label = "edge-mix";
  e.config.allocation = cluster::AllocationPolicy::kEqualDistribution;
  e.config.placement = wsp::PlacementPolicy::kLocal;
  e.config.sync = wsp::SyncPolicy::Wsp(0);
  e.config.waves = 10;
  e.config.warmup_waves = 2;

  std::ostringstream out;
  runner::JsonlSink sink(out);
  runner::SweepOptions options;
  options.threads = 2;
  options.sink = &sink;
  runner::SweepRunner sweep(options);
  const auto results = sweep.Run({e});

  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].feasible) << results[0].report.infeasible_reason;
  EXPECT_GT(results[0].throughput_img_s, 0.0);
  // ED on a 2/3/4-GPU cluster: 4 virtual workers, the smaller nodes thinning
  // out of the later ones.
  EXPECT_EQ(results[0].report.vws.size(), 4u);
  const std::string row = out.str();
  EXPECT_NE(row.find("\"cluster\":\"edge-mix\""), std::string::npos) << row;
  EXPECT_NE(row.find("\"feasible\":true"), std::string::npos) << row;

  // Determinism across thread counts holds for generic clusters too.
  runner::SweepRunner serial(runner::SweepOptions{});
  const auto serial_results = serial.Run({e});
  ASSERT_EQ(serial_results.size(), 1u);
  EXPECT_EQ(serial_results[0].throughput_img_s, results[0].throughput_img_s);
}

// ---- Rack topology and per-node-pair link overrides ----

constexpr const char* kRackSpecText =
    "name rack-mix\n"
    "gpu RackCard tflops=8.5 mem=32\n"
    "node 2xRackCard\n"
    "node 2xRackCard\n"
    "node 2xRackCard\n"
    "rack r0 { node0 node1 }\n"
    "rack r1 { node2 }\n"
    "cross_rack_gbits 10\n"
    "link node0<->node2 gbits 5 efficiency 0.1 intercept_s 0.001\n";

TEST(ClusterSpecTest, ParsesRacksAndLinkOverrides) {
  const ClusterSpec spec = ClusterSpec::Parse(kRackSpecText);
  ASSERT_EQ(spec.racks.size(), 2u);
  EXPECT_EQ(spec.racks[0].name, "r0");
  EXPECT_EQ(spec.racks[0].nodes, (std::vector<int>{0, 1}));
  EXPECT_EQ(spec.racks[1].nodes, (std::vector<int>{2}));
  ASSERT_TRUE(spec.cross_rack_gbits.has_value());
  EXPECT_EQ(*spec.cross_rack_gbits, 10.0);
  EXPECT_FALSE(spec.cross_rack_efficiency.has_value());
  EXPECT_FALSE(spec.cross_rack_intercept_s.has_value());
  ASSERT_EQ(spec.link_overrides.size(), 1u);
  EXPECT_EQ(spec.link_overrides[0].node_a, 0);
  EXPECT_EQ(spec.link_overrides[0].node_b, 2);
  EXPECT_EQ(spec.link_overrides[0].gbits, std::optional<double>(5.0));
  EXPECT_EQ(spec.link_overrides[0].efficiency, std::optional<double>(0.1));
  EXPECT_EQ(spec.link_overrides[0].intercept_s, std::optional<double>(0.001));

  // The glued-brace spelling and reversed pairs parse too (canonicalized).
  const ClusterSpec glued = ClusterSpec::Parse(
      "node 1xV; node 1xV; rack top {node0 node1}; link node1<->node0 gbits 3");
  ASSERT_EQ(glued.racks.size(), 1u);
  EXPECT_EQ(glued.racks[0].name, "top");
  EXPECT_EQ(glued.racks[0].nodes, (std::vector<int>{0, 1}));
  ASSERT_EQ(glued.link_overrides.size(), 1u);
  EXPECT_EQ(glued.link_overrides[0].node_a, 0);
  EXPECT_EQ(glued.link_overrides[0].node_b, 1);
  EXPECT_FALSE(glued.link_overrides[0].efficiency.has_value());
}

TEST(ClusterSpecTest, RackSpecRoundTripsAndMatchesBuilder) {
  const ClusterSpec spec = ClusterSpec::Parse(kRackSpecText);
  const std::string canonical = spec.ToString();
  EXPECT_NE(canonical.find("rack r0 { node0 node1 }"), std::string::npos) << canonical;
  EXPECT_NE(canonical.find("cross_rack_gbits 10"), std::string::npos) << canonical;
  EXPECT_NE(canonical.find("link node0<->node2 gbits 5 efficiency 0.1 intercept_s 0.001"),
            std::string::npos)
      << canonical;
  EXPECT_TRUE(ClusterSpec::Parse(canonical) == spec) << canonical;

  ClusterSpec built;
  built.Named("rack-mix")
      .AddGpuClass("RackCard", 8.5, 32.0)
      .AddNode("RackCard", 2)
      .AddNode("RackCard", 2)
      .AddNode("RackCard", 2)
      .AddRack("r0", {0, 1})
      .AddRack("r1", {2})
      .CrossRackGbits(10.0)
      .OverrideLink(0, 2, 5.0, 0.1, 0.001);
  EXPECT_TRUE(built == spec);
}

TEST(ClusterSpecTest, RejectsMalformedRacksAndOverrides) {
  constexpr const char* kNodes = "node 1xV; node 1xV; node 1xV; ";
  // Rack grammar and membership errors.
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "rack r0"), std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "rack r0 { }"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "rack { node0 }"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "rack r0 { junk }"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "rack r0 { node9 }"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "rack r0 { node-1 }"),
               std::invalid_argument);
  EXPECT_THROW(
      ClusterSpec::Parse(std::string(kNodes) + "rack r0 { node0 }; rack r1 { node0 }"),
      std::invalid_argument);
  EXPECT_THROW(
      ClusterSpec::Parse(std::string(kNodes) + "rack r0 { node0 }; rack r0 { node1 }"),
      std::invalid_argument);
  // Cross-rack knobs need racks and sane values.
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "cross_rack_gbits 10"),
               std::invalid_argument);
  EXPECT_THROW(
      ClusterSpec::Parse(std::string(kNodes) + "rack r0 { node0 }; cross_rack_gbits 0"),
      std::invalid_argument);
  EXPECT_THROW(
      ClusterSpec::Parse(std::string(kNodes) + "rack r0 { node0 }; cross_rack_efficiency 1.5"),
      std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) +
                                  "rack r0 { node0 }; cross_rack_intercept_s -1e-3"),
               std::invalid_argument);
  EXPECT_THROW(
      ClusterSpec::Parse(std::string(kNodes) + "rack r0 { node0 }; cross_rack_gbits nan"),
      std::invalid_argument);
  // Link override errors: grammar, ranges, duplicates, empty, self pairs.
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "link node0<->node1"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "link node0-node1 gbits 5"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "link node0<->node0 gbits 5"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "link node0<->node9 gbits 5"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "link node0<->node1 gbits 0"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "link node0<->node1 efficiency 2"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "link node0<->node1 watts 5"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) + "link node0<->node1 gbits 5 gbits 6"),
               std::invalid_argument);
  EXPECT_THROW(ClusterSpec::Parse(std::string(kNodes) +
                                  "link node0<->node1 gbits 5; link node1<->node0 gbits 6"),
               std::invalid_argument);
}

// Every truncation, every byte replaced by each separator the grammar
// knows (and a NUL), and seeded token drops and duplications of spec texts
// the repo builds: a mutant parses to a spec that survives the ToString round
// trip, or is rejected with std::invalid_argument and a message. Nothing
// else may escape, and the sanitizer lanes run it for memory errors.
TEST(ClusterSpecTest, MutatedSpecTextsParseAndRoundTripOrFailCleanly) {
  const std::vector<std::string> seeds = {
      ClusterSpec::PaperTestbed().ToString(),
      runner::MixedDemoSpec("mixed-3node").ToString(),
      // The racked and link-override clusters of tests/golden/exact_solves.txt.
      "name exact-racked; node 4xV; node 4xR; node 4xG; node 4xQ; node 4xV; node 4xR; "
      "node 4xG; node 4xQ; rack rack0 { node0 node1 node2 node3 }; "
      "rack rack1 { node4 node5 node6 node7 }; cross_rack_gbits 5",
      "name exact-override; node 4xV; node 4xR; node 4xG; node 4xQ; node 4xV; node 4xR; "
      "node 4xG; node 4xQ; link node2<->node5 gbits 10",
  };
  std::vector<std::string> mutants;
  std::mt19937 rng(20261018);
  for (const std::string& seed : seeds) {
    ASSERT_EQ(ClusterSpec::Parse(seed).ToString(), seed);
    for (size_t cut = 0; cut < seed.size(); ++cut) {
      mutants.push_back(seed.substr(0, cut));
    }
    for (size_t at = 0; at < seed.size(); ++at) {
      for (const char byte : std::string(";{}*@=x#\0", 9)) {
        std::string mutant = seed;
        mutant[at] = byte;
        mutants.push_back(std::move(mutant));
      }
    }
    std::vector<std::string> tokens;
    std::istringstream in(seed);
    for (std::string token; in >> token;) {
      tokens.push_back(token);
    }
    for (int round = 0; round < 200; ++round) {
      std::vector<std::string> mutated = tokens;
      for (int edit = 0; edit <= round % 3; ++edit) {
        const size_t at = rng() % mutated.size();
        if (rng() % 2 == 0 && mutated.size() > 1) {
          mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(at));
        } else {
          mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(at), mutated[at]);
        }
      }
      std::string mutant;
      for (const std::string& token : mutated) {
        mutant += (mutant.empty() ? "" : " ") + token;
      }
      mutants.push_back(std::move(mutant));
    }
  }

  int parsed = 0;
  int rejected = 0;
  for (const std::string& mutant : mutants) {
    std::optional<ClusterSpec> spec;
    try {
      spec = ClusterSpec::Parse(mutant);
    } catch (const std::invalid_argument& e) {
      EXPECT_STRNE(e.what(), "") << mutant;
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "Parse threw " << e.what() << " on: " << mutant;
      continue;
    }
    ++parsed;
    // A parsed spec is validated, so it builds.
    EXPECT_NO_THROW(spec->Build()) << mutant;
    const std::string text = spec->ToString();
    try {
      EXPECT_TRUE(ClusterSpec::Parse(text) == *spec) << mutant << " -> " << text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "round trip threw " << e.what() << " on: " << mutant << " -> " << text;
    }
  }
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 1000);
}

TEST(ClusterSpecTest, ResolvesPairLinksSameRackCrossRackAndOverride) {
  const ClusterSpec spec = ClusterSpec::Parse(kRackSpecText);
  const Cluster cluster = spec.Build();
  EXPECT_FALSE(cluster.UniformFabric());
  EXPECT_EQ(cluster.NodeRack(0), 0);
  EXPECT_EQ(cluster.NodeRack(1), 0);
  EXPECT_EQ(cluster.NodeRack(2), 1);
  EXPECT_TRUE(cluster.SameRack(0, 1));
  EXPECT_FALSE(cluster.SameRack(1, 2));

  const uint64_t bytes = 8ULL << 20;
  // Same rack: the plain inter link (56G IB defaults here).
  EXPECT_EQ(cluster.LinkBetweenNodes(0, 1).TransferTime(bytes),
            cluster.infiniband().TransferTime(bytes));
  // Cross-rack: inter with gbits swapped to 10 (efficiency/intercept
  // inherited).
  const InfinibandLink cross(10.0, InfinibandLink::kDefaultEfficiency,
                             InfinibandLink::kDefaultIntercept);
  EXPECT_EQ(cluster.LinkBetweenNodes(1, 2).TransferTime(bytes), cross.TransferTime(bytes));
  EXPECT_EQ(cluster.LinkBetweenNodes(2, 1).TransferTime(bytes), cross.TransferTime(bytes));
  // Explicit override beats the cross-rack link on its pair.
  const InfinibandLink overridden(5.0, 0.1, 0.001);
  EXPECT_EQ(cluster.LinkBetweenNodes(0, 2).TransferTime(bytes),
            overridden.TransferTime(bytes));
  // The spec-level resolver agrees with the built cluster.
  EXPECT_EQ(spec.InterLinkBetween(0, 2).TransferTime(bytes), overridden.TransferTime(bytes));
  EXPECT_EQ(spec.InterLinkBetween(1, 2).TransferTime(bytes), cross.TransferTime(bytes));
  // GPU-level routing picks the pair link: GPUs 0 (node0) and 5 (node2).
  EXPECT_EQ(cluster.LinkBetween(0, 5).TransferTime(bytes), overridden.TransferTime(bytes));
  EXPECT_EQ(cluster.LinkToNode(0, 2).TransferTime(bytes), overridden.TransferTime(bytes));
  // Same node stays PCIe.
  EXPECT_EQ(cluster.LinkBetween(0, 1).TransferTime(bytes),
            cluster.pcie().TransferTime(bytes));
  // The conservative funnel bound is the node's worst resolved pair link:
  // from node1 that is the cross-rack 10 Gbit/s link to node2 (the node0
  // link is the plain inter link, which is faster).
  EXPECT_EQ(cluster.WorstInterTransferTimeFrom(1, bytes), cross.TransferTime(bytes));
  EXPECT_EQ(cluster.WorstInterTransferTimeFrom(0, bytes), overridden.TransferTime(bytes));
  // On a uniform fabric the bound is exactly the shared inter link.
  const Cluster uniform = ClusterSpec::Parse("node 2xV; node 2xV").Build();
  EXPECT_EQ(uniform.WorstInterTransferTimeFrom(0, bytes),
            uniform.infiniband().TransferTime(bytes));
}

TEST(ClusterSpecTest, RacksAloneKeepTheFabricUniform) {
  // Racks without any cross-rack knob (or with knobs equal to the inter
  // values) change no link, so the cluster stays a uniform fabric and every
  // transfer time is bit-identical to the rack-free build.
  const char* kBase = "node 2xV; node 2xV; node 2xV; inter_gbits 25";
  const Cluster plain = ClusterSpec::Parse(kBase).Build();
  const Cluster racked =
      ClusterSpec::Parse(std::string(kBase) + "; rack r0 { node0 node1 }; rack r1 { node2 }")
          .Build();
  const Cluster racked_same_knob =
      ClusterSpec::Parse(std::string(kBase) +
                         "; rack r0 { node0 node1 }; rack r1 { node2 }; cross_rack_gbits 25")
          .Build();
  EXPECT_TRUE(plain.UniformFabric());
  EXPECT_TRUE(racked.UniformFabric());
  EXPECT_TRUE(racked_same_knob.UniformFabric());
  // Rack metadata is still there for the traffic accounting.
  EXPECT_EQ(racked.NodeRack(2), 1);
  EXPECT_EQ(plain.NodeRack(2), -1);
  const uint64_t bytes = 16ULL << 20;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      EXPECT_EQ(racked.LinkBetweenNodes(a, b).TransferTime(bytes),
                plain.LinkBetweenNodes(a, b).TransferTime(bytes));
    }
  }

  // And the partitioner returns a bit-identical partition.
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  partition::PartitionOptions options;
  options.nm = 2;
  const std::vector<int> vw = {0, 2, 4};
  const partition::Partition a = partition::Partitioner(profile, plain).SolveScalable(vw, options);
  const partition::Partition b = partition::Partitioner(profile, racked).SolveScalable(vw, options);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(oracles::PartitionDiff(a, b), "");
}

TEST(ClusterSpecTest, PartitionerRespondsToADegradedNodePair) {
  // The ISSUE's acceptance scenario: degrade one node pair's link and the
  // partitioner's chosen partition must respond. Three single-V nodes, a VW
  // with one GPU per node; with a uniform fabric the order search keeps the
  // first (id-ordered) representative, with node0<->node1 degraded it must
  // route around the bad cable by never placing stages on nodes 0 and 1
  // adjacently — at no bottleneck cost, since the detour links are intact.
  const char* kBase = "node 1xV; node 1xV; node 1xV";
  const Cluster uniform = ClusterSpec::Parse(kBase).Build();
  const Cluster degraded =
      ClusterSpec::Parse(std::string(kBase) + "; link node0<->node1 gbits 0.5").Build();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  partition::PartitionOptions options;
  options.nm = 1;

  const partition::Partition base =
      partition::Partitioner(profile, uniform).SolveScalable({0, 1, 2}, options);
  ASSERT_TRUE(base.feasible);
  ASSERT_EQ(base.num_stages(), 3);
  EXPECT_EQ(base.stages[0].node, 0);
  EXPECT_EQ(base.stages[1].node, 1);
  EXPECT_EQ(base.stages[2].node, 2);

  const partition::Partitioner degraded_partitioner(profile, degraded);
  const partition::Partition routed = degraded_partitioner.SolveScalable({0, 1, 2}, options);
  ASSERT_TRUE(routed.feasible);
  ASSERT_EQ(routed.num_stages(), 3);
  for (int q = 1; q < routed.num_stages(); ++q) {
    const int prev = routed.stages[static_cast<size_t>(q) - 1].node;
    const int cur = routed.stages[static_cast<size_t>(q)].node;
    EXPECT_FALSE((prev == 0 && cur == 1) || (prev == 1 && cur == 0))
        << "stage boundary " << q << " crosses the degraded pair";
  }
  EXPECT_EQ(routed.bottleneck_time, base.bottleneck_time);

  // With the order search off the degraded pair cannot be avoided, so the
  // link slowdown must surface in the objective — proof the per-pair link
  // reaches the DP's hoisted transfer times.
  partition::PartitionOptions fixed = options;
  fixed.search_gpu_orders = false;
  const partition::Partition stuck = degraded_partitioner.SolveScalable({0, 1, 2}, fixed);
  const partition::Partition stuck_base =
      partition::Partitioner(profile, uniform).SolveScalable({0, 1, 2}, fixed);
  ASSERT_TRUE(stuck.feasible);
  EXPECT_GT(stuck.bottleneck_time, stuck_base.bottleneck_time);

  // The solver and the oracle's SolveReference agree on non-uniform fabrics
  // too.
  const partition::Partition reference =
      oracles::SolveReference(degraded_partitioner, {0, 1, 2}, options);
  ASSERT_TRUE(reference.feasible);
  EXPECT_EQ(oracles::PartitionDiff(reference, routed), "");
}

}  // namespace
}  // namespace hetpipe::hw
