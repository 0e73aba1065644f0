// Tests for the spec-driven sweep library (runner/spec_sweep.h): the
// generated grids are deterministic, carry the cluster as canonical spec
// text, reflect the swept knob in their specs, and run end-to-end through
// SweepRunner.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "hw/cluster_spec.h"
#include "runner/spec_sweep.h"
#include "runner/sweep_runner.h"

namespace hetpipe::runner {
namespace {

hw::ClusterSpec SweepFixtureSpec() {
  hw::ClusterSpec spec;
  spec.Named("sweep-fix");
  spec.AddGpuClass("SwBig", 8.0, 32.0)
      .AddGpuClass("SwTiny", 1.5, 12.0)
      .AddMixedNode({{"SwBig", 1}, {"SwTiny", 1}})
      .AddNode("SwTiny", 2)
      .AddNode("V", 2)
      .InterGbits(25.0);
  return spec;
}

TEST(SpecSweepTest, SingleVwSweepEnumeratesDistinctEdShapes) {
  const hw::ClusterSpec spec = SweepFixtureSpec();
  const std::vector<core::Experiment> experiments = SingleVwSweep(spec, /*nm_max=*/3);
  // ED on a (2, 2, 2)-GPU cluster yields two VWs: {SwBig@0, SwTiny@1, V@2}
  // and {SwTiny@0, SwTiny@1, V@2} — distinct shapes, so 2 x 3 experiments.
  ASSERT_EQ(experiments.size(), 6u);
  std::set<std::string> selectors;
  for (const core::Experiment& e : experiments) {
    EXPECT_EQ(e.kind, core::ExperimentKind::kSingleVirtualWorker);
    EXPECT_EQ(e.cluster_spec, spec.ToString());
    EXPECT_EQ(e.config.jitter_cv, 0.0);
    EXPECT_GE(e.config.nm, 1);
    EXPECT_LE(e.config.nm, 3);
    selectors.insert(e.vw_codes);
  }
  // Selectors are sorted "Class@node" terms by class name (the paper V
  // class's name is "TITAN V").
  EXPECT_EQ(selectors, (std::set<std::string>{"SwBig@0,SwTiny@1,TITAN V@2",
                                              "SwTiny@0,SwTiny@1,TITAN V@2"}));

  // Identical calls generate identical lists (the grids are deterministic).
  const std::vector<core::Experiment> again = SingleVwSweep(spec, 3);
  ASSERT_EQ(again.size(), experiments.size());
  for (size_t i = 0; i < experiments.size(); ++i) {
    EXPECT_EQ(again[i].vw_codes, experiments[i].vw_codes);
    EXPECT_EQ(again[i].config.nm, experiments[i].config.nm);
  }

  // The uniform paper testbed has one distinct ED shape: 1 x nm_max rows.
  EXPECT_EQ(SingleVwSweep(hw::ClusterSpec::PaperTestbed(), 4).size(), 4u);
}

TEST(SpecSweepTest, ScalingSweepTakesNodePrefixes) {
  const hw::ClusterSpec spec = SweepFixtureSpec();
  const std::vector<core::Experiment> experiments = ScalingSweep(spec);
  ASSERT_EQ(experiments.size(), 6u);  // (Horovod + HetPipe) x 3 prefixes
  for (size_t prefix = 1; prefix <= 3; ++prefix) {
    const core::Experiment& horovod = experiments[2 * (prefix - 1)];
    const core::Experiment& hetpipe = experiments[2 * (prefix - 1) + 1];
    EXPECT_EQ(horovod.kind, core::ExperimentKind::kHorovod);
    EXPECT_EQ(hetpipe.kind, core::ExperimentKind::kFullCluster);
    const hw::ClusterSpec subset = hw::ClusterSpec::Parse(hetpipe.cluster_spec);
    EXPECT_EQ(subset.nodes.size(), prefix);
    EXPECT_EQ(subset.nodes.front(), spec.nodes.front());
    // One node: the paper's V4 case runs NP; beyond that ED.
    EXPECT_EQ(hetpipe.config.allocation,
              prefix == 1 ? cluster::AllocationPolicy::kNodePartition
                          : cluster::AllocationPolicy::kEqualDistribution);
  }
}

TEST(SpecSweepTest, GridSweepsReflectTheKnobInTheSpecText) {
  const hw::ClusterSpec spec = SweepFixtureSpec();

  const std::vector<core::Experiment> bandwidth = BandwidthSweep(spec, {10.0, 56.0});
  ASSERT_EQ(bandwidth.size(), 2u);
  EXPECT_EQ(hw::ClusterSpec::Parse(bandwidth[0].cluster_spec).inter_gbits, 10.0);
  EXPECT_EQ(hw::ClusterSpec::Parse(bandwidth[1].cluster_spec).inter_gbits, 56.0);

  const std::vector<core::Experiment> latency = LatencySweep(spec, {1e-4, 5e-3}, {1e-5});
  ASSERT_EQ(latency.size(), 2u);
  const hw::ClusterSpec slow = hw::ClusterSpec::Parse(latency[1].cluster_spec);
  EXPECT_EQ(slow.inter_intercept_s, 5e-3);
  EXPECT_EQ(slow.intra_latency_s, 1e-5);
  EXPECT_NE(latency[0].name, latency[1].name);

  const std::vector<core::Experiment> straggler = StragglerSweep(spec, {0.0, 0.1}, {0, 4});
  ASSERT_EQ(straggler.size(), 4u);
  EXPECT_EQ(straggler[0].config.jitter_cv, 0.0);
  EXPECT_EQ(straggler[3].config.jitter_cv, 0.1);
  EXPECT_EQ(straggler[3].config.sync.d, 4);
}

TEST(SpecSweepTest, ScalingSweepTrimsTopologyToTheNodePrefix) {
  // A spec carrying racks and an override must still produce valid prefix
  // subsets: racks lose their out-of-prefix members, overrides needing
  // truncated nodes vanish, and cross-rack knobs follow the racks.
  hw::ClusterSpec spec = SweepFixtureSpec();
  spec.AddRack("r0", {0, 1}).AddRack("r1", {2}).CrossRackGbits(5.0).OverrideLink(0, 2, 2.0);

  const std::vector<core::Experiment> experiments = ScalingSweep(spec);
  ASSERT_EQ(experiments.size(), 6u);
  for (const core::Experiment& e : experiments) {
    // Every emitted spec parses and builds (Validate passes).
    EXPECT_NO_THROW(hw::ClusterSpec::Parse(e.cluster_spec).Build()) << e.cluster_spec;
  }
  const hw::ClusterSpec one_node = hw::ClusterSpec::Parse(experiments[1].cluster_spec);
  ASSERT_EQ(one_node.racks.size(), 1u);  // r1 lost its only node, r0 kept {0}
  EXPECT_EQ(one_node.racks[0].nodes, (std::vector<int>{0}));
  EXPECT_TRUE(one_node.link_overrides.empty());  // node2 is gone
  const hw::ClusterSpec full = hw::ClusterSpec::Parse(experiments[5].cluster_spec);
  EXPECT_EQ(full.racks.size(), 2u);
  EXPECT_EQ(full.link_overrides.size(), 1u);
  EXPECT_EQ(full.cross_rack_gbits, std::optional<double>(5.0));
}

TEST(SpecSweepTest, TopologySweepBuildsRackAndDegradedPairScenarios) {
  const hw::ClusterSpec spec = SweepFixtureSpec();  // 3 nodes
  const std::vector<core::Experiment> experiments =
      TopologySweep(spec, /*rack_sizes=*/{1, 2, 3}, /*cross_rack_gbits=*/{10.0, 2.0},
                    /*degraded_pair_gbits=*/{1.0});
  // rack size 3 spans everything (no cross-rack pair) and is skipped:
  // 2 rack sizes x 2 rates + 1 degraded pair.
  ASSERT_EQ(experiments.size(), 5u);

  const hw::ClusterSpec racks_of_1 = hw::ClusterSpec::Parse(experiments[0].cluster_spec);
  ASSERT_EQ(racks_of_1.racks.size(), 3u);
  EXPECT_EQ(racks_of_1.racks[0].nodes, (std::vector<int>{0}));
  EXPECT_EQ(racks_of_1.cross_rack_gbits, std::optional<double>(10.0));
  EXPECT_TRUE(racks_of_1.link_overrides.empty());

  const hw::ClusterSpec racks_of_2 = hw::ClusterSpec::Parse(experiments[2].cluster_spec);
  ASSERT_EQ(racks_of_2.racks.size(), 2u);  // {0,1} and the partial {2}
  EXPECT_EQ(racks_of_2.racks[0].nodes, (std::vector<int>{0, 1}));
  EXPECT_EQ(racks_of_2.racks[1].nodes, (std::vector<int>{2}));

  const hw::ClusterSpec degraded = hw::ClusterSpec::Parse(experiments[4].cluster_spec);
  EXPECT_TRUE(degraded.racks.empty());
  ASSERT_EQ(degraded.link_overrides.size(), 1u);
  EXPECT_EQ(degraded.link_overrides[0].node_a, 0);
  EXPECT_EQ(degraded.link_overrides[0].node_b, 2);
  EXPECT_EQ(degraded.link_overrides[0].gbits, std::optional<double>(1.0));

  // Scenario names are distinct, and identical calls produce identical lists.
  std::set<std::string> names;
  for (const core::Experiment& e : experiments) {
    names.insert(e.name);
  }
  EXPECT_EQ(names.size(), experiments.size());
  const std::vector<core::Experiment> again =
      TopologySweep(spec, {1, 2, 3}, {10.0, 2.0}, {1.0});
  ASSERT_EQ(again.size(), experiments.size());
  for (size_t i = 0; i < experiments.size(); ++i) {
    EXPECT_EQ(again[i].name, experiments[i].name);
    EXPECT_EQ(again[i].cluster_spec, experiments[i].cluster_spec);
  }

  // A base spec that already carries topology is refused (the sweep would
  // silently overwrite it).
  hw::ClusterSpec pre_racked = spec;
  pre_racked.AddRack("r0", {0});
  EXPECT_THROW(TopologySweep(pre_racked, {1}, {10.0}, {}), std::invalid_argument);
}

TEST(SpecSweepTest, TopologySweepRunsEndToEndAndSlowerCrossRackIsNoFaster) {
  const hw::ClusterSpec spec = SweepFixtureSpec();
  SpecSweepOptions options;
  options.waves = 8;
  options.warmup_waves = 2;
  options.jitter_cv = 0.0;  // deterministic, so the monotonicity check is exact
  const std::vector<core::Experiment> experiments =
      TopologySweep(spec, /*rack_sizes=*/{1}, /*cross_rack_gbits=*/{25.0, 1.0},
                    /*degraded_pair_gbits=*/{2.0}, options);
  ASSERT_EQ(experiments.size(), 3u);

  SweepOptions sweep_options;
  sweep_options.threads = 4;
  SweepRunner sweep(sweep_options);
  const std::vector<core::ExperimentResult> results = sweep.Run(experiments);
  for (const core::ExperimentResult& r : results) {
    EXPECT_TRUE(r.feasible) << r.name;
    EXPECT_GT(r.throughput_img_s, 0.0) << r.name;
  }
  // Racks of 1 make every inter-node link cross-rack: dropping those links
  // from 25 to 1 Gbit/s cannot speed the cluster up.
  EXPECT_LT(results[1].throughput_img_s, results[0].throughput_img_s);
  // Distinct topologies never share partition-cache entries.
  EXPECT_GE(sweep.cache().misses(), 2);
}

TEST(SpecSweepTest, GeneratedGridsRunEndToEnd) {
  const hw::ClusterSpec spec = SweepFixtureSpec();
  SpecSweepOptions options;
  options.waves = 8;
  options.warmup_waves = 2;

  std::vector<core::Experiment> experiments = SingleVwSweep(spec, /*nm_max=*/2, options);
  for (core::Experiment& e : LatencySweep(spec, {1e-4, 5e-3}, {1e-5}, options)) {
    experiments.push_back(std::move(e));
  }

  SweepOptions sweep_options;
  sweep_options.threads = 4;
  SweepRunner sweep(sweep_options);
  const std::vector<core::ExperimentResult> results = sweep.Run(experiments);
  ASSERT_EQ(results.size(), experiments.size());
  for (const core::ExperimentResult& r : results) {
    EXPECT_TRUE(r.feasible) << r.name;
    EXPECT_GT(r.throughput_img_s, 0.0) << r.name;
  }
  // The two latency points must not have shared a partition-cache entry:
  // each is a distinct key (plus the single-VW shapes solved once each).
  EXPECT_GE(sweep.cache().misses(), 2);
}

}  // namespace
}  // namespace hetpipe::runner
