// Golden-file regression suite for the experiment pipeline: the Fig. 3 /
// Fig. 4 and Table 4 experiment lists (plus a generic-cluster list) run
// through SweepRunner and their JSON rows are compared against checked-in
// goldens within tolerance, so refactors cannot silently drift the reproduced
// numbers.
//
// Regenerating after an intentional change:
//   UPDATE_GOLDEN=1 ./build/golden_test
// rewrites tests/golden/*.jsonl in the source tree; review the diff before
// committing it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.h"
#include "hw/cluster_spec.h"
#include "oracles/golden.h"
#include "runner/partition_cache.h"
#include "runner/result_sink.h"
#include "runner/spec_sweep.h"
#include "runner/sweep_runner.h"

namespace hetpipe {
namespace {

// Numeric drift tolerated before a golden mismatch is reported. The pipeline
// is deterministic, so goldens normally match to the last printed digit; the
// slack only absorbs FP differences across compilers and sanitizer builds.
constexpr double kRelTol = 1e-6;
constexpr double kAbsTol = 1e-9;

// ---- A tiny parser for the flat JSON objects JsonlSink emits. ----

struct Field {
  std::string key;
  std::string value;  // raw token: quoted string, number, or true/false
};

bool ParseRow(const std::string& line, std::vector<Field>* fields, std::string* error) {
  fields->clear();
  size_t i = 0;
  const auto fail = [&](const std::string& what) {
    *error = what + " at offset " + std::to_string(i) + " in: " + line;
    return false;
  };
  if (line.empty() || line[i] != '{') {
    return fail("expected '{'");
  }
  ++i;
  const auto parse_string = [&](std::string* out) {
    ++i;  // opening quote
    out->clear();
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\' && i + 1 < line.size()) {
        out->push_back(line[i + 1]);
        i += 2;
      } else {
        out->push_back(line[i]);
        ++i;
      }
    }
    if (i >= line.size()) {
      return false;
    }
    ++i;  // closing quote
    return true;
  };
  while (i < line.size() && line[i] != '}') {
    Field field;
    if (line[i] != '"') {
      return fail("expected a key");
    }
    if (!parse_string(&field.key)) {
      return fail("unterminated key");
    }
    if (i >= line.size() || line[i] != ':') {
      return fail("expected ':'");
    }
    ++i;
    if (i < line.size() && line[i] == '"') {
      std::string value;
      const size_t start = i;
      if (!parse_string(&value)) {
        return fail("unterminated string value");
      }
      field.value = line.substr(start, i - start);
    } else {
      const size_t start = i;
      while (i < line.size() && line[i] != ',' && line[i] != '}') {
        ++i;
      }
      field.value = line.substr(start, i - start);
    }
    fields->push_back(std::move(field));
    if (i < line.size() && line[i] == ',') {
      ++i;
    }
  }
  if (i >= line.size() || line[i] != '}') {
    return fail("expected '}'");
  }
  return true;
}

bool BothNumeric(const std::string& a, const std::string& b, double* va, double* vb) {
  char* end = nullptr;
  *va = std::strtod(a.c_str(), &end);
  if (end != a.c_str() + a.size() || a.empty()) {
    return false;
  }
  *vb = std::strtod(b.c_str(), &end);
  return end == b.c_str() + b.size() && !b.empty();
}

// The tolerant row comparison: the same keys in the same order, numbers
// within kRelTol / kAbsTol, every other value byte for byte. "" on a match.
std::string RowDiff(const std::string& golden, const std::string& actual) {
  std::vector<Field> want;
  std::vector<Field> got;
  std::string error;
  if (!ParseRow(golden, &want, &error)) {
    return "golden: " + error;
  }
  if (!ParseRow(actual, &got, &error)) {
    return error;
  }
  if (want.size() != got.size()) {
    return "field count differs\n  golden: " + golden + "\n  actual: " + actual;
  }
  for (size_t f = 0; f < want.size(); ++f) {
    if (want[f].key != got[f].key) {
      return "field " + std::to_string(f) + " is " + got[f].key + ", golden " + want[f].key;
    }
    double want_value = 0.0;
    double got_value = 0.0;
    const bool same =
        BothNumeric(want[f].value, got[f].value, &want_value, &got_value)
            ? std::abs(want_value - got_value) <= kAbsTol + kRelTol * std::abs(want_value)
            : want[f].value == got[f].value;
    if (!same) {
      return "field " + want[f].key + ": golden " + want[f].value + " vs actual " +
             got[f].value;
    }
  }
  return "";
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

std::string RunToJsonl(const std::vector<core::Experiment>& experiments, int threads) {
  std::ostringstream out;
  runner::JsonlSink sink(out);
  runner::SweepOptions options;
  options.threads = threads;
  options.sink = &sink;
  runner::SweepRunner sweep(options);
  sweep.Run(experiments);
  return out.str();
}

void CheckAgainstGolden(const std::string& suite,
                        const std::vector<core::Experiment>& experiments) {
  const std::string jsonl = RunToJsonl(experiments, /*threads=*/4);

  // The acceptance invariant of the sweep subsystem: the 8-thread
  // work-stealing sweep is element-wise identical to the serial one.
  EXPECT_EQ(RunToJsonl(experiments, /*threads=*/1), jsonl)
      << suite << ": serial and parallel sweeps diverged";
  EXPECT_EQ(RunToJsonl(experiments, /*threads=*/8), jsonl)
      << suite << ": 4- and 8-thread sweeps diverged";

  EXPECT_EQ(oracles::CheckGolden(suite + ".jsonl", "", SplitLines(jsonl), RowDiff), "");
}

// ---- The pinned experiment lists. Everything is fixed (seeds, waves,
// ---- jitter) so the rows are deterministic; goldens pin the numbers.

std::vector<core::Experiment> Fig3Experiments() {
  std::vector<core::Experiment> experiments;
  for (const char* codes : {"VVVV", "GGGG", "VRGQ", "VVQQ"}) {
    for (int nm = 1; nm <= 4; ++nm) {
      core::Experiment e;
      e.kind = core::ExperimentKind::kSingleVirtualWorker;
      e.model = core::ModelKind::kResNet152;
      e.vw_codes = codes;
      e.config.nm = nm;
      e.config.jitter_cv = 0.0;
      e.config.waves = 20;
      e.config.warmup_waves = 3;
      experiments.push_back(std::move(e));
    }
  }
  return experiments;
}

std::vector<core::Experiment> Fig4Experiments() {
  std::vector<core::Experiment> experiments;
  for (core::ModelKind model : {core::ModelKind::kResNet152, core::ModelKind::kVgg19}) {
    {
      core::Experiment e;
      e.name = std::string(core::ModelName(model)) + " Horovod";
      e.kind = core::ExperimentKind::kHorovod;
      e.model = model;
      experiments.push_back(std::move(e));
    }
    const struct {
      const char* label;
      cluster::AllocationPolicy allocation;
      wsp::PlacementPolicy placement;
    } kPolicies[] = {
        {"NP", cluster::AllocationPolicy::kNodePartition, wsp::PlacementPolicy::kRoundRobin},
        {"ED", cluster::AllocationPolicy::kEqualDistribution, wsp::PlacementPolicy::kRoundRobin},
        {"ED-local", cluster::AllocationPolicy::kEqualDistribution, wsp::PlacementPolicy::kLocal},
        {"HD", cluster::AllocationPolicy::kHybridDistribution, wsp::PlacementPolicy::kRoundRobin},
    };
    for (const auto& policy : kPolicies) {
      core::Experiment e;
      e.name = std::string(core::ModelName(model)) + " " + policy.label;
      e.kind = core::ExperimentKind::kFullCluster;
      e.model = model;
      e.config.allocation = policy.allocation;
      e.config.placement = policy.placement;
      e.config.sync = wsp::SyncPolicy::Wsp(0);
      e.config.jitter_cv = 0.05;
      e.config.waves = 20;
      experiments.push_back(std::move(e));
    }
  }
  return experiments;
}

std::vector<core::Experiment> Table4Experiments() {
  std::vector<core::Experiment> experiments;
  for (const char* nodes : {"V", "VR", "VRQ", "VRQG"}) {
    core::Experiment horovod;
    horovod.name = std::string("Horovod ") + nodes;
    horovod.kind = core::ExperimentKind::kHorovod;
    horovod.model = core::ModelKind::kResNet152;
    horovod.cluster_nodes = nodes;
    experiments.push_back(std::move(horovod));

    core::Experiment hetpipe;
    hetpipe.name = std::string("HetPipe ") + nodes;
    hetpipe.kind = core::ExperimentKind::kFullCluster;
    hetpipe.model = core::ModelKind::kResNet152;
    hetpipe.cluster_nodes = nodes;
    hetpipe.config.allocation = std::string(nodes).size() == 1
                                    ? cluster::AllocationPolicy::kNodePartition
                                    : cluster::AllocationPolicy::kEqualDistribution;
    hetpipe.config.placement = wsp::PlacementPolicy::kLocal;
    hetpipe.config.sync = wsp::SyncPolicy::Wsp(0);
    hetpipe.config.jitter_cv = 0.05;
    hetpipe.config.waves = 20;
    experiments.push_back(std::move(hetpipe));
  }
  return experiments;
}

std::vector<core::Experiment> GenericClusterExperiments() {
  // A non-paper cluster (mixed non-Table-1 classes, uneven node sizes, slower
  // links) pinned by golden so the ClusterSpec pipeline cannot drift either.
  const std::string spec =
      hw::ClusterSpec()
          .Named("golden-mix")
          .AddGpuClass("GoldBig", 8.5, 32.0, 'g')
          .AddGpuClass("GoldSmall", 1.4, 11.0)
          .AddNode("GoldBig", 2)
          .AddNode("GoldSmall", 3)
          .AddNode("V", 4)
          .IntraGbps(12.0)
          .InterGbits(25.0)
          .ToString();
  std::vector<core::Experiment> experiments;
  for (core::ModelKind model : {core::ModelKind::kResNet152, core::ModelKind::kVgg19}) {
    for (const int d : {0, 4}) {
      core::Experiment e;
      e.name = std::string(core::ModelName(model)) + " golden-mix D=" + std::to_string(d);
      e.kind = core::ExperimentKind::kFullCluster;
      e.model = model;
      e.cluster_spec = spec;
      e.cluster_label = "golden-mix";
      e.config = core::EdLocalConfig(d, /*jitter_cv=*/0.1);
      e.config.waves = 15;
      experiments.push_back(std::move(e));
    }
  }
  return experiments;
}

std::vector<core::Experiment> MixedNodeClusterExperiments() {
  // A cluster with a mixed-class node (golden-pinned so the new node grammar
  // and the per-class memory path cannot drift), plus one latency-knob
  // variant whose rows must differ via the knob alone.
  hw::ClusterSpec spec;
  spec.Named("golden-mixed-node")
      .AddGpuClass("GoldBig", 8.5, 32.0, 'g')
      .AddGpuClass("GoldSmall", 1.4, 11.0)
      .AddMixedNode({{"GoldBig", 2}, {"GoldSmall", 2}})
      .AddNode("GoldSmall", 4)
      .AddNode("V", 4)
      .InterGbits(25.0);
  hw::ClusterSpec slow = spec;
  slow.Named("golden-mixed-node-slow").InterInterceptS(5e-3);

  std::vector<core::Experiment> experiments;
  for (const hw::ClusterSpec& variant : {spec, slow}) {
    core::Experiment e;
    e.name = variant.name + " resnet152 D=0";
    e.kind = core::ExperimentKind::kFullCluster;
    e.model = core::ModelKind::kResNet152;
    e.cluster_spec = variant.ToString();
    e.cluster_label = variant.name;
    e.config = core::EdLocalConfig(/*d=*/0, /*jitter_cv=*/0.1);
    e.config.waves = 15;
    experiments.push_back(std::move(e));

    core::Experiment vw;
    vw.name = variant.name + " single-vw mixed-node";
    vw.kind = core::ExperimentKind::kSingleVirtualWorker;
    vw.model = core::ModelKind::kResNet152;
    vw.cluster_spec = variant.ToString();
    vw.cluster_label = variant.name;
    vw.vw_codes = "GoldBig*2@0,GoldSmall*2@0";  // the mixed node as one VW
    vw.config.nm = 3;
    vw.config.waves = 15;
    vw.config.warmup_waves = 3;
    experiments.push_back(std::move(vw));
  }
  return experiments;
}

std::vector<core::Experiment> TopologyExperiments() {
  // Rack-topology scenarios pinned by golden: the canonical mixed demo
  // cluster under rack-structured cross-rack bandwidth cliffs and one
  // degraded node pair (runner::TopologySweep), so the per-node-pair link
  // resolution cannot drift.
  runner::SpecSweepOptions options;
  options.model = core::ModelKind::kResNet152;
  options.jitter_cv = 0.1;
  options.waves = 15;
  std::vector<core::Experiment> experiments =
      runner::TopologySweep(runner::MixedDemoSpec("golden-topology"),
                            /*rack_sizes=*/{1, 2}, /*cross_rack_gbits=*/{10.0, 2.0},
                            /*degraded_pair_gbits=*/{2.0}, options);
  for (core::Experiment& e : experiments) {
    e.name = "golden-topology " + e.name;
  }
  return experiments;
}

TEST(GoldenTest, Fig3SingleVirtualWorkerRows) { CheckAgainstGolden("fig3", Fig3Experiments()); }

TEST(GoldenTest, Fig4PolicyRows) { CheckAgainstGolden("fig4", Fig4Experiments()); }

TEST(GoldenTest, Table4ScalingRows) { CheckAgainstGolden("table4", Table4Experiments()); }

TEST(GoldenTest, SharedContextsMatchASerialRunWithoutACache) {
  // Sweep threads share each (cluster, model, batch) context through the
  // sweep's one partition cache; the rows must be those of a serial run that
  // builds every context afresh and caches nothing.
  std::vector<core::Experiment> experiments = Fig4Experiments();
  for (core::Experiment& e : Table4Experiments()) {
    experiments.push_back(std::move(e));
  }
  std::string serial;
  std::set<std::tuple<std::string, core::ModelKind, int>> keys;
  for (const core::Experiment& e : experiments) {
    ASSERT_EQ(e.config.partition_cache, nullptr);
    serial += runner::RowToJson(runner::RowFor(e, core::RunExperiment(e))) + "\n";
    keys.emplace(e.cluster_nodes, e.model, e.config.batch_size);
  }

  runner::PartitionCache cache;
  std::ostringstream out;
  runner::JsonlSink sink(out);
  runner::SweepOptions options;
  options.threads = 4;
  options.cache = &cache;
  options.sink = &sink;
  runner::SweepRunner(options).Run(experiments);
  EXPECT_EQ(out.str(), serial);
  EXPECT_EQ(cache.contexts(), static_cast<int64_t>(keys.size()));
}

TEST(GoldenTest, GenericClusterRows) {
  CheckAgainstGolden("generic_cluster", GenericClusterExperiments());
}

TEST(GoldenTest, MixedNodeClusterRows) {
  CheckAgainstGolden("mixed_cluster", MixedNodeClusterExperiments());
}

TEST(GoldenTest, TopologySweepRows) {
  CheckAgainstGolden("topology_sweep", TopologyExperiments());
}

}  // namespace
}  // namespace hetpipe
