// Sweeps HetPipe over generic heterogeneous clusters — the scenario axes the
// paper's fixed 4 x 4 testbed (Table 4) could not explore:
//   scale:      growing node prefixes of a mixed strong/whimpy cluster
//               (Table 4-style Horovod-vs-HetPipe rows per prefix)
//   straggler:  task-time jitter x clock-distance threshold D
//   bandwidth:  inter-node link rate from 10 to 100 Gbit/s
// All three grids come from the spec-driven runner::SpecSweep helpers; this
// binary only picks the specs and prints the rows.
//
// Flags: --threads=N --out=PATH --json[=PATH] --csv[=PATH] --cache-file=PATH
//        --spec-file=PATH   run the straggler scenario on your own
//                           hw::ClusterSpec text file instead of the built-in
//                           scenarios (see README for the format)
//
// With --cache-file, a repeated run loads every partition from disk and skips
// the GPU-order search entirely; the emitted rows are identical either way.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "hw/cluster_spec.h"
#include "runner/cli.h"
#include "runner/spec_sweep.h"

namespace {

using namespace hetpipe;

// Fictional but realistically-shaped GPU classes beyond Table 1: a strong
// datacenter card and a whimpy inference card (sustained ResNet-class TFLOPS,
// memory in GiB).
hw::ClusterSpec& DeclareClasses(hw::ClusterSpec& spec) {
  spec.AddGpuClass("BigCard", 9.2, 40.0, 'a').AddGpuClass("SmallCard", 2.6, 16.0, 't');
  return spec;
}

// The fixed mixed cluster of the straggler and bandwidth scenarios: one node
// mixing strong and whimpy cards (the mixed-class node the spec grammar now
// supports), one whimpy node, and one paper V-node — the canonical
// runner::MixedDemoSpec shared with latency_sweep and partitioner_speed.
hw::ClusterSpec MixedSpec() { return runner::MixedDemoSpec("mixed-3node"); }

// The scale scenario's 6-node cluster: alternating strong and whimpy nodes,
// swept prefix by prefix (1 node, 2 nodes, ..., 6 nodes).
hw::ClusterSpec ScaleSpec() {
  hw::ClusterSpec spec;
  spec.Named("scale");
  DeclareClasses(spec);
  for (int n = 0; n < 6; ++n) {
    if (n % 2 == 0) {
      spec.AddNode("BigCard", 2);
    } else {
      spec.AddNode("SmallCard", 4);
    }
  }
  return spec;
}

void PrintRows(const std::vector<core::Experiment>& experiments,
               const std::vector<core::ExperimentResult>& results) {
  for (size_t i = 0; i < results.size(); ++i) {
    const core::ExperimentResult& r = results[i];
    if (!r.feasible) {
      std::printf("  %-40s %12s\n", r.name.c_str(), "infeasible");
      continue;
    }
    if (experiments[i].kind == core::ExperimentKind::kHorovod) {
      std::printf("  %-40s %8.1f img/s  %zu workers\n", r.name.c_str(), r.throughput_img_s,
                  r.horovod.worker_gpus.size());
      continue;
    }
    std::printf("  %-40s %8.1f img/s  Nm=%d  %zu VWs\n", r.name.c_str(), r.throughput_img_s,
                r.report.nm, r.report.vws.size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  runner::BenchArgs args = runner::BenchArgs::Parse(argc, argv);

  std::string spec_file;
  for (const std::string& arg : args.rest) {
    const std::string prefix = "--spec-file=";
    if (arg.rfind(prefix, 0) == 0) {
      spec_file = arg.substr(prefix.size());
      if (spec_file.empty()) {
        std::fprintf(stderr, "error: --spec-file needs a path\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  runner::SweepRunner sweep(args.sweep_options());

  if (!spec_file.empty()) {
    std::ifstream in(spec_file);
    if (!in.is_open()) {
      std::fprintf(stderr, "error: cannot read spec file %s\n", spec_file.c_str());
      return 2;
    }
    std::stringstream text;
    text << in.rdbuf();
    hw::ClusterSpec spec;
    try {
      spec = hw::ClusterSpec::Parse(text.str());
    } catch (const std::invalid_argument& bad_spec) {
      std::fprintf(stderr, "error: %s: %s\n", spec_file.c_str(), bad_spec.what());
      return 2;
    }
    // Anonymous spec files are labeled by their path so concatenated rows
    // from several files stay distinguishable.
    const std::string label = spec.name.empty() ? spec_file : spec.name;
    std::printf("cluster sweep — user spec %s: %s\n", label.c_str(),
                spec.Build().ToString().c_str());
    std::vector<core::Experiment> experiments;
    for (core::ModelKind model : {core::ModelKind::kResNet152, core::ModelKind::kVgg19}) {
      runner::SpecSweepOptions options;
      options.model = model;
      for (core::Experiment& e :
           runner::StragglerSweep(spec, {0.1}, {0, 4}, options)) {
        e.name = std::string(core::ModelName(model)) + " " + e.name;
        e.cluster_label = label;
        experiments.push_back(std::move(e));
      }
    }
    PrintRows(experiments, sweep.Run(experiments));
  } else {
    std::printf("cluster sweep — generic heterogeneous scenarios beyond Table 4\n");

    std::vector<core::Experiment> scale;
    for (core::ModelKind model : {core::ModelKind::kResNet152, core::ModelKind::kVgg19}) {
      runner::SpecSweepOptions options;
      options.model = model;
      options.jitter_cv = 0.05;
      for (core::Experiment& e : runner::ScalingSweep(ScaleSpec(), options)) {
        scale.push_back(std::move(e));
      }
    }

    runner::SpecSweepOptions resnet;
    resnet.model = core::ModelKind::kResNet152;
    runner::SpecSweepOptions vgg;
    vgg.model = core::ModelKind::kVgg19;
    vgg.jitter_cv = 0.05;

    const struct {
      const char* title;
      std::vector<core::Experiment> experiments;
    } scenarios[] = {
        {"scale (alternating strong/whimpy node prefixes)", std::move(scale)},
        {"stragglers (jitter x D, mixed 3-node cluster)",
         runner::StragglerSweep(MixedSpec(), {0.0, 0.1, 0.3}, {0, 4, 32}, resnet)},
        {"inter-node bandwidth (mixed 3-node cluster)",
         runner::BandwidthSweep(MixedSpec(), {10.0, 25.0, 56.0, 100.0}, vgg)},
    };
    for (const auto& scenario : scenarios) {
      std::printf("\n%s:\n", scenario.title);
      PrintRows(scenario.experiments, sweep.Run(scenario.experiments));
    }
  }

  std::fprintf(stderr, "partition cache: %lld hits, %lld misses\n",
               static_cast<long long>(sweep.cache().hits()),
               static_cast<long long>(sweep.cache().misses()));
  return 0;
}
