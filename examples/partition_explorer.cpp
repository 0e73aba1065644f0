// Inspect how the memory-constrained min-max partitioner splits a model over
// a (possibly heterogeneous) virtual worker, and how the split shifts as Nm
// grows and memory pressure mounts. The Nm sweep runs on the sweep runner,
// so the solves are cached, pruned, and order-searched in parallel.
//
// Usage: partition_explorer [gpu-codes] [model] [--threads=N] [--json] [--csv]
//   gpu-codes  one letter per GPU in the virtual worker (default "VRGQ")
//   model      resnet152 | vgg19 | bert-large (default resnet152)
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "runner/cli.h"

namespace {

int Run(int argc, char** argv) {
  using namespace hetpipe;
  runner::BenchArgs args = runner::BenchArgs::Parse(argc, argv);
  const std::string codes = !args.rest.empty() ? args.rest[0] : "VRGQ";
  const core::ModelKind kind =
      core::ParseModelKind(args.rest.size() > 1 ? args.rest[1] : "resnet152");
  const model::ModelGraph graph = core::BuildModel(kind);

  const std::vector<int> nms = {1, 3, 5, 7};
  std::vector<core::Experiment> experiments;
  for (int nm : nms) {
    core::Experiment e;
    e.kind = core::ExperimentKind::kPartitionOnly;
    e.model = kind;
    e.vw_codes = codes;
    e.config.nm = nm;
    e.simulate = false;
    experiments.push_back(std::move(e));
  }
  runner::SweepRunner sweep(args.sweep_options());
  const auto results = sweep.Run(experiments);

  std::printf("%s over a %s virtual worker (batch 32)\n\n", graph.Summary().c_str(),
              codes.c_str());

  for (size_t i = 0; i < results.size(); ++i) {
    const partition::Partition& partition = results[i].partition;
    std::printf("Nm=%d: ", nms[i]);
    if (!partition.feasible) {
      std::printf("infeasible (some stage exceeds its GPU memory)\n");
      continue;
    }
    std::printf("bottleneck %.1f ms, round trip %.1f ms\n", partition.bottleneck_time * 1e3,
                partition.sum_time * 1e3);
    for (int q = 0; q < partition.num_stages(); ++q) {
      const partition::StageAssignment& st = partition.stages[static_cast<size_t>(q)];
      std::printf("    P%d on %c: layers %-9s..%-9s compute %6.1f ms, comm-in %5.1f ms, "
                  "mem %5.2f / %.0f GiB\n",
                  q + 1, hw::CodeOf(st.gpu_type), graph.layer(st.first_layer).name.c_str(),
                  graph.layer(st.last_layer).name.c_str(),
                  (st.fwd_compute_s + st.bwd_compute_s) * 1e3,
                  (st.fwd_comm_in_s + st.bwd_comm_in_s) * 1e3,
                  static_cast<double>(st.memory_bytes) / (1ULL << 30),
                  static_cast<double>(st.memory_cap) / (1ULL << 30));
    }
  }
  std::printf("\nNote how rising Nm inflates the early stages' activation stash, forcing\n"
              "the partitioner to move layers toward the back of the pipeline.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "error: %s\nusage: partition_explorer [gpu-codes] [model] (gpu-codes over "
                 "V/R/G/Q, at most 4 of each; model resnet152, vgg19 or bert-large)\n",
                 e.what());
    return 1;
  }
}
