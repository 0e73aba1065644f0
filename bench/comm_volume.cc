// Reproduces the §8.3 cross-node data-transfer accounting: VGG-19 over
// Horovod moves ~515 MB across nodes per iteration vs ~103 MB per minibatch
// with ED-local; ResNet-152's ED-local traffic (~298 MB) exceeds Horovod's
// (~211 MB) because of large inter-stage activations. The partition solves
// run through the sweep runner (and its cache).
//
// Flags: --threads=N --out=PATH --json[=PATH] --csv[=PATH]
#include <cstdio>
#include <vector>

#include "core/experiment.h"
#include "dp/horovod.h"
#include "dp/placement.h"
#include "runner/cli.h"
#include "wsp/param_server.h"

int main(int argc, char** argv) {
  using namespace hetpipe;
  runner::BenchArgs args = runner::BenchArgs::Parse(argc, argv);
  runner::SweepRunner sweep(args.sweep_options());
  const hw::Cluster cluster = hw::Cluster::Paper();

  std::vector<core::Experiment> experiments;
  for (const bool vgg : {true, false}) {
    core::Experiment e;
    e.kind = core::ExperimentKind::kPartitionOnly;
    e.model = vgg ? core::ModelKind::kVgg19 : core::ModelKind::kResNet152;
    e.vw_codes = "VRGQ";
    e.config.nm = vgg ? 3 : 4;
    e.simulate = false;  // only the split is needed for the traffic accounting
    experiments.push_back(std::move(e));
  }
  const auto results = sweep.Run(experiments);

  std::printf("Sec 8.3 — cross-node traffic per minibatch (MB)\n\n");
  std::printf("%-12s %14s %18s %18s %18s\n", "model", "Horovod", "ED-local params",
              "ED-local acts", "ED default params");
  for (size_t i = 0; i < experiments.size(); ++i) {
    const core::Experiment& e = experiments[i];
    const partition::Partition& partition = results[i].partition;
    const model::ModelGraph graph = core::BuildModel(e.model);
    const model::ModelProfile profile(graph, e.config.batch_size);

    const double mb = 1.0 / (1 << 20);
    // Horovod's ring spans the GPUs that hold the whole model (12 of 16 for
    // ResNet-152, §8.3).
    const int horovod_workers =
        static_cast<int>(dp::SimulateHorovod(cluster, profile).worker_gpus.size());
    const double horovod =
        static_cast<double>(dp::HorovodCrossNodeBytes(graph.total_param_bytes(), horovod_workers)) *
        mb;
    const double local_params = static_cast<double>(wsp::PsCrossNodeBytesPerMinibatch(
                                    partition, wsp::PlacementPolicy::kLocal, cluster.num_nodes(),
                                    e.config.nm)) *
                                mb;
    const dp::ActivationTraffic traffic = dp::ActivationTrafficByTier(partition, profile, cluster);
    const double acts =
        static_cast<double>(traffic.same_rack_bytes + traffic.cross_rack_bytes) * mb;
    const double rr_params = static_cast<double>(wsp::PsCrossNodeBytesPerMinibatch(
                                 partition, wsp::PlacementPolicy::kRoundRobin,
                                 cluster.num_nodes(), e.config.nm)) *
                             mb;
    std::printf("%-12s %14.0f %18.0f %18.0f %18.0f\n", graph.name().c_str(), horovod,
                local_params, acts, rr_params);
  }
  std::printf("\n(paper: VGG-19 Horovod ~515 MB vs ED-local ~103 MB;\n"
              " ResNet-152 ED-local ~298 MB vs Horovod ~211 MB — activations dominate)\n");
  return 0;
}
