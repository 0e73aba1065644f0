// Reproduces Fig. 4 (and prints Table 3): whole-cluster training throughput
// of Horovod vs HetPipe under the NP / ED / ED-local / HD allocation
// policies, D=0, on ResNet-152 and VGG-19.
//
// Flags: --threads=N --out=PATH --json[=PATH] --csv[=PATH]
#include <cstdio>
#include <string>

#include "cluster/allocator.h"
#include "core/experiment.h"
#include "runner/cli.h"

int main(int argc, char** argv) {
  using namespace hetpipe;
  runner::BenchArgs args = runner::BenchArgs::Parse(argc, argv);
  runner::SweepRunner sweep(args.sweep_options());
  const hw::Cluster cluster = hw::Cluster::Paper();

  std::printf("Table 3 — resource allocation for the three policies:\n");
  for (auto policy :
       {cluster::AllocationPolicy::kNodePartition, cluster::AllocationPolicy::kEqualDistribution,
        cluster::AllocationPolicy::kHybridDistribution}) {
    const cluster::Allocation alloc = cluster::Allocate(cluster, policy);
    std::printf("  %s\n", alloc.ToString(cluster).c_str());
  }

  constexpr double kJitter = 0.1;
  for (const bool vgg : {false, true}) {
    std::printf("\nFig. 4%s — %s, D=0 (bar = images/sec; number = Nm):\n", vgg ? "b" : "a",
                vgg ? "VGG-19" : "ResNet-152");
    const auto rows = core::RunFig4(vgg ? core::ModelKind::kVgg19 : core::ModelKind::kResNet152,
                                    kJitter, &sweep);
    for (const auto& row : rows) {
      if (!row.feasible) {
        std::printf("  %-9s  infeasible\n", row.label.c_str());
        continue;
      }
      std::printf("  %-9s %7.0f img/s  (%d GPUs%s%s)\n", row.label.c_str(),
                  row.throughput_img_s, row.gpus_used, row.nm > 0 ? ", Nm=" : "",
                  row.nm > 0 ? std::to_string(row.nm).c_str() : "");
    }
  }
  std::printf("\nPaper shape: ED-local is the best HetPipe policy on both models;\n"
              "for VGG-19 it beats Horovod ~1.8x; NP is depressed by the straggler\n"
              "and memory bound of the whimpy GGGG virtual worker.\n");
  return 0;
}
