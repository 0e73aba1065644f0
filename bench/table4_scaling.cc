// Reproduces Table 4: throughput of Horovod vs HetPipe (ED-local) as whimpy
// GPUs are added to the cluster: 4[V] -> 8[VR] -> 12[VRQ] -> 16[VRQG].
//
// Flags: --threads=N --out=PATH --json[=PATH] --csv[=PATH]
#include <cstdio>

#include "core/experiment.h"
#include "runner/cli.h"

int main(int argc, char** argv) {
  using namespace hetpipe;
  runner::BenchArgs args = runner::BenchArgs::Parse(argc, argv);
  runner::SweepRunner sweep(args.sweep_options());

  std::printf("Table 4 — performance improvement of adding whimpy GPUs\n");
  std::printf("(parenthesized: total concurrent minibatches across virtual workers;\n");
  std::printf(" X: model does not fit some GPU so Horovod cannot run)\n");

  constexpr double kJitter = 0.1;
  for (const bool vgg : {true, false}) {
    std::printf("\n%s:\n  %-18s %12s %16s\n", vgg ? "VGG-19" : "ResNet-152", "cluster",
                "Horovod", "HetPipe");
    const auto cells = core::RunTable4(vgg ? core::ModelKind::kVgg19 : core::ModelKind::kResNet152,
                                       kJitter, &sweep);
    double first_hetpipe = 0.0;
    double last_hetpipe = 0.0;
    for (const auto& cell : cells) {
      std::printf("  %-18s", cell.cluster_label.c_str());
      if (cell.horovod_feasible) {
        std::printf(" %8.0f img/s", cell.horovod_img_s);
      } else {
        std::printf(" %13s", "X");
      }
      std::printf(" %8.0f (%d)\n", cell.hetpipe_img_s, cell.total_concurrent_minibatches);
      if (first_hetpipe == 0.0) {
        first_hetpipe = cell.hetpipe_img_s;
      }
      last_hetpipe = cell.hetpipe_img_s;
    }
    std::printf("  HetPipe speedup from added whimpy GPUs: %.2fx (paper: up to 2.3x)\n",
                last_hetpipe / first_hetpipe);
  }
  return 0;
}
