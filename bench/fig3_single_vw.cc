// Reproduces Fig. 3: normalized throughput and maximum per-stage GPU
// utilization of a single virtual worker as Nm varies, for the seven GPU
// configurations of Table 3, on ResNet-152 and VGG-19.
//
// Flags: --threads=N --out=PATH --json[=PATH] --csv[=PATH]
#include <cstdio>

#include "core/experiment.h"
#include "runner/cli.h"

namespace {

void RunModel(hetpipe::core::ModelKind model, const char* title,
              hetpipe::runner::SweepRunner& runner) {
  constexpr int kNmMax = 7;
  const char* configs[] = {"VVVV", "RRRR", "GGGG", "QQQQ", "VRGQ", "VVQQ", "RRGG"};

  std::printf("\n--- %s (batch 32) ---\n", title);
  std::printf("%-6s %-10s", "config", "Nm=1 img/s");
  for (int nm = 1; nm <= kNmMax; ++nm) {
    std::printf("  Nm=%d", nm);
  }
  std::printf("   | max GPU util at each Nm\n");

  for (const char* codes : configs) {
    const auto points = hetpipe::core::RunFig3Config(model, codes, kNmMax, &runner);
    std::printf("%-6s %-10.0f", codes, points[0].throughput_img_s);
    for (const auto& p : points) {
      if (p.feasible) {
        std::printf("  %4.2f", p.normalized);
      } else {
        std::printf("     -");
      }
    }
    std::printf("   |");
    for (const auto& p : points) {
      if (p.feasible) {
        std::printf(" %3.0f%%", 100.0 * p.max_utilization);
      } else {
        std::printf("    -");
      }
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  hetpipe::runner::BenchArgs args = hetpipe::runner::BenchArgs::Parse(argc, argv);
  hetpipe::runner::SweepRunner runner(args.sweep_options());

  std::printf("Fig. 3 — single virtual worker: normalized throughput vs Nm\n");
  std::printf("(normalized to the same configuration's Nm=1 throughput;\n");
  std::printf(" '-' marks Nm values whose partition exceeds GPU memory)\n");
  RunModel(hetpipe::core::ModelKind::kResNet152, "ResNet-152", runner);
  RunModel(hetpipe::core::ModelKind::kVgg19, "VGG-19", runner);
  return 0;
}
