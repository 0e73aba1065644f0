// Reproduces the §8.4 synchronization-overhead analysis: as D grows, the
// time a virtual worker waits for the updated global weights shrinks, and
// the actual GPU idle time is only a fraction of the waiting time because
// the pipeline keeps processing already-injected minibatches.
// Paper: waiting at D=4 is 62% of waiting at D=0; idle is 18% of waiting.
//
// Flags: --threads=N --out=PATH --json[=PATH] --csv[=PATH]
#include <cstdio>

#include "core/experiment.h"
#include "runner/cli.h"

int main(int argc, char** argv) {
  using namespace hetpipe;
  runner::BenchArgs args = runner::BenchArgs::Parse(argc, argv);
  runner::SweepRunner sweep(args.sweep_options());

  const auto rows = core::RunStalenessWaitStudy(core::ModelKind::kVgg19, {0, 1, 4, 32},
                                                /*jitter_cv=*/0.15, &sweep);

  std::printf("Sec 8.4 — synchronization overhead vs clock-distance threshold D\n");
  std::printf("(VGG-19, ED-local, 4 virtual workers, task jitter cv=0.15)\n\n");
  std::printf("%4s %12s %12s %14s %12s %10s\n", "D", "img/s", "wait (s)", "idle/wait",
              "clock dist", "lag (waves)");
  double wait_d0 = 0.0;
  for (const auto& row : rows) {
    if (row.d == 0) {
      wait_d0 = row.total_wait_s;
    }
    std::printf("%4d %12.0f %12.2f %13.0f%% %12.2f %10.2f\n", row.d, row.throughput_img_s,
                row.total_wait_s, 100.0 * row.idle_fraction_of_wait, row.avg_clock_distance,
                row.avg_global_lag_waves);
  }
  for (const auto& row : rows) {
    if (row.d == 4 && wait_d0 > 0.0) {
      std::printf("\nwaiting time at D=4 is %.0f%% of D=0 (paper: 62%%)\n",
                  100.0 * row.total_wait_s / wait_d0);
    }
  }
  return 0;
}
