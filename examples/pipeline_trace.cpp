// Visualize the pipelined execution of a virtual worker as a Fig.-1-style
// Gantt chart, and export a Chrome/Perfetto trace for interactive viewing.
//
// Usage: pipeline_trace [nm] [out.json]
#include <cstdio>
#include <fstream>

#include "hw/cluster.h"
#include "runner/cli.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "oracles/trace_check.h"
#include "partition/partitioner.h"
#include "pipeline/virtual_worker.h"
#include "sim/simulator.h"
#include "sim/trace.h"

int main(int argc, char** argv) {
  using namespace hetpipe;
  int nm = 4;
  if (argc > 1 && !runner::ParseIntFlag(argv[1], &nm)) {
    std::fprintf(stderr, "nm must be an integer, got \"%s\"\n", argv[1]);
    return 2;
  }

  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = nm;
  const partition::Partition partition = partitioner.SolveScalable({0, 1, 2, 3}, options);
  if (!partition.feasible) {
    std::printf("no feasible partition at Nm=%d\n", nm);
    return 1;
  }

  sim::Tracer tracer;
  sim::Simulator simulator;
  pipeline::OpenGate gate;
  pipeline::VirtualWorkerOptions vopt;
  vopt.nm = nm;
  vopt.max_minibatches = 5 * nm;
  vopt.tracer = &tracer;
  pipeline::VirtualWorkerSim vw(0, simulator, partition, gate, vopt);
  vw.Start();
  simulator.Run();

  std::printf("Pipelined execution of %s on a VVVV virtual worker, Nm=%d\n", graph.name().c_str(),
              nm);
  std::printf("(F = forward, B = backward, X = fused FW+BW at the last stage,\n"
              " C = receiving activations/gradients, . = idle — compare with Fig. 1)\n\n");
  std::printf("%s\n", tracer
                          .AsciiGantt(0.0, simulator.now(), 110,
                                      {"GPU1", "GPU2", "GPU3", "GPU4"})
                          .c_str());

  const auto check = oracles::ValidatePipelineTrace(tracer.events(), 4, nm);
  std::printf("scheduling-rule check (conditions 1-3 of Sec. 4, dataflow, staleness window): "
              "%s\n",
              check.ok ? "all hold" : check.violations.front().c_str());

  if (argc > 2) {
    std::ofstream file(argv[2]);
    tracer.ExportChromeJson(file);
    std::printf("Chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n",
                argv[2]);
  }
  return 0;
}
