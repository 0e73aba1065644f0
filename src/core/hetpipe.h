#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/context.h"
#include "hw/cluster.h"
#include "model/model_graph.h"
#include "partition/partitioner.h"
#include "pipeline/virtual_worker.h"
#include "wsp/param_server.h"

namespace hetpipe::core {

// Steady-state throughput (images/s) of a minibatch completion-time series,
// excluding the first `warmup` completions while the pipeline fills. The one
// measurement convention shared by HetPipe's report and the partition-only
// simulations.
double SteadyStateThroughput(const std::vector<sim::SimTime>& completion_times, int64_t warmup,
                             int batch_size);

// Per-virtual-worker results of a run.
struct VwReport {
  std::vector<int> gpu_ids;
  partition::Partition partition;
  int max_nm = 0;                 // Maxm: memory-feasibility bound (§4)
  double throughput_img_s = 0.0;  // steady state, warmup excluded
  double max_stage_utilization = 0.0;
  double wait_s = 0.0;            // blocked on the global staleness gate
  double idle_during_wait_s = 0.0;
};

// Simulates one virtual worker over `partition` on a pipeline::OpenGate (no
// global staleness gate): `nm` minibatches in flight for config.waves waves,
// with config's jitter and seed. The Fig. 3 and partition-only experiments.
VwReport SimulateOpenGate(const partition::Partition& partition, int nm,
                          const HetPipeConfig& config);

// Results of a full HetPipe run.
struct HetPipeReport {
  bool feasible = false;
  std::string infeasible_reason;

  int nm = 0;             // common Nm used by every virtual worker
  int64_t s_local = 0;    // Nm - 1
  int64_t s_global = 0;   // (D+1)(s_local+1) + s_local - 1

  double throughput_img_s = 0.0;  // aggregate over virtual workers
  std::vector<VwReport> vws;

  // Synchronization behaviour (§8.4).
  double total_wait_s = 0.0;
  double idle_fraction_of_wait = 0.0;  // "actual idle is only 18% of waiting"
  double avg_clock_distance = 0.0;
  double avg_global_lag_waves = 0.0;  // observed staleness, feeds convergence

  // Average missing updates (in minibatches) seen by an injected minibatch:
  // s_local locally + observed cross-VW lag. Input to the convergence model.
  double AvgMissingUpdates() const;

  std::string Summary() const;
};

// HetPipe: allocates GPUs to virtual workers, partitions the model for each,
// and runs the integrated PMP+DP discrete-event simulation under WSP.
class HetPipe {
 public:
  // Over copies of a caller's cluster and graph.
  HetPipe(const hw::Cluster& cluster, const model::ModelGraph& graph, HetPipeConfig config);
  // Over a built context. Throws std::invalid_argument unless the context
  // was profiled at config.batch_size.
  HetPipe(std::shared_ptr<const Context> context, HetPipeConfig config);

  // End-to-end run (Fig. 4 / Table 4 style experiments).
  HetPipeReport Run() const;

  const HetPipeConfig& config() const { return config_; }

 private:
  std::shared_ptr<const Context> context_;
  HetPipeConfig config_;
};

}  // namespace hetpipe::core
