#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/convergence.h"
#include "core/hetpipe.h"
#include "dp/decentralized.h"
#include "dp/horovod.h"
#include "dp/ps_baselines.h"
#include "hw/cluster.h"

namespace hetpipe::runner {
class SweepRunner;
}  // namespace hetpipe::runner

namespace hetpipe::core {

// GPU selection for any cluster. A selector is either a code string, one
// unused GPU per code letter in GPU-id order (e.g. "VVQQ" on the paper
// cluster returns two TITAN V GPUs on node 0 and two Quadro P4000s on node 3,
// the Fig. 3 virtual-worker configurations), or a comma-separated list of
// terms
//   <class-name-or-code>[*<count>][@<node>]
// e.g. "A100*2,T4" or "A100*2@0,A100*2@1". Each term picks `count` unused
// GPUs of that class (from node `node` when given), in GPU-id order. Class
// names and code letters resolve among the cluster's own classes only, and a
// name wins over code letters. Throws std::invalid_argument when the cluster
// cannot satisfy the selector.
std::vector<int> PickGpus(const hw::Cluster& cluster, const std::string& selector);

// ---- One experiment = one independently runnable configuration. ----
// Experiments are cheap value types described by names and codes (not live
// cluster/graph objects) so the sweep runner can copy them across threads and
// the result sink can echo them verbatim into JSON/CSV rows.

// How kPartitionOnly experiments split the model over the virtual worker.
enum class PartitionStrategy {
  kMinMaxDp,       // the paper's memory-constrained min-max partitioner
  kEqualLayers,    // naive ablation baseline: equal layer counts
  kParamBalanced,  // naive ablation baseline: equal parameter bytes
};
const char* StrategyName(PartitionStrategy strategy);

enum class ExperimentKind {
  kFullCluster,         // HetPipe::Run: allocate VWs, partition, simulate WSP
  kSingleVirtualWorker, // one VW picked by codes, fixed Nm, no global gate
  kPartitionOnly,       // solve/build one VW's partition; optionally simulate
  kHorovod,             // AllReduce BSP data parallelism
  kPsDataParallel,      // parameter-server BSP/SSP/ASP data parallelism
  kAdPsgd,              // decentralized gossip data parallelism
};
const char* KindName(ExperimentKind kind);

struct Experiment {
  std::string name;  // row label, defaults to an auto-generated description
  ExperimentKind kind = ExperimentKind::kFullCluster;
  ModelKind model = ModelKind::kResNet152;
  // Paper-testbed node codes handed to hw::Cluster::PaperSubset ("VRGQ" is
  // the full 16-GPU cluster of Fig. 2). Ignored when cluster_spec is set.
  std::string cluster_nodes = "VRGQ";
  // hw::ClusterSpec text (see cluster_spec.h) describing an arbitrary
  // cluster; when set it replaces cluster_nodes and the experiment runs on
  // the spec-built cluster. Kept as text so Experiment stays a cheap value
  // type the sweep runner can copy across threads and processes.
  std::string cluster_spec;
  // Row label for the cluster; empty means cluster_nodes (or the spec name).
  std::string cluster_label;
  // GPU selector for the virtual worker of the single-VW / partition-only
  // kinds: a code string or a PickGpus selector ("A100*2,T4").
  std::string vw_codes;
  PartitionStrategy strategy = PartitionStrategy::kMinMaxDp;
  // kPartitionOnly: also run the open-gate pipeline simulation on the result.
  bool simulate = true;
  // Policies, sync, Nm, jitter, waves, memory parameters (every kind,
  // data-parallel baselines included), and the (optional) shared partition
  // cache / thread pool all travel inside the config.
  HetPipeConfig config;
  // kPsDataParallel flavor: sync mode and SSP staleness.
  dp::PsDpOptions ps;

  // Row label for the cluster: never throws, even for spec clusters.
  std::string ClusterLabel() const;

  std::string Describe() const;
};

struct ExperimentResult {
  std::string name;  // echo of Experiment::name / Describe()
  bool feasible = false;
  double throughput_img_s = 0.0;

  HetPipeReport report;             // kFullCluster / kSingleVirtualWorker
  partition::Partition partition;   // kPartitionOnly (also vws[0] for single-VW)
  dp::HorovodResult horovod;        // kHorovod
  dp::PsDpResult ps;                // kPsDataParallel
  dp::DecentralizedResult adpsgd;   // kAdPsgd
  // Owner of the declared GPU classes the stages in `report` and `partition`
  // name, so their GpuTypes stay valid after the experiment's context is
  // gone (null for clusters built from paper node codes).
  std::shared_ptr<const hw::GpuClassTable> gpu_classes;
};

// Runs one experiment synchronously on the calling thread. Deterministic:
// the same Experiment always produces the same result, with or without a
// partition cache in its config. With a cache, the experiment takes its
// core::Context from the cache's memo, so a sweep builds one per distinct
// (cluster, model, batch); without one it builds its own. This is the unit
// of work SweepRunner schedules.
ExperimentResult RunExperiment(const Experiment& experiment);

// ---- Fig. 3: single-virtual-worker throughput and utilization vs Nm. ----
struct Fig3Point {
  int nm = 0;
  bool feasible = false;
  double throughput_img_s = 0.0;
  double normalized = 0.0;  // vs the Nm=1 throughput of the same config
  double max_utilization = 0.0;
};
// One point per Nm in [1, nm_max] for the virtual worker `codes` picks from
// the paper testbed.
std::vector<Fig3Point> RunFig3Config(ModelKind model, const std::string& codes, int nm_max,
                                     runner::SweepRunner* runner = nullptr);

// ---- Fig. 4: whole-cluster throughput under the allocation policies. ----
struct Fig4Row {
  std::string label;  // Horovod / NP / ED / ED-local / HD
  bool feasible = false;
  int nm = 0;
  int gpus_used = 0;
  double throughput_img_s = 0.0;
};
// Horovod and the four policies on the paper testbed.
std::vector<Fig4Row> RunFig4(ModelKind model, double jitter_cv,
                             runner::SweepRunner* runner = nullptr);

// ---- Table 4: adding whimpy GPUs (4[V], 8[VR], 12[VRQ], 16[VRQG]). ----
struct Table4Cell {
  std::string cluster_label;
  int num_gpus = 0;
  double horovod_img_s = 0.0;
  bool horovod_feasible = false;
  double hetpipe_img_s = 0.0;
  int total_concurrent_minibatches = 0;  // N_vw * Nm, shown in parentheses
};
std::vector<Table4Cell> RunTable4(ModelKind model, double jitter_cv,
                                  runner::SweepRunner* runner = nullptr);

// ---- Figs. 5/6: accuracy-vs-time convergence curves. ----
struct ConvergenceSeries {
  std::string label;
  double throughput_img_s = 0.0;
  double avg_missing_updates = 0.0;
  double hours_to_target = 0.0;
  sim::TimeSeries curve;
};

// Fig. 5: ResNet-152 — Horovod (12 GPUs), HetPipe (12 GPUs), HetPipe (16
// GPUs), all with D=0, ED-local.
std::vector<ConvergenceSeries> RunFig5(double jitter_cv, double target_accuracy,
                                       runner::SweepRunner* runner = nullptr);

// Fig. 6: VGG-19 — Horovod and HetPipe with D in {0, 4, 32}, ED-local.
std::vector<ConvergenceSeries> RunFig6(double jitter_cv, double target_accuracy,
                                       runner::SweepRunner* runner = nullptr);

// ---- §8.4: synchronization overhead vs D. ----
struct StalenessWaitRow {
  int d = 0;
  double throughput_img_s = 0.0;
  double total_wait_s = 0.0;
  double idle_fraction_of_wait = 0.0;
  double avg_clock_distance = 0.0;
  double avg_global_lag_waves = 0.0;
};
// ED-local on the paper testbed at each D in `d_values`.
std::vector<StalenessWaitRow> RunStalenessWaitStudy(ModelKind model,
                                                    const std::vector<int>& d_values,
                                                    double jitter_cv,
                                                    runner::SweepRunner* runner = nullptr);

// The ED-local configuration shared by the convergence and wait studies
// (correlated slowdowns accompany the iid jitter: they are what the
// clock-distance threshold D absorbs).
HetPipeConfig EdLocalConfig(int d, double jitter_cv);

}  // namespace hetpipe::core
