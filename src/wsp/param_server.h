#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hw/cluster.h"
#include "partition/partitioner.h"
#include "pipeline/virtual_worker.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "wsp/clock.h"
#include "wsp/sync_policy.h"

namespace hetpipe::wsp {

// Where the parameter-server shards live (§8.1, "Parameter Placement").
//  kRoundRobin — layers spread round-robin over all nodes (TensorFlow's
//                replica_device_setter default): most push/pull bytes cross
//                Infiniband.
//  kLocal      — each partition's layers served by the PS on the node that
//                runs that partition ("ED-local"): push/pull stays on PCIe.
enum class PlacementPolicy {
  kRoundRobin,
  kLocal,
};

// The shard rule of a placement: of `bytes` parameter bytes synchronized by
// a stage or a worker on one of `num_nodes` nodes, round-robin keeps 1/H on
// the own node's shard (`bytes / num_nodes`, PCIe) and sends the rest to the
// other nodes; local placement keeps everything local.
struct ShardSplit {
  uint64_t local = 0;
  uint64_t remote = 0;
};
ShardSplit SplitShards(uint64_t bytes, PlacementPolicy placement, int num_nodes);

// Modeled time for one virtual worker to push a wave's aggregated update to
// the parameter servers, and to pull the global weights back.
struct VwCommTimes {
  double push_s = 0.0;
  double pull_s = 0.0;
};

// Computes push/pull times for a virtual worker's partition: every stage
// moves its parameter bytes to/from the PS shards, local bytes over PCIe and
// remote bytes over the node NIC (Infiniband). Stage transfers on different
// nodes proceed in parallel; transfers sharing a node NIC serialize. On a
// rack topology (or with per-pair link overrides) a node's remote bytes ride
// its slowest resolved inter-node link — round-robin shards live on every
// other node, so the worst pair bounds the funnel; uniform fabrics are
// bit-identical to the shared-link model.
VwCommTimes ComputePsCommTimes(const partition::Partition& partition, const hw::Cluster& cluster,
                               PlacementPolicy placement);

// Inter-node parameter-synchronization bytes per *minibatch* for a virtual
// worker (the paper's 103 MB / 515 MB comparison in §8.3): every stage
// pushes its update and pulls fresh weights for the remote part of its
// shards once per wave, amortized over the wave's Nm minibatches; local
// placement moves nothing across nodes.
uint64_t PsCrossNodeBytesPerMinibatch(const partition::Partition& partition,
                                      PlacementPolicy placement, int num_nodes, int nm);

struct WspCoordinatorOptions {
  int num_vws = 1;
  int nm = 1;
  SyncPolicy policy = SyncPolicy::Wsp(0);
};

// The parameter server + WSP synchronization model (§5), driving the
// injection gates of all virtual workers in the DES:
//  * a VW finishing wave c pushes its aggregated update (push_s later it
//    arrives at the PS and advances the VW's local clock);
//  * the global clock advances when every VW has pushed wave c;
//  * a VW needing global wave w (per RequiredGlobalWave) pulls once w is
//    globally complete, paying pull_s, then resumes injection.
class WspCoordinator final : public pipeline::InjectionGate, public sim::EventTarget {
 public:
  WspCoordinator(sim::Simulator& simulator, const WspCoordinatorOptions& options,
                 std::vector<VwCommTimes> comm);

  // pipeline::InjectionGate:
  bool RequestInjection(int vw, int64_t p, sim::EventTarget* waiter) override;
  void OnWaveComplete(int vw, int64_t wave) override;

  int64_t global_wave() const { return global_wave_; }
  const VectorClock& clocks() const { return clocks_; }
  // Clock distance sampled at every push arrival.
  const sim::Accumulator& clock_distance() const { return clock_distance_; }
  // Observed staleness, in waves, sampled at every gated injection:
  // (wave of p) - 1 - pulled_wave. Feeds the convergence model.
  const sim::Accumulator& observed_lag_waves() const { return observed_lag_; }

 private:
  struct Waiter {
    int64_t required_wave = -1;
    sim::EventTarget* target = nullptr;
  };

  // sim::EventTarget: a push arriving at the parameter servers or a pull
  // completing, each with `a = vw, b = wave`.
  enum EventKind : uint32_t { kPushArrived, kPullComplete };
  void OnEvent(uint32_t kind, uint32_t a, int64_t wave) override;

  void MaybeAdvanceGlobal();
  void StartPullIfNeeded(int vw);

  sim::Simulator* simulator_;
  WspCoordinatorOptions options_;
  std::vector<VwCommTimes> comm_;

  VectorClock clocks_;                 // local clock = last wave whose push arrived
  int64_t global_wave_ = -1;           // last wave pushed by *all* VWs
  std::vector<int64_t> pulled_wave_;   // last global wave each VW has pulled
  std::vector<bool> pull_in_flight_;
  std::vector<std::optional<Waiter>> waiters_;

  sim::Accumulator clock_distance_;
  sim::Accumulator observed_lag_;
};

}  // namespace hetpipe::wsp
