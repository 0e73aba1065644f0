#include "wsp/param_server.h"

#include <algorithm>
#include <map>

namespace hetpipe::wsp {

ShardSplit SplitShards(uint64_t bytes, PlacementPolicy placement, int num_nodes) {
  if (placement == PlacementPolicy::kLocal) {
    return {bytes, 0};
  }
  const uint64_t local = bytes / static_cast<uint64_t>(num_nodes);
  return {local, bytes - local};
}

VwCommTimes ComputePsCommTimes(const partition::Partition& partition, const hw::Cluster& cluster,
                               PlacementPolicy placement) {
  const int num_nodes = cluster.num_nodes();
  // Remote bytes funneling through each node's NIC, and the largest
  // single-GPU PCIe transfer.
  std::map<int, uint64_t> remote_bytes_by_node;
  double max_pcie_s = 0.0;

  for (const partition::StageAssignment& stage : partition.stages) {
    // Parameter bytes of this stage = weights that must be synchronized.
    const ShardSplit split = SplitShards(stage.param_bytes, placement, num_nodes);
    max_pcie_s = std::max(max_pcie_s, cluster.pcie().TransferTime(split.local));
    remote_bytes_by_node[stage.node] += split.remote;
  }

  double max_ib_s = 0.0;
  for (const auto& [node, bytes] : remote_bytes_by_node) {
    // Round-robin placement spreads the remote shards over every other node,
    // so the funneled bytes ride the node's slowest inter-node link — on a
    // uniform fabric that is exactly the shared inter link, on a rack
    // topology or with a degraded pair it is the worst resolved pair link.
    max_ib_s = std::max(max_ib_s, cluster.WorstInterTransferTimeFrom(node, bytes));
  }

  VwCommTimes times;
  times.push_s = std::max(max_pcie_s, max_ib_s);
  times.pull_s = times.push_s;  // symmetric: weights down, updates up
  return times;
}

uint64_t PsCrossNodeBytesPerMinibatch(const partition::Partition& partition,
                                      PlacementPolicy placement, int num_nodes, int nm) {
  uint64_t per_wave = 0;
  for (const partition::StageAssignment& stage : partition.stages) {
    // Push the update and pull the fresh weights once per wave.
    per_wave += 2 * SplitShards(stage.param_bytes, placement, num_nodes).remote;
  }
  return per_wave / static_cast<uint64_t>(nm > 0 ? nm : 1);
}

WspCoordinator::WspCoordinator(sim::Simulator& simulator, const WspCoordinatorOptions& options,
                               std::vector<VwCommTimes> comm)
    : simulator_(&simulator),
      options_(options),
      comm_(std::move(comm)),
      clocks_(options.num_vws),
      pulled_wave_(static_cast<size_t>(options.num_vws), -1),
      pull_in_flight_(static_cast<size_t>(options.num_vws), false),
      waiters_(static_cast<size_t>(options.num_vws)) {}

bool WspCoordinator::RequestInjection(int vw, int64_t p, sim::EventTarget* waiter) {
  const int64_t pulled = pulled_wave_[static_cast<size_t>(vw)];
  const int64_t own_wave = (p - 1) / options_.nm;
  const auto sample_lag = [&] {
    if (own_wave >= 1) {
      observed_lag_.Add(static_cast<double>(std::max<int64_t>(0, own_wave - 1 - pulled)));
    }
  };
  if (options_.policy.mode == SyncMode::kAsp) {
    sample_lag();
    return true;
  }
  const int64_t required = RequiredGlobalWave(p, options_.nm, options_.policy.d);
  if (required < 0 || pulled >= required) {
    sample_lag();
    return true;
  }
  waiters_[static_cast<size_t>(vw)] = Waiter{required, waiter};
  StartPullIfNeeded(vw);
  return false;
}

void WspCoordinator::OnWaveComplete(int vw, int64_t wave) {
  // The aggregated update u~ travels to the parameter servers.
  simulator_->ScheduleAt(simulator_->now() + comm_[static_cast<size_t>(vw)].push_s, this,
                         kPushArrived, static_cast<uint32_t>(vw), wave);
}

void WspCoordinator::MaybeAdvanceGlobal() {
  const int64_t new_global = clocks_.Global();
  if (new_global <= global_wave_) {
    return;
  }
  global_wave_ = new_global;
  // Freshly completed global waves may unblock waiting virtual workers.
  for (int vw = 0; vw < options_.num_vws; ++vw) {
    StartPullIfNeeded(vw);
  }
}

void WspCoordinator::StartPullIfNeeded(int vw) {
  const auto idx = static_cast<size_t>(vw);
  if (pull_in_flight_[idx]) {
    return;
  }
  // Pull when a waiter needs a wave that is now globally complete, or eagerly
  // whenever fresher global weights exist (virtual workers refresh their
  // local copy at wave boundaries without blocking, per §5).
  const bool waiter_ready =
      waiters_[idx].has_value() && global_wave_ >= waiters_[idx]->required_wave;
  const bool stale_copy = global_wave_ > pulled_wave_[idx];
  if (!waiter_ready && !stale_copy) {
    return;
  }
  pull_in_flight_[idx] = true;
  simulator_->ScheduleAt(simulator_->now() + comm_[idx].pull_s, this, kPullComplete,
                         static_cast<uint32_t>(vw), global_wave_);
}

void WspCoordinator::OnEvent(uint32_t kind, uint32_t a, int64_t wave) {
  const int vw = static_cast<int>(a);
  const auto idx = static_cast<size_t>(vw);
  if (kind == kPushArrived) {
    clocks_.Advance(vw, wave);
    clock_distance_.Add(static_cast<double>(clocks_.Distance()));
    MaybeAdvanceGlobal();
    StartPullIfNeeded(vw);  // refresh this VW's local copy if it is behind
    return;
  }
  pull_in_flight_[idx] = false;  // kPullComplete
  pulled_wave_[idx] = std::max(pulled_wave_[idx], wave);
  if (waiters_[idx].has_value() && pulled_wave_[idx] >= waiters_[idx]->required_wave) {
    sim::EventTarget* waiter = waiters_[idx]->target;
    waiters_[idx].reset();
    waiter->OnEvent(pipeline::InjectionGate::kInjectionPermitted, a, 0);
  } else {
    // The global wave may have advanced past `wave` while pulling.
    StartPullIfNeeded(vw);
  }
}

}  // namespace hetpipe::wsp
