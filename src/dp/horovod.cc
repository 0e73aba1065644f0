#include "dp/horovod.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "dp/allreduce.h"
#include "dp/placement.h"

namespace hetpipe::dp {
namespace {

// Fraction of the AllReduce hidden under backprop. Horovod overlaps
// tensor-fused reductions with the tail of the backward pass; the paper's
// TF 1.12 setup achieves partial overlap inter-node and effectively none for
// a single-node PCIe ring (calibrated against Table 4).
constexpr double kInterNodeOverlap = 0.4;
constexpr double kIntraNodeOverlap = 0.0;
// Protocol/framework efficiency applied to the shared fabric bandwidth.
constexpr double kInterNodeEfficiency = 0.49;
constexpr double kIntraNodeEfficiency = 0.40;
// Raw fabric bandwidths for the AllReduce. Horovod's NCCL-style collectives
// bypass the TensorFlow runtime and use IB verbs / CUDA IPC, so they see
// near-line-rate fabric bandwidth — unlike the gRPC transport modeled by
// hw::InfinibandLink that the pipeline's activation/PS traffic uses.
constexpr double kInterNodeFabricBps = 56.0 / 8.0 * 1e9;  // 56 Gbps Infiniband
constexpr double kIntraNodeFabricBps = 15.75e9;           // PCIe 3.0 x16

}  // namespace

std::string HorovodResult::ToString() const {
  std::ostringstream os;
  if (!feasible) {
    os << "infeasible (model fits no GPU)";
    return os.str();
  }
  os << worker_gpus.size() << " workers";
  if (num_excluded > 0) {
    os << " (" << num_excluded << " GPUs excluded: model too large)";
  }
  os << ", compute " << compute_s * 1e3 << " ms, allreduce " << allreduce_s * 1e3
     << " ms (exposed " << exposed_comm_s * 1e3 << " ms), " << throughput_img_s << " img/s";
  return os.str();
}

HorovodResult SimulateHorovod(const hw::Cluster& cluster, const model::ModelProfile& profile,
                              const partition::StageMemoryParams& mem_params) {
  HorovodResult result;
  result.worker_gpus = DataParallelWorkers(cluster, profile, mem_params);
  result.num_excluded = cluster.num_gpus() - static_cast<int>(result.worker_gpus.size());
  if (result.worker_gpus.empty()) {
    return result;
  }
  result.feasible = true;

  // BSP: every iteration waits for the slowest replica.
  std::map<int, int> workers_per_node;
  for (int id : result.worker_gpus) {
    result.compute_s = std::max(result.compute_s, profile.FullModelTime(cluster.gpu(id).type));
    ++workers_per_node[cluster.gpu(id).node];
  }

  const bool multi_node = workers_per_node.size() > 1;
  // Ring bottleneck: the most contended fabric on the ring. For a multi-node
  // ring that is a node NIC shared by all of that node's workers; for a
  // single-node ring it is the PCIe fabric.
  int max_workers_on_node = 0;
  for (const auto& [node, count] : workers_per_node) {
    max_workers_on_node = std::max(max_workers_on_node, count);
  }
  double bottleneck_bps = 0.0;
  double overlap = 0.0;
  if (multi_node) {
    bottleneck_bps =
        SharedFabricBandwidth(kInterNodeFabricBps, max_workers_on_node, kInterNodeEfficiency);
    overlap = kInterNodeOverlap;
  } else {
    bottleneck_bps =
        SharedFabricBandwidth(kIntraNodeFabricBps, max_workers_on_node, kIntraNodeEfficiency);
    overlap = kIntraNodeOverlap;
  }

  RingAllReduceParams ar;
  ar.num_workers = static_cast<int>(result.worker_gpus.size());
  ar.bytes = profile.graph().total_param_bytes();
  ar.bottleneck_bps = bottleneck_bps;
  ar.per_step_latency_s = multi_node ? 30e-6 : 10e-6;
  result.allreduce_s = RingAllReduceTime(ar);

  result.exposed_comm_s = std::max(0.0, result.allreduce_s - overlap * result.compute_s);
  result.iteration_s = result.compute_s + result.exposed_comm_s;
  result.throughput_img_s = static_cast<double>(result.worker_gpus.size()) *
                            profile.batch_size() / result.iteration_s;
  return result;
}

}  // namespace hetpipe::dp
