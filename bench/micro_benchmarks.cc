// google-benchmark micro-benchmarks for the repo's core kernels: the DES
// event queue, the min-max partitioner (serial, pruned, parallel, cached),
// the AllReduce cost model, and the real WSP trainer step.
#include <benchmark/benchmark.h>

#include "dp/allreduce.h"
#include "hw/cluster.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "model/vgg.h"
#include "partition/partitioner.h"
#include "pipeline/virtual_worker.h"
#include "runner/partition_cache.h"
#include "runner/thread_pool.h"
#include "sim/simulator.h"
#include "train/data.h"
#include "train/model_zoo.h"
#include "train/wsp_trainer.h"

namespace {

using namespace hetpipe;

void BM_EventQueuePushPop(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < state.range(0); ++i) {
      queue.Push(static_cast<double>((i * 2654435761u) % 1000), [] {});
    }
    while (!queue.empty()) {
      benchmark::DoNotOptimize(queue.Pop());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1 << 10)->Arg(1 << 14);

void BM_SimulatorDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    int64_t remaining = state.range(0);
    std::function<void()> tick = [&] {
      if (--remaining > 0) {
        simulator.Schedule(1.0, tick);
      }
    };
    simulator.Schedule(1.0, tick);
    simulator.Run();
    benchmark::DoNotOptimize(simulator.now());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorDispatch)->Arg(1 << 12);

void BM_PartitionerSolve(benchmark::State& state) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = static_cast<int>(state.range(0));
  options.strategy = partition::SearchStrategy::kExact;
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner.SolveScalable({0, 4, 8, 12}, options));
  }
}
BENCHMARK(BM_PartitionerSolve)->Arg(1)->Arg(4)->Arg(7);

void BM_PartitionerSolveNoPrune(benchmark::State& state) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = static_cast<int>(state.range(0));
  options.strategy = partition::SearchStrategy::kExact;
  options.prune = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner.SolveScalable({0, 4, 8, 12}, options));
  }
}
BENCHMARK(BM_PartitionerSolveNoPrune)->Arg(4);

void BM_PartitionerSolveParallelOrders(benchmark::State& state) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  runner::ThreadPool pool(static_cast<int>(state.range(0)));
  partition::PartitionOptions options;
  options.nm = 4;
  options.strategy = partition::SearchStrategy::kExact;
  options.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner.SolveScalable({0, 4, 8, 12}, options));
  }
}
BENCHMARK(BM_PartitionerSolveParallelOrders)->Arg(2)->Arg(8);

void BM_PartitionCacheHit(benchmark::State& state) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  runner::PartitionCache cache;
  partition::PartitionOptions options;
  options.nm = 4;
  cache.Solve(partitioner, {0, 4, 8, 12}, options);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Solve(partitioner, {0, 4, 8, 12}, options));
  }
}
BENCHMARK(BM_PartitionCacheHit);

void BM_ThreadPoolParallelFor(benchmark::State& state) {
  runner::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(256, [&](int64_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
    benchmark::DoNotOptimize(sum.load());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(4);

void BM_PipelineSimulation(benchmark::State& state) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  partition::PartitionOptions options;
  options.nm = 4;
  const partition::Partition partition = partitioner.SolveScalable({0, 4, 8, 12}, options);
  for (auto _ : state) {
    sim::Simulator simulator;
    pipeline::OpenGate gate;
    pipeline::VirtualWorkerOptions vopt;
    vopt.nm = 4;
    vopt.max_minibatches = 200;
    pipeline::VirtualWorkerSim vw(0, simulator, partition, gate, vopt);
    vw.Start();
    simulator.Run();
    benchmark::DoNotOptimize(vw.minibatches_completed());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_PipelineSimulation);

void BM_RingAllReduceModel(benchmark::State& state) {
  dp::RingAllReduceParams params;
  params.num_workers = 16;
  params.bytes = 548ULL << 20;
  params.bottleneck_bps = 1e9;
  params.per_step_latency_s = 30e-6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::RingAllReduceTime(params));
  }
}
BENCHMARK(BM_RingAllReduceModel);

void BM_WspTrainerStep(benchmark::State& state) {
  const train::Dataset data = train::MakeLinearRegression(256, 16, 0.05, 7);
  const train::LinearRegressionModel model(16);
  for (auto _ : state) {
    train::TrainerOptions options = train::WspOptions(2, 16, 2, 1);
    options.worker.lr = 0.02;
    benchmark::DoNotOptimize(train::TrainWsp(model, data, options));
  }
  state.SetItemsProcessed(state.iterations() * 2 * 16 * 2);
}
BENCHMARK(BM_WspTrainerStep);

}  // namespace
