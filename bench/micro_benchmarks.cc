// google-benchmark micro-benchmarks for the repo's core kernels: the DES
// event queue (fill-and-drain and the simulator's pop-then-push hold), the
// simulator's normal draws, the min-max partitioner (serial, pruned,
// parallel, cached), the AllReduce cost model, and the real WSP trainer step.
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
#include "sim/rng.h"
#include "sim/simulator.h"
#include "train/data.h"
#include "train/model_zoo.h"
#include "train/wsp_trainer.h"

namespace {

using namespace hetpipe;

// Reschedules itself one second later until `remaining` events have fired:
// the simulator's dispatch loop with the least work per event.
class Ticker final : public sim::EventTarget {
 public:
  Ticker(sim::Simulator& simulator, int64_t events) : simulator_(&simulator), remaining_(events) {}
  void OnEvent(uint32_t kind, uint32_t a, int64_t b) override {
    if (--remaining_ > 0) {
      simulator_->ScheduleAt(simulator_->now() + 1.0, this, kind, a, b);
    }
  }

 private:
  sim::Simulator* simulator_;
  int64_t remaining_;
};

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::Simulator simulator;
  Ticker target(simulator, 0);  // the queue only stores it
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < state.range(0); ++i) {
      queue.Push(static_cast<double>((i * 2654435761u) % 1000), &target, 0,
                 static_cast<uint32_t>(i), i);
    }
    while (!queue.empty()) {
      benchmark::DoNotOptimize(queue.Pop());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// A whole-cluster WSP simulation holds about 8-24 queued events.
BENCHMARK(BM_EventQueuePushPop)->Arg(8)->Arg(16)->Arg(32);

// The simulator's steady state (the hold model): with n events queued, each
// iteration pops the earliest and schedules one later event, as a handler
// that starts the next task does.
void BM_EventQueueHold(benchmark::State& state) {
  sim::Simulator simulator;
  Ticker target(simulator, 0);  // the queue only stores it
  sim::EventQueue queue;
  for (int i = 0; i < state.range(0); ++i) {
    queue.Push(static_cast<double>((i * 2654435761u) % 1000) * 1e-3, &target, 0,
               static_cast<uint32_t>(i), i);
  }
  uint32_t i = 0;
  for (auto _ : state) {
    const sim::Event event = queue.Pop();
    const double delay = 0.5 + static_cast<double>((++i * 2654435761u) % 1000) * 1e-3;
    benchmark::DoNotOptimize(
        queue.Push(event.time + delay, event.target, event.kind, event.a, event.b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(8)->Arg(16)->Arg(32);

// One standard normal per iteration: Box-Muller through Rng::Normal
// (memo:0) against a sim::NormalStream reading a table an earlier stream
// filled (memo:1), the path a virtual worker takes when its seed repeats.
void BM_NormalDraw(benchmark::State& state) {
  constexpr uint64_t kSeed = 42;
  constexpr size_t kDraws = 4096;  // per stream, under NormalStream::kMaxValuesPerSeed
  if (state.range(0) == 0) {
    sim::Rng rng(kSeed);
    for (auto _ : state) {
      benchmark::DoNotOptimize(rng.Normal());
    }
  } else {
    sim::NormalStream fill(kSeed);
    for (size_t i = 0; i < kDraws; ++i) {
      fill.Next();
    }
    sim::NormalStream stream(kSeed);
    size_t left = kDraws;
    for (auto _ : state) {
      if (left-- == 0) {
        stream = sim::NormalStream(kSeed);
        left = kDraws - 1;
      }
      benchmark::DoNotOptimize(stream.Next());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NormalDraw)->ArgName("memo")->Arg(0)->Arg(1);

void BM_SimulatorDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    Ticker ticker(simulator, state.range(0));
    simulator.ScheduleAt(1.0, &ticker, 0, 0, 0);
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
