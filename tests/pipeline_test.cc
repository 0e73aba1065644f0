#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/allocator.h"
#include "core/hetpipe.h"
#include "hw/cluster.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "model/vgg.h"
#include "oracles/golden.h"
#include "oracles/reference.h"
#include "partition/partitioner.h"
#include "pipeline/schedule.h"
#include "pipeline/task.h"
#include "pipeline/virtual_worker.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "wsp/param_server.h"

namespace hetpipe::pipeline {
namespace {

TEST(TaskTest, Names) {
  EXPECT_STREQ(TaskKindName(TaskKind::kForward), "FW");
  EXPECT_STREQ(TaskKindName(TaskKind::kBackward), "BW");
  Task t{TaskKind::kForward, 3, 1};
  EXPECT_EQ(ToString(t), "FW(M3,P2)");
}

TEST(StageQueueTest, ForwardOrderEnforced) {
  StageQueue q;
  // FW of minibatch 2 arrives first; it must not run before FW of 1.
  q.MakeAvailable({TaskKind::kForward, 2, 0});
  EXPECT_FALSE(q.PickNext().has_value());
  q.MakeAvailable({TaskKind::kForward, 1, 0});
  auto t = q.PickNext();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->minibatch, 1);
  t = q.PickNext();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->minibatch, 2);
}

TEST(StageQueueTest, BackwardOrderEnforcedIndependently) {
  StageQueue q;
  q.MakeAvailable({TaskKind::kBackward, 2, 0});
  q.MakeAvailable({TaskKind::kForward, 1, 0});
  // BW(2) blocked (BW(1) not done); FW(1) eligible.
  auto t = q.PickNext();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->kind, TaskKind::kForward);
  q.MakeAvailable({TaskKind::kBackward, 1, 0});
  t = q.PickNext();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->kind, TaskKind::kBackward);
  EXPECT_EQ(t->minibatch, 1);
}

TEST(StageQueueTest, FifoAmongEligible) {
  StageQueue q;
  q.MakeAvailable({TaskKind::kForward, 1, 0});
  q.MakeAvailable({TaskKind::kBackward, 1, 0});
  // Both eligible; FW(1) arrived first -> FIFO picks it.
  auto t = q.PickNext();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->kind, TaskKind::kForward);
}

TEST(StageQueueTest, FusedTaskAdvancesBothCounters) {
  StageQueue q;
  q.MakeAvailable({TaskKind::kForwardBackward, 1, 3});
  auto t = q.PickNext();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(q.next_forward(), 2);
  EXPECT_EQ(q.next_backward(), 2);
}

bool SameTask(const std::optional<Task>& x, const std::optional<Task>& y) {
  if (!x.has_value() || !y.has_value()) {
    return x.has_value() == y.has_value();
  }
  return x->kind == y->kind && x->minibatch == y->minibatch && x->stage == y->stage;
}

// Seeded interleavings of arrivals and picks on the ring and on the
// vector-and-erase reference: every pick and both next-minibatch counters
// must agree. Minibatch p arrives as FW(p) and BW(p), or as one fused task,
// displaced up to `window` places from minibatch order, so picks come from
// behind the head, the ring holds more than its first capacity (8) and its
// head wraps many times.
TEST(StageQueueTest, MatchesVectorReferenceUnderOutOfOrderArrivals) {
  constexpr int64_t kMinibatches = 300;
  int64_t behind_head = 0;
  size_t most_held = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Rng rng(seed);
    std::vector<Task> arrivals;
    for (int64_t p = 1; p <= kMinibatches; ++p) {
      if (rng.NextDouble() < 0.2) {
        arrivals.push_back({TaskKind::kForwardBackward, p, 3});
      } else {
        arrivals.push_back({TaskKind::kForward, p, 1});
        arrivals.push_back({TaskKind::kBackward, p, 1});
      }
    }
    const int64_t window = rng.UniformInt(0, 24);
    for (size_t i = 0; i + 1 < arrivals.size(); ++i) {
      const auto last = static_cast<int64_t>(arrivals.size()) - 1;
      const int64_t j = std::min(last, static_cast<int64_t>(i) + rng.UniformInt(0, window));
      std::swap(arrivals[i], arrivals[static_cast<size_t>(j)]);
    }
    const double arrive_share = 0.3 + 0.4 * rng.NextDouble();

    StageQueue ring;
    oracles::StageQueueReference reference;
    size_t next_arrival = 0;
    int64_t picks = 0;
    while (next_arrival < arrivals.size() || reference.size() > 0) {
      if (next_arrival < arrivals.size() && rng.NextDouble() < arrive_share) {
        ring.MakeAvailable(arrivals[next_arrival]);
        reference.MakeAvailable(arrivals[next_arrival]);
        ++next_arrival;
      } else {
        const Task oldest = reference.size() > 0 ? reference.tasks().front() : Task{};
        const std::optional<Task> want = reference.PickNext();
        const std::optional<Task> got = ring.PickNext();
        ASSERT_TRUE(SameTask(got, want)) << "seed " << seed << " pick " << picks;
        if (want.has_value()) {
          ++picks;
          behind_head += SameTask(want, oldest) ? 0 : 1;
        }
      }
      ASSERT_EQ(ring.size(), reference.size()) << "seed " << seed;
      ASSERT_EQ(ring.next_forward(), reference.next_forward()) << "seed " << seed;
      ASSERT_EQ(ring.next_backward(), reference.next_backward()) << "seed " << seed;
      most_held = std::max(most_held, ring.size());
    }
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(picks, static_cast<int64_t>(arrivals.size())) << "seed " << seed;
    EXPECT_EQ(ring.next_forward(), kMinibatches + 1);
    EXPECT_EQ(ring.next_backward(), kMinibatches + 1);
  }
  EXPECT_GT(behind_head, 1000);
  EXPECT_GT(most_held, 32u);  // the ring grew past 8, 16 and 32 slots
}

// Builds a small pipeline fixture over the paper cluster.
class VirtualWorkerTest : public ::testing::Test {
 protected:
  VirtualWorkerTest()
      : cluster_(hw::Cluster::Paper()),
        graph_(model::BuildResNet152()),
        profile_(graph_, 32),
        partitioner_(profile_, cluster_) {}

  partition::Partition MakePartition(const std::vector<int>& gpus, int nm) {
    partition::PartitionOptions options;
    options.nm = nm;
    partition::Partition p = partitioner_.SolveScalable(gpus, options);
    EXPECT_TRUE(p.feasible);
    return p;
  }

  hw::Cluster cluster_;
  model::ModelGraph graph_;
  model::ModelProfile profile_;
  partition::Partitioner partitioner_;
};

TEST_F(VirtualWorkerTest, Nm1IsSequentialExecution) {
  const partition::Partition partition = MakePartition({0, 1, 2, 3}, 1);
  sim::Simulator simulator;
  OpenGate gate;
  VirtualWorkerOptions options;
  options.nm = 1;
  options.max_minibatches = 5;
  VirtualWorkerSim vw(0, simulator, partition, gate, options);
  vw.Start();
  simulator.Run();
  EXPECT_EQ(vw.minibatches_completed(), 5);
  // With Nm=1 each minibatch takes the full round trip: sum of stage times.
  const double expected = 5.0 * partition.sum_time;
  EXPECT_NEAR(vw.last_completion_time(), expected, expected * 0.01);
}

TEST_F(VirtualWorkerTest, ThroughputImprovesWithNm) {
  double prev_time = 1e30;
  for (int nm : {1, 2, 4}) {
    const partition::Partition partition = MakePartition({0, 1, 2, 3}, nm);
    sim::Simulator simulator;
    OpenGate gate;
    VirtualWorkerOptions options;
    options.nm = nm;
    options.max_minibatches = 24;
    VirtualWorkerSim vw(0, simulator, partition, gate, options);
    vw.Start();
    simulator.Run();
    EXPECT_EQ(vw.minibatches_completed(), 24);
    EXPECT_LT(vw.last_completion_time(), prev_time);
    prev_time = vw.last_completion_time();
  }
}

TEST_F(VirtualWorkerTest, CompletionsAreOrdered) {
  const partition::Partition partition = MakePartition({0, 1, 2, 3}, 4);
  sim::Simulator simulator;
  OpenGate gate;
  VirtualWorkerOptions options;
  options.nm = 4;
  options.max_minibatches = 20;
  VirtualWorkerSim vw(0, simulator, partition, gate, options);
  vw.Start();
  simulator.Run();
  const auto& times = vw.completion_times();
  ASSERT_EQ(times.size(), 20u);
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_GE(times[i], times[i - 1]);
  }
}

TEST_F(VirtualWorkerTest, NeverExceedsNmInFlight) {
  // Completion of minibatch p must precede injection of p + Nm; with the
  // FIFO conditions this shows as: completion time of p < completion of p+Nm
  // minus at least the last stage's task time. Indirect check: with Nm=2 and
  // 12 minibatches, the makespan is at least ceil(12/2) * bottleneck.
  const int nm = 2;
  const partition::Partition partition = MakePartition({0, 1, 2, 3}, nm);
  sim::Simulator simulator;
  OpenGate gate;
  VirtualWorkerOptions options;
  options.nm = nm;
  options.max_minibatches = 12;
  VirtualWorkerSim vw(0, simulator, partition, gate, options);
  vw.Start();
  simulator.Run();
  const double lower_bound = 12.0 / nm * partition.bottleneck_time;
  EXPECT_GE(vw.last_completion_time(), lower_bound * 0.99);
}

TEST_F(VirtualWorkerTest, UtilizationRisesWithNm) {
  double util1 = 0.0;
  double util4 = 0.0;
  for (int nm : {1, 4}) {
    const partition::Partition partition = MakePartition({0, 1, 2, 3}, nm);
    sim::Simulator simulator;
    OpenGate gate;
    VirtualWorkerOptions options;
    options.nm = nm;
    options.max_minibatches = 40;
    VirtualWorkerSim vw(0, simulator, partition, gate, options);
    vw.Start();
    simulator.Run();
    const double u = vw.MaxStageUtilization(0.0, simulator.now());
    if (nm == 1) {
      util1 = u;
    } else {
      util4 = u;
    }
  }
  EXPECT_GT(util4, util1);
  EXPECT_LE(util4, 1.0);
}

TEST_F(VirtualWorkerTest, SingleGpuWorkerRuns) {
  const partition::Partition partition = MakePartition({4}, 1);  // one R GPU
  sim::Simulator simulator;
  OpenGate gate;
  VirtualWorkerOptions options;
  options.nm = 1;
  options.max_minibatches = 3;
  VirtualWorkerSim vw(0, simulator, partition, gate, options);
  vw.Start();
  simulator.Run();
  EXPECT_EQ(vw.minibatches_completed(), 3);
  EXPECT_EQ(vw.num_stages(), 1);
}

TEST_F(VirtualWorkerTest, WaveCallbacksFirePerWave) {
  struct CountingGate : public InjectionGate {
    bool RequestInjection(int, int64_t, sim::EventTarget*) override { return true; }
    void OnWaveComplete(int, int64_t wave) override {
      waves.push_back(wave);
    }
    std::vector<int64_t> waves;
  };
  const int nm = 3;
  const partition::Partition partition = MakePartition({0, 1, 2, 3}, nm);
  sim::Simulator simulator;
  CountingGate gate;
  VirtualWorkerOptions options;
  options.nm = nm;
  options.max_minibatches = 12;
  VirtualWorkerSim vw(0, simulator, partition, gate, options);
  vw.Start();
  simulator.Run();
  EXPECT_EQ(gate.waves, (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST_F(VirtualWorkerTest, JitterKeepsCompletionCount) {
  const partition::Partition partition = MakePartition({0, 1, 2, 3}, 4);
  sim::Simulator simulator;
  OpenGate gate;
  VirtualWorkerOptions options;
  options.nm = 4;
  options.jitter_cv = 0.2;
  options.seed = 99;
  options.max_minibatches = 40;
  VirtualWorkerSim vw(0, simulator, partition, gate, options);
  vw.Start();
  simulator.Run();
  EXPECT_EQ(vw.minibatches_completed(), 40);
}

TEST_F(VirtualWorkerTest, DeterministicAcrossRuns) {
  const partition::Partition partition = MakePartition({0, 4, 8, 12}, 3);
  double first = -1.0;
  for (int run = 0; run < 2; ++run) {
    sim::Simulator simulator;
    OpenGate gate;
    VirtualWorkerOptions options;
    options.nm = 3;
    options.jitter_cv = 0.1;
    options.seed = 7;
    options.max_minibatches = 30;
    VirtualWorkerSim vw(0, simulator, partition, gate, options);
    vw.Start();
    simulator.Run();
    if (run == 0) {
      first = vw.last_completion_time();
    } else {
      EXPECT_DOUBLE_EQ(vw.last_completion_time(), first);
    }
  }
}

// ---- Pinned simulator output. tests/golden/sim_traces.txt holds one
// ---- `key \t value` line per recorded quantity, every double in hexfloat,
// ---- so any change to event order or arithmetic in the simulator shows up
// ---- as a diff. `UPDATE_GOLDEN=1 ./pipeline_test` rewrites the file.

std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string HexList(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    out += (out.empty() ? "" : " ") + Hex(v);
  }
  return out;
}

using oracles::GoldenLines;

void AppendVwTrace(GoldenLines& lines, const std::string& prefix, const VirtualWorkerSim& vw,
                   int64_t warmup, sim::SimTime end) {
  const std::vector<sim::SimTime>& times = vw.completion_times();
  const sim::SimTime warm = times.size() > static_cast<size_t>(warmup)
                                ? times[static_cast<size_t>(warmup)]
                                : 0.0;
  lines.push_back(prefix + "|completion_times\t" + HexList(times));
  lines.push_back(prefix + "|total_wait_s\t" + Hex(vw.total_wait_s()));
  lines.push_back(prefix + "|idle_during_wait\t" + Hex(vw.IdleDuringWait()));
  lines.push_back(prefix + "|max_util_warm\t" + Hex(vw.MaxStageUtilization(warm, end)));
  lines.push_back(prefix + "|max_util_mid\t" +
                  Hex(vw.MaxStageUtilization(end / 3.0, 2.0 * end / 3.0)));
  std::vector<double> per_stage;
  for (int q = 0; q < vw.num_stages(); ++q) {
    per_stage.push_back(vw.StageComputeUtilization(q, 0.0, end));
  }
  lines.push_back(prefix + "|stage_util\t" + HexList(per_stage));
}

GoldenLines SimTraceGoldenLines() {
  GoldenLines lines;
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph resnet = model::BuildResNet152();
  const model::ModelGraph vgg = model::BuildVgg19();

  // Single virtual workers behind an open gate, with every noise source.
  struct VwCase {
    const char* name;
    const model::ModelGraph* graph;
    std::vector<int> gpus;
    int nm;
    double jitter_cv, drift_cv, speed_bias_cv;
    uint64_t seed;
    int64_t minibatches;
  };
  const VwCase kVwCases[] = {
      {"vw-resnet-VRGQ-nm4", &resnet, {0, 4, 8, 12}, 4, 0.2, 0.0, 0.0, 99, 40},
      {"vw-vgg-VRGQ-nm3", &vgg, {0, 4, 8, 12}, 3, 0.1, 0.15, 0.1, 7, 30},
      {"vw-resnet-VVVV-nm2", &resnet, {0, 1, 2, 3}, 2, 0.05, 0.2, 0.2, 3, 24},
      {"vw-vgg-R-nm1", &vgg, {4}, 1, 0.3, 0.1, 0.0, 11, 6},
  };
  for (const VwCase& c : kVwCases) {
    const model::ModelProfile profile(*c.graph, 32);
    const partition::Partitioner partitioner(profile, cluster);
    partition::PartitionOptions popt;
    popt.nm = c.nm;
    const partition::Partition partition = partitioner.SolveScalable(c.gpus, popt);
    EXPECT_TRUE(partition.feasible) << c.name;
    if (!partition.feasible) {
      continue;
    }
    sim::Simulator simulator;
    OpenGate gate;
    VirtualWorkerOptions options;
    options.nm = c.nm;
    options.jitter_cv = c.jitter_cv;
    options.drift_cv = c.drift_cv;
    options.speed_bias_cv = c.speed_bias_cv;
    options.seed = c.seed;
    options.max_minibatches = c.minibatches;
    VirtualWorkerSim vw(0, simulator, partition, gate, options);
    vw.Start();
    simulator.Run();
    lines.push_back(std::string(c.name) + "|events\t" +
                    std::to_string(simulator.events_processed()));
    AppendVwTrace(lines, c.name, vw, c.nm, simulator.now());
  }

  // Whole-cluster runs under each synchronization policy: the virtual
  // workers of an ED allocation behind one WSP coordinator, traced per VW,
  // then HetPipe::Run's report for the same policy.
  struct PolicyCase {
    const char* name;
    wsp::SyncPolicy policy;
    int nm;
  };
  const PolicyCase kPolicies[] = {
      {"wsp-d0", wsp::SyncPolicy::Wsp(0), 3},
      {"wsp-d4", wsp::SyncPolicy::Wsp(4), 3},
      {"bsp", wsp::SyncPolicy::Wsp(0), 1},
      {"asp", wsp::SyncPolicy::Asp(), 3},
  };
  const model::ModelProfile profile(resnet, 32);
  const partition::Partitioner partitioner(profile, cluster);
  const cluster::Allocation alloc =
      cluster::Allocate(cluster, cluster::AllocationPolicy::kEqualDistribution);
  for (const PolicyCase& c : kPolicies) {
    partition::PartitionOptions popt;
    popt.nm = c.nm;
    std::vector<partition::Partition> partitions;
    std::vector<wsp::VwCommTimes> comm;
    for (const std::vector<int>& gpus : alloc.vw_gpus) {
      partitions.push_back(partitioner.SolveScalable(gpus, popt));
      comm.push_back(
          wsp::ComputePsCommTimes(partitions.back(), cluster, wsp::PlacementPolicy::kRoundRobin));
    }
    sim::Simulator simulator;
    wsp::WspCoordinatorOptions wopt;
    wopt.num_vws = alloc.num_vws();
    wopt.nm = c.nm;
    wopt.policy = c.policy;
    wsp::WspCoordinator coordinator(simulator, wopt, comm);
    std::vector<std::unique_ptr<VirtualWorkerSim>> vws;
    for (int v = 0; v < alloc.num_vws(); ++v) {
      VirtualWorkerOptions options;
      options.nm = c.nm;
      options.jitter_cv = 0.1;
      options.drift_cv = 0.1;
      options.speed_bias_cv = 0.1;
      options.seed = 42;
      options.max_minibatches = 12 * c.nm;
      vws.push_back(std::make_unique<VirtualWorkerSim>(
          v, simulator, partitions[static_cast<size_t>(v)], coordinator, options));
    }
    for (auto& vw : vws) {
      vw->Start();
    }
    simulator.Run();
    const std::string prefix = std::string("cluster-") + c.name;
    lines.push_back(prefix + "|events\t" + std::to_string(simulator.events_processed()));
    for (int v = 0; v < alloc.num_vws(); ++v) {
      AppendVwTrace(lines, prefix + "|vw" + std::to_string(v), *vws[static_cast<size_t>(v)],
                    2 * c.nm, simulator.now());
    }

    core::HetPipeConfig config;
    config.sync = c.policy;
    config.nm = c.nm;
    config.jitter_cv = 0.1;
    config.drift_cv = 0.1;
    config.speed_bias_cv = 0.1;
    config.waves = 20;
    const core::HetPipeReport report = core::HetPipe(cluster, resnet, config).Run();
    EXPECT_TRUE(report.feasible) << c.name;
    const std::string run = std::string("hetpipe-") + c.name;
    lines.push_back(run + "|throughput\t" + Hex(report.throughput_img_s));
    lines.push_back(run + "|total_wait_s\t" + Hex(report.total_wait_s));
    lines.push_back(run + "|idle_fraction_of_wait\t" + Hex(report.idle_fraction_of_wait));
    lines.push_back(run + "|avg_clock_distance\t" + Hex(report.avg_clock_distance));
    lines.push_back(run + "|avg_global_lag_waves\t" + Hex(report.avg_global_lag_waves));
    for (size_t v = 0; v < report.vws.size(); ++v) {
      const core::VwReport& vr = report.vws[v];
      lines.push_back(run + "|vw" + std::to_string(v) + '\t' +
                      HexList({vr.throughput_img_s, vr.max_stage_utilization, vr.wait_s,
                               vr.idle_during_wait_s}));
    }
  }
  return lines;
}

TEST(SimTraceGoldenTest, SimulatorOutputMatchesRecordedTraces) {
  EXPECT_EQ(oracles::CheckGolden("sim_traces.txt",
                                 "Simulator outputs (hexfloat): key \\t value.\n"
                                 "Regenerate with: UPDATE_GOLDEN=1 ./pipeline_test",
                                 SimTraceGoldenLines()),
            "");
}

}  // namespace
}  // namespace hetpipe::pipeline
