#include <gtest/gtest.h>

#include <string>

#include "hw/cluster.h"
#include "hw/cluster_spec.h"
#include "model/profiler.h"
#include "model/vgg.h"
#include "partition/partitioner.h"
#include "sim/simulator.h"
#include "sim_callbacks.h"
#include "wsp/clock.h"
#include "wsp/param_server.h"
#include "wsp/staleness.h"
#include "wsp/sync_policy.h"

namespace hetpipe::wsp {
namespace {

TEST(VectorClockTest, GlobalIsMinimum) {
  VectorClock clocks(3);
  EXPECT_EQ(clocks.Global(), -1);
  clocks.Advance(0, 5);
  clocks.Advance(1, 3);
  EXPECT_EQ(clocks.Global(), -1);  // worker 2 has not pushed
  clocks.Advance(2, 1);
  EXPECT_EQ(clocks.Global(), 1);
  EXPECT_EQ(clocks.Distance(), 4);
}

TEST(VectorClockTest, AdvanceIsMonotonic) {
  VectorClock clocks(2);
  clocks.Advance(0, 2);
  clocks.Advance(0, 2);  // same value is fine
  EXPECT_EQ(clocks.local(0), 2);
}

TEST(SyncPolicyTest, StalenessFormulas) {
  // §4/§5 with Nm=4 (s_local = 3): s_global = (D+1)*4 + 3 - 1.
  EXPECT_EQ(LocalStaleness(4), 3);
  EXPECT_EQ(GlobalStaleness(4, 0), 6);
  EXPECT_EQ(GlobalStaleness(4, 1), 10);
  EXPECT_EQ(GlobalStaleness(1, 0), 0);  // BSP: no staleness at all
  EXPECT_EQ(GlobalStaleness(1, 3), 3);  // SSP with s=3
}

TEST(SyncPolicyTest, RequiredGlobalWaveMatchesPaperExample) {
  // Paper example (§5): D=0, s_local=3 (Nm=4). Minibatch 11 "must have a
  // version of the weights that includes all the global updates from
  // minibatches 1 to 4", i.e. wave 0. Minibatches up to 7 need nothing.
  EXPECT_EQ(RequiredGlobalWave(7, 4, 0), -1);
  EXPECT_EQ(RequiredGlobalWave(8, 4, 0), 0);
  EXPECT_EQ(RequiredGlobalWave(11, 4, 0), 0);
  EXPECT_EQ(RequiredGlobalWave(12, 4, 0), 1);
}

TEST(SyncPolicyTest, Nm1IsClassicSspAndBsp) {
  // Nm=1, D=0: minibatch p needs every global update through p-1 (BSP).
  EXPECT_EQ(RequiredGlobalWave(2, 1, 0), 0);
  EXPECT_EQ(RequiredGlobalWave(5, 1, 0), 3);
  // Nm=1, D=s: SSP staleness window.
  EXPECT_EQ(RequiredGlobalWave(5, 1, 2), 1);
  EXPECT_EQ(RequiredGlobalWave(3, 1, 2), -1);
}

TEST(SyncPolicyTest, LargerDRequiresLess) {
  for (int64_t p = 1; p <= 40; ++p) {
    for (int nm : {1, 2, 4}) {
      EXPECT_LE(RequiredGlobalWave(p, nm, 2), RequiredGlobalWave(p, nm, 1));
      EXPECT_LE(RequiredGlobalWave(p, nm, 1), RequiredGlobalWave(p, nm, 0));
    }
  }
}

TEST(SyncPolicyTest, ToString) {
  EXPECT_EQ(SyncPolicy::Wsp(4).ToString(), "WSP(D=4)");
  EXPECT_EQ(SyncPolicy::Asp().ToString(), "ASP");
}

TEST(StalenessTest, Lemma1Bounds) {
  // Lemma 1: |R_t| + |Q_t| <= (2*sg + sl)(N-1).
  EXPECT_EQ(Lemma1CardinalityBound(6, 4, 4), (2 * 6 + 4) * 3);
  EXPECT_EQ(Lemma1CardinalityBound(0, 1, 1), 0);
  // min(R_t u Q_t) >= max(1, t - (sg + sl) N).
  EXPECT_EQ(Lemma1MinIndexBound(5, 6, 4, 4), 1);
  EXPECT_EQ(Lemma1MinIndexBound(100, 6, 4, 4), 100 - 40);
}

TEST(StalenessTest, Theorem1BoundShrinksWithT) {
  const double b1 = Theorem1RegretBound(1.0, 1.0, 6, 4, 4, 100);
  const double b2 = Theorem1RegretBound(1.0, 1.0, 6, 4, 4, 400);
  EXPECT_NEAR(b1 / b2, 2.0, 1e-9);  // O(1/sqrt(T))
}

TEST(StalenessTest, TrackerDetectsViolation) {
  StalenessTracker tracker(/*nm=*/4, /*d=*/0);  // bound = 6
  tracker.RecordInjection(1, 4);
  EXPECT_TRUE(tracker.WithinBound());
  tracker.RecordInjection(2, 7);
  EXPECT_FALSE(tracker.WithinBound());
  EXPECT_EQ(tracker.worst_observed(), 7);
  EXPECT_EQ(tracker.bound(), 6);
}

// ---- Parameter-server comm-time model. ----

class PsCommTest : public ::testing::Test {
 protected:
  PsCommTest()
      : cluster_(hw::Cluster::Paper()),
        graph_(model::BuildVgg19()),
        profile_(graph_, 32),
        partitioner_(profile_, cluster_) {}

  partition::Partition EdPartition(int nm) {
    partition::PartitionOptions options;
    options.nm = nm;
    return partitioner_.SolveScalable({0, 4, 8, 12}, options);  // one GPU per node
  }

  hw::Cluster cluster_;
  model::ModelGraph graph_;
  model::ModelProfile profile_;
  partition::Partitioner partitioner_;
};

TEST_F(PsCommTest, LocalPlacementIsFasterAndMovesNothingAcrossNodes) {
  const partition::Partition partition = EdPartition(1);
  ASSERT_TRUE(partition.feasible);
  const VwCommTimes local = ComputePsCommTimes(partition, cluster_, PlacementPolicy::kLocal);
  const VwCommTimes rr = ComputePsCommTimes(partition, cluster_, PlacementPolicy::kRoundRobin);
  EXPECT_LT(local.push_s, rr.push_s);
  // Push + pull per wave: round-robin sends 3/4 of every stage's bytes each
  // way across nodes, local placement nothing.
  EXPECT_EQ(
      PsCrossNodeBytesPerMinibatch(partition, PlacementPolicy::kLocal, cluster_.num_nodes(), 1),
      0u);
  EXPECT_GT(PsCrossNodeBytesPerMinibatch(partition, PlacementPolicy::kRoundRobin,
                                         cluster_.num_nodes(), 1),
            graph_.total_param_bytes());
}

TEST_F(PsCommTest, PushPullSymmetric) {
  const partition::Partition partition = EdPartition(1);
  const VwCommTimes t = ComputePsCommTimes(partition, cluster_, PlacementPolicy::kRoundRobin);
  EXPECT_DOUBLE_EQ(t.push_s, t.pull_s);
  EXPECT_GT(t.push_s, 0.0);
}

TEST_F(PsCommTest, RoundRobinRidesTheSlowestResolvedPairLink) {
  // With per-pair links, a node's remote PS bytes funnel over its slowest
  // inter-node link: degrading one pair must slow round-robin push/pull,
  // while a topology-free spec of the same shape stays bit-identical to the
  // shared-link model.
  const char* kBase = "node 1xV; node 1xV; node 1xV; node 1xV";
  const hw::Cluster uniform = hw::ClusterSpec::Parse(kBase).Build();
  const hw::Cluster degraded =
      hw::ClusterSpec::Parse(std::string(kBase) + "; link node0<->node3 gbits 1").Build();

  const model::ModelProfile profile(graph_, 32);
  const partition::Partitioner partitioner(profile, uniform);
  partition::PartitionOptions options;
  options.nm = 1;
  options.search_gpu_orders = false;  // same stage order on both clusters
  const partition::Partition partition = partitioner.SolveScalable({0, 1, 2, 3}, options);
  ASSERT_TRUE(partition.feasible);

  const VwCommTimes flat =
      ComputePsCommTimes(partition, uniform, PlacementPolicy::kRoundRobin);
  const VwCommTimes slow =
      ComputePsCommTimes(partition, degraded, PlacementPolicy::kRoundRobin);
  EXPECT_GT(slow.push_s, flat.push_s);
  // Local placement moves nothing across nodes, so the bad cable is free.
  EXPECT_DOUBLE_EQ(ComputePsCommTimes(partition, degraded, PlacementPolicy::kLocal).push_s,
                   ComputePsCommTimes(partition, uniform, PlacementPolicy::kLocal).push_s);
}

// ---- WSP coordinator in a controlled simulation. ----

// A scripted "virtual worker" that completes waves at fixed intervals and
// asks the coordinator before each injection.
struct ScriptedVw final : sim::EventTarget {
  ScriptedVw(sim::Simulator& s, WspCoordinator& c, int id, int nm, double wave_period,
             int64_t waves)
      : events(s), coord(&c), vw(id), nm(nm), period(wave_period), total_waves(waves) {}

  void Start() { ScheduleNext(); }

  void ScheduleNext() {
    if (wave >= total_waves) {
      return;
    }
    const int64_t p = wave * nm + 1;  // first minibatch of the wave
    const bool ok = coord->RequestInjection(vw, p, this);
    if (!ok) {
      ++blocked_count;
      return;
    }
    events.Schedule(period, [this] {
      coord->OnWaveComplete(vw, wave);
      ++wave;
      ScheduleNext();
    });
  }

  // The coordinator's wake: retry the refused injection.
  void OnEvent(uint32_t /*kind*/, uint32_t /*a*/, int64_t /*b*/) override { ScheduleNext(); }

  sim::CallbackTarget events;
  WspCoordinator* coord;
  int vw;
  int nm;
  double period;
  int64_t total_waves;
  int64_t wave = 0;
  int blocked_count = 0;
};

TEST(WspCoordinatorTest, GlobalWaveAdvancesOnlyWhenAllPush) {
  sim::Simulator simulator;
  WspCoordinatorOptions options;
  options.num_vws = 2;
  options.nm = 4;
  options.policy = SyncPolicy::Wsp(0);
  std::vector<VwCommTimes> comm(2);  // zero-cost comm
  WspCoordinator coordinator(simulator, options, comm);

  coordinator.OnWaveComplete(0, 0);
  simulator.Run();
  EXPECT_EQ(coordinator.global_wave(), -1);
  coordinator.OnWaveComplete(1, 0);
  simulator.Run();
  EXPECT_EQ(coordinator.global_wave(), 0);
}

TEST(WspCoordinatorTest, SlowWorkerThrottlesFastOneAtD0) {
  sim::Simulator simulator;
  WspCoordinatorOptions options;
  options.num_vws = 2;
  options.nm = 2;
  options.policy = SyncPolicy::Wsp(0);
  std::vector<VwCommTimes> comm(2);
  WspCoordinator coordinator(simulator, options, comm);

  ScriptedVw fast(simulator, coordinator, 0, 2, 1.0, 20);
  ScriptedVw slow(simulator, coordinator, 1, 2, 3.0, 20);
  fast.Start();
  slow.Start();
  simulator.Run();
  EXPECT_EQ(fast.wave, 20);
  EXPECT_EQ(slow.wave, 20);
  EXPECT_GT(fast.blocked_count, 0);       // the fast VW had to wait
  EXPECT_EQ(slow.blocked_count, 0);       // the slow one never does
  EXPECT_GE(coordinator.clock_distance().max(), 1.0);
}

TEST(WspCoordinatorTest, LargerDReducesBlocking) {
  int blocked_d0 = 0;
  int blocked_d4 = 0;
  for (int d : {0, 4}) {
    sim::Simulator simulator;
    WspCoordinatorOptions options;
    options.num_vws = 2;
    options.nm = 2;
    options.policy = SyncPolicy::Wsp(d);
    std::vector<VwCommTimes> comm(2);
    WspCoordinator coordinator(simulator, options, comm);
    ScriptedVw fast(simulator, coordinator, 0, 2, 1.0, 30);
    ScriptedVw slow(simulator, coordinator, 1, 2, 1.5, 30);
    fast.Start();
    slow.Start();
    simulator.Run();
    if (d == 0) {
      blocked_d0 = fast.blocked_count;
    } else {
      blocked_d4 = fast.blocked_count;
    }
  }
  EXPECT_LT(blocked_d4, blocked_d0);
}

TEST(WspCoordinatorTest, AspNeverBlocks) {
  sim::Simulator simulator;
  WspCoordinatorOptions options;
  options.num_vws = 2;
  options.nm = 2;
  options.policy = SyncPolicy::Asp();
  std::vector<VwCommTimes> comm(2);
  WspCoordinator coordinator(simulator, options, comm);
  ScriptedVw fast(simulator, coordinator, 0, 2, 1.0, 25);
  ScriptedVw slow(simulator, coordinator, 1, 2, 10.0, 25);
  fast.Start();
  slow.Start();
  simulator.Run();
  EXPECT_EQ(fast.blocked_count, 0);
  EXPECT_EQ(slow.blocked_count, 0);
}

TEST(WspCoordinatorTest, PullLatencyDelaysResume) {
  sim::Simulator simulator;
  WspCoordinatorOptions options;
  options.num_vws = 2;
  options.nm = 1;  // BSP-style for a crisp timing check
  options.policy = SyncPolicy::Wsp(0);
  std::vector<VwCommTimes> comm(2);
  comm[0].pull_s = 0.5;
  comm[1].pull_s = 0.5;
  WspCoordinator coordinator(simulator, options, comm);

  // Worker 0 finishes wave 0 at t=0 and immediately wants minibatch 2 (which
  // requires global wave 0); worker 1 pushes wave 0 at t=2.
  sim::CallbackTarget events(simulator);
  bool resumed = false;
  double resume_time = -1.0;
  coordinator.OnWaveComplete(0, 0);
  sim::WakeTarget resume([&] {
    resumed = true;
    resume_time = simulator.now();
  });
  events.Schedule(0.0, [&] {
    if (!coordinator.RequestInjection(0, 2, &resume)) {
      // blocked as expected
    } else {
      resumed = true;
      resume_time = simulator.now();
    }
  });
  events.Schedule(2.0, [&] { coordinator.OnWaveComplete(1, 0); });
  simulator.Run();
  ASSERT_TRUE(resumed);
  // Global wave completes at t=2, pull takes 0.5.
  EXPECT_NEAR(resume_time, 2.5, 1e-9);
}

}  // namespace
}  // namespace hetpipe::wsp
