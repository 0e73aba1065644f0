#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace hetpipe::sim {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(3.0, [&] { order.push_back(3); });
  q.Push(1.0, [&] { order.push_back(1); });
  q.Push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.Pop().action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, BreaksTiesByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.Pop().action();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, SizeTracksPushPop) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.Pop();
  EXPECT_EQ(q.size(), 1u);
}

// Seeded random interleavings of Push and Pop with heavy time ties: the pop
// sequence must be exactly the (time, seq) order of a sorted reference.
TEST(EventQueueTest, PopOrderMatchesSortedReferenceUnderTies) {
  constexpr int kPushPhaseOps = 2000;  // then drain
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<std::pair<SimTime, uint64_t>> pending;  // reference multiset
    std::vector<std::pair<SimTime, uint64_t>> got;
    std::vector<std::pair<SimTime, uint64_t>> want;
    for (int op = 0; op < kPushPhaseOps || !pending.empty(); ++op) {
      if (op < kPushPhaseOps && (pending.empty() || rng.NextDouble() < 0.55)) {
        // Eight distinct instants, so most pushes tie with a queued event.
        const SimTime time = 0.25 * static_cast<double>(rng.UniformInt(0, 7));
        const uint64_t seq = q.Push(time, [] {});
        pending.emplace_back(time, seq);
      } else {
        const auto earliest = std::min_element(pending.begin(), pending.end());
        want.push_back(*earliest);
        pending.erase(earliest);
        ASSERT_EQ(q.TopTime(), want.back().first);
        const Event event = q.Pop();
        got.emplace_back(event.time, event.seq);
      }
      ASSERT_EQ(q.size(), pending.size());
    }
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(EventQueueTest, PoppedActionIsTheOnePushed) {
  EventQueue q;
  std::vector<int> order;
  for (int round = 0; round < 3; ++round) {  // slots are reused across rounds
    for (int i = 0; i < 5; ++i) {
      q.Push(static_cast<double>(4 - i), [&order, round, i] { order.push_back(10 * round + i); });
    }
    while (!q.empty()) {
      q.Pop().action();
    }
  }
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0, 14, 13, 12, 11, 10, 24, 23, 22, 21, 20}));
}

TEST(SimulatorTest, AdvancesTimeToEventTimestamps) {
  Simulator sim;
  std::vector<double> seen;
  sim.Schedule(1.5, [&] { seen.push_back(sim.now()); });
  sim.Schedule(0.5, [&] { seen.push_back(sim.now()); });
  sim.Run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0], 0.5);
  EXPECT_DOUBLE_EQ(seen[1], 1.5);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] {
    ++fired;
    sim.Schedule(1.0, [&] {
      ++fired;
      EXPECT_DOUBLE_EQ(sim.now(), 2.0);
    });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.events_processed(), 2u);
}

// Actions that schedule events while they are being dispatched: the queue's
// action slab grows and recycles slots underneath the running action, which
// must therefore already have been moved out of its slot. Each action reads
// its capture again after scheduling, and the 64-byte capture keeps it out of
// std::function's inline buffer, so an action destroyed or moved while it
// runs shows up as a wrong id (or under ASan as a use after free).
TEST(SimulatorTest, ActionsScheduledDuringDispatchFireInOrder) {
  Simulator sim;
  std::vector<std::pair<SimTime, int>> fired;
  int next_id = 0;
  std::function<void(int)> spawn = [&](int depth) {
    if (depth == 0) {
      return;
    }
    // Fan out more children than the slab holds, half of them tied.
    for (int c = 0; c < 6; ++c) {
      std::array<int, 16> payload;
      payload.fill(++next_id);
      sim.Schedule(0.5 * static_cast<double>(c % 3), [&, payload, depth] {
        spawn(depth - 1);
        fired.emplace_back(sim.now(), payload[0] == payload[15] ? payload[15] : -1);
      });
    }
  };
  sim.Schedule(1.0, [&] {
    spawn(3);
    fired.emplace_back(sim.now(), 0);
  });
  sim.Run();
  ASSERT_EQ(fired.size(), 1u + 6u + 36u + 216u);

  // Reference: the same spawning tree replayed in (time, schedule order).
  struct Pending {
    SimTime time;
    int seq;
    int id;
    int depth;
  };
  std::vector<Pending> pending{{1.0, 0, 0, 3}};
  std::vector<std::pair<SimTime, int>> want;
  int seq = 0;
  int id = 0;
  while (!pending.empty()) {
    const auto earliest =
        std::min_element(pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
          return a.time != b.time ? a.time < b.time : a.seq < b.seq;
        });
    const Pending event = *earliest;
    pending.erase(earliest);
    want.emplace_back(event.time, event.id);
    if (event.depth > 0) {
      for (int c = 0; c < 6; ++c) {
        pending.push_back(
            {event.time + 0.5 * static_cast<double>(c % 3), ++seq, ++id, event.depth - 1});
      }
    }
  }
  EXPECT_EQ(fired, want);
}

TEST(SimulatorTest, NanTimeIsRejected) {
  Simulator sim;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  int fired = 0;
  EXPECT_THROW(sim.Schedule(nan, [&] { ++fired; }), std::invalid_argument);
  EXPECT_THROW(sim.ScheduleAt(nan, [&] { ++fired; }), std::invalid_argument);
  // A rejected event is not queued, and the queue still orders the rest.
  sim.Schedule(2.0, [&] { fired += 10; });
  sim.Schedule(1.0, [&] {
    EXPECT_THROW(sim.Schedule(nan, [&] { ++fired; }), std::invalid_argument);
    fired += 100;
  });
  sim.Run();
  EXPECT_EQ(fired, 110);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimulatorTest, InfiniteTimeFiresOnlyUnderRun) {
  Simulator sim;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<int> order;
  sim.Schedule(inf, [&] { order.push_back(2); });
  sim.ScheduleAt(inf, [&] { order.push_back(3); });
  sim.Schedule(5.0, [&] { order.push_back(1); });
  sim.Schedule(-inf, [&] { order.push_back(0); });  // clamps to now
  sim.RunUntil(100.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(std::isinf(sim.now()));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Schedule(5.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtExactDeadlineFires) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(2.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenQueueDrainsEarly) {
  // Regression: the queue draining before the deadline used to leave now()
  // at the last event, so a later RunUntil with an earlier-than-last-deadline
  // window observed a non-monotone clock and relative Schedule() calls were
  // anchored at the stale time.
  Simulator sim;
  sim.Schedule(1.0, [] {});
  sim.RunUntil(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // not 1.0: the interval to 5.0 elapsed

  // Back-to-back windows see a monotone clock even with nothing queued.
  sim.RunUntil(7.0);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);

  // Relative scheduling after a drained window anchors at the deadline.
  double fired_at = -1.0;
  sim.Schedule(1.0, [&] { fired_at = sim.now(); });
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 8.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);

  // Run() (infinite deadline) still leaves the clock at the last event.
  Simulator open_ended;
  open_ended.Schedule(3.0, [] {});
  open_ended.Run();
  EXPECT_DOUBLE_EQ(open_ended.now(), 3.0);

  // A Stop() inside the window leaves the clock at the stopping event.
  Simulator stopped;
  stopped.Schedule(1.0, [&] { stopped.Stop(); });
  stopped.RunUntil(9.0);
  EXPECT_DOUBLE_EQ(stopped.now(), 1.0);
}

TEST(SimulatorTest, StopHaltsDispatch) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(2.0, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  double at = -1.0;
  sim.Schedule(1.0, [&] { sim.Schedule(-5.0, [&] { at = sim.now(); }); });
  sim.Run();
  EXPECT_DOUBLE_EQ(at, 1.0);
}

TEST(AccumulatorTest, BasicMoments) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    acc.Add(v);
  }
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 5.0 / 3.0, 1e-12);
}

TEST(AccumulatorTest, EmptyIsSafe) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(AccumulatorTest, SingleSampleHasZeroVariance) {
  Accumulator acc;
  acc.Add(7.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 7.0);
}

TEST(BusyTrackerTest, UtilizationWithinWindow) {
  BusyTracker tracker;
  tracker.AddBusy(0.0, 1.0);
  tracker.AddBusy(2.0, 3.0);
  EXPECT_DOUBLE_EQ(tracker.busy_time(), 2.0);
  EXPECT_DOUBLE_EQ(tracker.Utilization(0.0, 4.0), 0.5);
  // Partial overlap with the window.
  EXPECT_DOUBLE_EQ(tracker.Utilization(0.5, 2.5), 0.5);
}

TEST(BusyTrackerTest, IgnoresEmptyIntervalsAndEmptyWindows) {
  BusyTracker tracker;
  tracker.AddBusy(1.0, 1.0);
  tracker.AddBusy(2.0, 1.0);  // end < start: ignored
  EXPECT_DOUBLE_EQ(tracker.busy_time(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.Utilization(5.0, 5.0), 0.0);
}

// The full scan Utilization used before it binary-searched the window.
double FullScanUtilization(const std::vector<std::pair<SimTime, SimTime>>& intervals,
                           SimTime window_start, SimTime window_end) {
  const SimTime window = window_end - window_start;
  if (window <= 0.0) {
    return 0.0;
  }
  SimTime busy_in_window = 0.0;
  for (const auto& [start, end] : intervals) {
    const SimTime s = std::max(start, window_start);
    const SimTime e = std::min(end, window_end);
    if (e > s) {
      busy_in_window += e - s;
    }
  }
  return std::min(1.0, busy_in_window / window);
}

TEST(BusyTrackerTest, WindowedUtilizationEqualsFullScan) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    BusyTracker tracker;
    std::vector<std::pair<SimTime, SimTime>> intervals;
    std::vector<SimTime> edges;
    SimTime t = rng.Uniform(0.0, 2.0);
    const int n = static_cast<int>(rng.UniformInt(0, 60));
    for (int i = 0; i < n; ++i) {
      // Some intervals touch their predecessor (zero gap).
      t += rng.NextDouble() < 0.3 ? 0.0 : rng.Uniform(0.0, 1.5);
      const SimTime end = t + rng.Uniform(0.01, 2.0);
      tracker.AddBusy(t, end);
      intervals.emplace_back(t, end);
      edges.push_back(t);
      edges.push_back(end);
      t = end;
    }
    std::vector<std::pair<SimTime, SimTime>> windows = {
        {-5.0, -1.0},         // before every interval
        {t + 1.0, t + 9.0},   // after every interval
        {-1.0, t + 1.0},      // around all of them
        {3.0, 3.0},           // zero width
        {4.0, 2.0},           // negative width
    };
    for (size_t i = 0; i + 1 < edges.size(); ++i) {
      windows.emplace_back(edges[i], edges[i + 1]);  // exactly on boundaries
      windows.emplace_back(edges[i], edges[i]);
      windows.emplace_back(edges[i] - 0.25, edges[i] + 0.25);  // across an edge
    }
    for (int w = 0; w < 100; ++w) {
      const SimTime a = rng.Uniform(-1.0, t + 1.0);
      windows.emplace_back(a, a + rng.Uniform(0.0, 0.5 * (t + 1.0)));
    }
    for (const auto& [from, to] : windows) {
      EXPECT_EQ(tracker.Utilization(from, to), FullScanUtilization(intervals, from, to))
          << "seed " << seed << " window [" << from << ", " << to << ")";
    }
  }
}

TEST(BusyTrackerDeathTest, OverlappingIntervalIsRejectedInDebugBuilds) {
  BusyTracker tracker;
  tracker.AddBusy(0.0, 1.0);
  tracker.AddBusy(1.0, 2.0);  // touching is fine
  EXPECT_DEBUG_DEATH(tracker.AddBusy(1.5, 3.0), "time order");
}

TEST(TimeSeriesTest, InterpolatesLinearly) {
  TimeSeries series;
  series.Add(0.0, 0.0);
  series.Add(10.0, 1.0);
  EXPECT_DOUBLE_EQ(series.ValueAt(5.0), 0.5);
  EXPECT_DOUBLE_EQ(series.ValueAt(-1.0), 0.0);  // clamps
  EXPECT_DOUBLE_EQ(series.ValueAt(99.0), 1.0);  // clamps
}

TEST(TimeSeriesTest, FirstTimeAtLeastInterpolatesCrossing) {
  TimeSeries series;
  series.Add(0.0, 0.0);
  series.Add(2.0, 0.4);
  series.Add(4.0, 0.8);
  EXPECT_NEAR(series.FirstTimeAtLeast(0.6), 3.0, 1e-12);
  EXPECT_TRUE(std::isinf(series.FirstTimeAtLeast(0.9)));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.NextU64() == b.NextU64());
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(10);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) {
    acc.Add(rng.Normal());
  }
  EXPECT_NEAR(acc.mean(), 0.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(12);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.Shuffle(v.data(), v.size());
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SplitMixTest, KnownNonZeroStream) {
  SplitMix64 sm(0);
  uint64_t prev = sm.Next();
  for (int i = 0; i < 10; ++i) {
    const uint64_t next = sm.Next();
    EXPECT_NE(next, prev);
    prev = next;
  }
}

}  // namespace
}  // namespace hetpipe::sim
