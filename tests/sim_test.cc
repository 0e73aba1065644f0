#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "oracles/reference.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim_callbacks.h"

namespace hetpipe::sim {
namespace {

// Records every event it receives, with the clock at dispatch.
struct RecordingTarget final : EventTarget {
  struct Received {
    const RecordingTarget* target;
    uint32_t kind;
    uint32_t a;
    int64_t b;
    SimTime at;
    bool operator==(const Received& o) const {
      return target == o.target && kind == o.kind && a == o.a && b == o.b && at == o.at;
    }
  };

  RecordingTarget(const Simulator* simulator, std::vector<Received>* log)
      : simulator(simulator), log(log) {}
  void OnEvent(uint32_t kind, uint32_t a, int64_t b) override {
    log->push_back({this, kind, a, b, simulator->now()});
  }

  const Simulator* simulator;
  std::vector<Received>* log;
};

std::vector<uint32_t> DrainArgs(EventQueue& q) {
  std::vector<uint32_t> args;
  while (!q.empty()) {
    args.push_back(q.Pop().a);
  }
  return args;
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  RecordingTarget target(nullptr, nullptr);
  q.Push(3.0, &target, 0, 3, 0);
  q.Push(1.0, &target, 0, 1, 0);
  q.Push(2.0, &target, 0, 2, 0);
  EXPECT_EQ(DrainArgs(q), (std::vector<uint32_t>{1, 2, 3}));
}

TEST(EventQueueTest, BreaksTiesByInsertionOrder) {
  EventQueue q;
  RecordingTarget target(nullptr, nullptr);
  for (uint32_t i = 0; i < 10; ++i) {
    q.Push(5.0, &target, 0, i, 0);
  }
  EXPECT_EQ(DrainArgs(q), (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueueTest, SizeTracksPushPop) {
  EventQueue q;
  RecordingTarget target(nullptr, nullptr);
  EXPECT_TRUE(q.empty());
  q.Push(1.0, &target, 0, 0, 0);
  q.Push(2.0, &target, 0, 0, 0);
  EXPECT_EQ(q.size(), 2u);
  q.Pop();
  EXPECT_EQ(q.size(), 1u);
}

// Seeded random interleavings of Push and Pop with heavy time ties: the pop
// sequence must be exactly the (time, seq) order of a sorted reference.
TEST(EventQueueTest, PopOrderMatchesSortedReferenceUnderTies) {
  constexpr int kPushPhaseOps = 2000;  // then drain
  RecordingTarget target(nullptr, nullptr);
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
        const uint64_t seq = q.Push(time, &target, 0, 0, 0);
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

// The simulator's dispatch pattern: pop one event, then push 0, 1 or 2, at
// the popped instant, between it and the remaining top, or later. A push
// right after a pop fills the slot the pop left open at the root; a
// TopTime() asked first, on some steps, settles that slot instead. The pop
// sequence must still be the (time, seq) order of a sorted reference, and
// size(), empty() and TopTime() must be right while the slot is open.
TEST(EventQueueTest, PopThenPushMatchesSortedReference) {
  constexpr int kDispatchSteps = 3000;  // then drain
  RecordingTarget target(nullptr, nullptr);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<std::pair<SimTime, uint64_t>> pending;  // reference multiset
    const auto push = [&](SimTime time) {
      pending.emplace_back(time, q.Push(time, &target, 0, 0, 0));
    };
    for (int64_t i = rng.UniformInt(1, 32); i > 0; --i) {
      push(0.125 * static_cast<double>(rng.UniformInt(0, 15)));
    }
    int filled_slots = 0;  // pushes that landed in the slot a pop left open
    for (int step = 0; !pending.empty(); ++step) {
      const auto earliest = std::min_element(pending.begin(), pending.end());
      const std::pair<SimTime, uint64_t> want = *earliest;
      pending.erase(earliest);
      const Event event = q.Pop();
      ASSERT_EQ(std::make_pair(event.time, event.seq), want) << "seed " << seed;
      ASSERT_EQ(q.size(), pending.size());
      ASSERT_EQ(q.empty(), pending.empty());
      if (step >= kDispatchSteps) {
        continue;
      }
      const SimTime top = pending.empty()
                              ? event.time + 1.0
                              : std::min_element(pending.begin(), pending.end())->first;
      bool slot_open = true;
      if (!pending.empty() && rng.NextDouble() < 0.25) {
        ASSERT_EQ(q.TopTime(), top);  // settles the open slot
        ASSERT_EQ(q.size(), pending.size());
        slot_open = false;
      }
      int64_t pushes = rng.UniformInt(0, 2);
      if (pending.empty() && pushes == 0) {
        pushes = 1;
      }
      for (; pushes > 0; --pushes) {
        filled_slots += slot_open ? 1 : 0;
        slot_open = false;
        switch (rng.UniformInt(0, 2)) {
          case 0:
            push(event.time);
            break;
          case 1:
            push(event.time + 0.5 * (top - event.time));
            break;
          default:
            push(event.time + 0.125 * static_cast<double>(rng.UniformInt(1, 15)));
            break;
        }
        ASSERT_EQ(q.size(), pending.size());
        ASSERT_EQ(q.TopTime(),
                  std::min_element(pending.begin(), pending.end())->first);
      }
    }
    EXPECT_TRUE(q.empty());
    EXPECT_GT(filled_slots, kDispatchSteps / 3) << "seed " << seed;
  }
}

// Every field of the record comes back as pushed, extremes included, through
// heaps that grow and shrink across rounds.
TEST(EventQueueTest, PoppedEventIsTheOnePushed) {
  EventQueue q;
  RecordingTarget first(nullptr, nullptr);
  RecordingTarget second(nullptr, nullptr);
  struct Pushed {
    EventTarget* target;
    uint32_t kind;
    uint32_t a;
    int64_t b;
  };
  const std::vector<Pushed> pushed = {
      {&first, 0, 0, 0},
      {&second, 7, UINT32_MAX, -1},
      {&first, UINT32_MAX, 12345, std::numeric_limits<int64_t>::min()},
      {&second, 1, UINT32_MAX - 1, std::numeric_limits<int64_t>::max()},
      {&first, 2, 42, -987654321012LL},
  };
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < pushed.size(); ++i) {
      const Pushed& p = pushed[i];
      q.Push(static_cast<double>(pushed.size() - i) + 10.0 * round, p.target, p.kind, p.a, p.b);
    }
    for (size_t i = pushed.size(); i-- > 0;) {
      const Event event = q.Pop();
      const Pushed& p = pushed[i];
      EXPECT_EQ(event.time, static_cast<double>(pushed.size() - i) + 10.0 * round);
      EXPECT_EQ(event.target, p.target);
      EXPECT_EQ(event.kind, p.kind);
      EXPECT_EQ(event.a, p.a);
      EXPECT_EQ(event.b, p.b);
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueueDeathTest, EmptyQueueAccessIsRejectedInDebugBuilds) {
#ifdef NDEBUG
  // Without the assert the calls read past an empty vector; nothing to run.
  GTEST_SKIP() << "assertions are compiled out";
#else
  EventQueue q;
  EXPECT_DEATH(q.Pop(), "empty event queue");
  EXPECT_DEATH(q.TopTime(), "empty event queue");
#endif
}

TEST(SimulatorTest, AdvancesTimeToEventTimestamps) {
  Simulator sim;
  CallbackTarget events(sim);
  std::vector<double> seen;
  events.Schedule(1.5, [&] { seen.push_back(sim.now()); });
  events.Schedule(0.5, [&] { seen.push_back(sim.now()); });
  sim.Run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0], 0.5);
  EXPECT_DOUBLE_EQ(seen[1], 1.5);
}

TEST(SimulatorTest, NestedSchedulingWorks) {
  Simulator sim;
  CallbackTarget events(sim);
  int fired = 0;
  events.Schedule(1.0, [&] {
    ++fired;
    events.Schedule(1.0, [&] {
      ++fired;
      EXPECT_DOUBLE_EQ(sim.now(), 2.0);
    });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.events_processed(), 2u);
}

// Actions that schedule events while they are being dispatched: the
// callback target's action vector and the queue's heap grow underneath the
// running action, which must therefore already have been moved out of its
// slot. Each action reads
// its capture again after scheduling, and the 64-byte capture keeps it out of
// std::function's inline buffer, so an action destroyed or moved while it
// runs shows up as a wrong id (or under ASan as a use after free).
TEST(SimulatorTest, ActionsScheduledDuringDispatchFireInOrder) {
  Simulator sim;
  CallbackTarget events(sim);
  std::vector<std::pair<SimTime, int>> fired;
  int next_id = 0;
  std::function<void(int)> spawn = [&](int depth) {
    if (depth == 0) {
      return;
    }
    // Fan out six children, half of them tied.
    for (int c = 0; c < 6; ++c) {
      std::array<int, 16> payload;
      payload.fill(++next_id);
      events.Schedule(0.5 * static_cast<double>(c % 3), [&, payload, depth] {
        spawn(depth - 1);
        fired.emplace_back(sim.now(), payload[0] == payload[15] ? payload[15] : -1);
      });
    }
  };
  events.Schedule(1.0, [&] {
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
  CallbackTarget events(sim);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  int fired = 0;
  EXPECT_THROW(events.Schedule(nan, [&] { ++fired; }), std::invalid_argument);
  EXPECT_THROW(events.ScheduleAt(nan, [&] { ++fired; }), std::invalid_argument);
  // A rejected event is not queued, and the queue still orders the rest.
  events.Schedule(2.0, [&] { fired += 10; });
  events.Schedule(1.0, [&] {
    EXPECT_THROW(events.Schedule(nan, [&] { ++fired; }), std::invalid_argument);
    fired += 100;
  });
  sim.Run();
  EXPECT_EQ(fired, 110);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimulatorTest, NullTargetIsRejected) {
  Simulator sim;
  std::vector<RecordingTarget::Received> log;
  RecordingTarget target(&sim, &log);
  EXPECT_THROW(sim.ScheduleAt(1.0, nullptr, 0, 0, 0), std::invalid_argument);
  sim.ScheduleAt(1.0, &target, 3, 4, 5);
  sim.Run();
  EXPECT_EQ(log, (std::vector<RecordingTarget::Received>{{&target, 3, 4, 5, 1.0}}));
  EXPECT_EQ(sim.events_processed(), 1u);
}

// Two typed targets and the callback adapter schedule into one queue at tied
// times: dispatch is FIFO by schedule order across targets, and Stop() and
// RunUntil leave the clock where they always have.
TEST(SimulatorTest, TiedEventsDispatchInScheduleOrderAcrossTargets) {
  Simulator sim;
  std::vector<RecordingTarget::Received> log;
  RecordingTarget x(&sim, &log);
  RecordingTarget y(&sim, &log);
  CallbackTarget events(sim);
  events.Schedule(1.0, [&] {
    log.push_back({nullptr, 99, 0, 0, sim.now()});
    sim.Stop();
  });
  sim.ScheduleAt(1.0, &y, 1, 10, -10);
  sim.ScheduleAt(1.0, &x, 2, 20, -20);
  sim.ScheduleAt(2.0, &x, 3, 30, -30);
  events.ScheduleAt(2.0, [&] {
    log.push_back({nullptr, 98, 0, 0, sim.now()});
    // Scheduled at the current instant: after everything already tied here.
    sim.ScheduleAt(sim.now(), &x, 5, 50, -50);
  });
  sim.ScheduleAt(2.0, &y, 4, 40, -40);

  // The callback stops the run at t = 1 before the tied typed events.
  sim.RunUntil(5.0);
  EXPECT_EQ(sim.now(), 1.0);
  EXPECT_EQ(log, (std::vector<RecordingTarget::Received>{{nullptr, 99, 0, 0, 1.0}}));

  // Resumes with the rest of t = 1 and stops short of t = 2.
  sim.RunUntil(1.5);
  EXPECT_EQ(sim.now(), 1.5);
  sim.RunUntil(2.0);
  EXPECT_EQ(sim.now(), 2.0);
  const std::vector<RecordingTarget::Received> want = {
      {nullptr, 99, 0, 0, 1.0}, {&y, 1, 10, -10, 1.0}, {&x, 2, 20, -20, 1.0},
      {&x, 3, 30, -30, 2.0},    {nullptr, 98, 0, 0, 2.0}, {&y, 4, 40, -40, 2.0},
      {&x, 5, 50, -50, 2.0},
  };
  EXPECT_EQ(log, want);
  EXPECT_EQ(sim.events_processed(), 7u);

  // A drained window still advances the clock to its deadline.
  sim.RunUntil(3.0);
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, InfiniteTimeFiresOnlyUnderRun) {
  Simulator sim;
  CallbackTarget events(sim);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<int> order;
  events.Schedule(inf, [&] { order.push_back(2); });
  events.ScheduleAt(inf, [&] { order.push_back(3); });
  events.Schedule(5.0, [&] { order.push_back(1); });
  events.Schedule(-inf, [&] { order.push_back(0); });  // clamps to now
  sim.RunUntil(100.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(std::isinf(sim.now()));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  CallbackTarget events(sim);
  int fired = 0;
  events.Schedule(1.0, [&] { ++fired; });
  events.Schedule(5.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtExactDeadlineFires) {
  Simulator sim;
  CallbackTarget events(sim);
  int fired = 0;
  events.Schedule(2.0, [&] { ++fired; });
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
  CallbackTarget events(sim);
  events.Schedule(1.0, [] {});
  sim.RunUntil(5.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // not 1.0: the interval to 5.0 elapsed

  // Back-to-back windows see a monotone clock even with nothing queued.
  sim.RunUntil(7.0);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);

  // Relative scheduling after a drained window anchors at the deadline.
  double fired_at = -1.0;
  events.Schedule(1.0, [&] { fired_at = sim.now(); });
  sim.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 8.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);

  // Run() (infinite deadline) still leaves the clock at the last event.
  Simulator open_ended;
  CallbackTarget open_ended_events(open_ended);
  open_ended_events.Schedule(3.0, [] {});
  open_ended.Run();
  EXPECT_DOUBLE_EQ(open_ended.now(), 3.0);

  // A Stop() inside the window leaves the clock at the stopping event.
  Simulator stopped;
  CallbackTarget stopped_events(stopped);
  stopped_events.Schedule(1.0, [&] { stopped.Stop(); });
  stopped.RunUntil(9.0);
  EXPECT_DOUBLE_EQ(stopped.now(), 1.0);
}

// Stop() from handlers that schedule nothing (the popped slot stays open)
// and from one that schedules at now(), each followed by RunUntil windows:
// the clock never moves backwards and every event fires once, in order.
TEST(SimulatorTest, StopThenRunUntilKeepsTheClockMonotone) {
  Simulator sim;
  CallbackTarget events(sim);
  std::vector<int> fired;
  events.Schedule(1.0, [&] {
    fired.push_back(1);
    sim.Stop();
  });
  events.Schedule(2.0, [&] {
    fired.push_back(2);
    events.Schedule(0.0, [&] { fired.push_back(3); });
    sim.Stop();
  });
  events.Schedule(4.0, [&] {
    fired.push_back(4);
    sim.Stop();
  });
  struct Window {
    SimTime deadline;
    SimTime now_after;
    size_t fired_after;
  };
  const std::vector<Window> windows = {
      {10.0, 1.0, 1}, {1.5, 1.5, 1}, {1.5, 1.5, 1}, {3.0, 2.0, 2},
      {2.0, 2.0, 3},  {3.5, 3.5, 3}, {4.0, 4.0, 4}, {6.0, 6.0, 4},
  };
  SimTime last = sim.now();
  for (const Window& w : windows) {
    sim.RunUntil(w.deadline);
    EXPECT_EQ(sim.now(), w.now_after) << "RunUntil(" << w.deadline << ")";
    EXPECT_EQ(fired.size(), w.fired_after) << "RunUntil(" << w.deadline << ")";
    EXPECT_GE(sim.now(), last);
    last = sim.now();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.events_processed(), 4u);
}

// A deadline before now() fires nothing and leaves the clock, both with an
// event still queued past it and with the queue drained: a later
// ScheduleAt(0.0) clamps to the time the simulator has reached, not to the
// earlier deadline.
TEST(SimulatorTest, EarlierDeadlineNeverMovesTheClockBack) {
  Simulator sim;
  CallbackTarget events(sim);
  std::vector<SimTime> fired;
  events.ScheduleAt(6.0, [&] { fired.push_back(sim.now()); });
  sim.RunUntil(5.0);
  EXPECT_EQ(sim.now(), 5.0);
  sim.RunUntil(3.0);
  EXPECT_EQ(sim.now(), 5.0);
  EXPECT_TRUE(fired.empty());
  events.ScheduleAt(0.0, [&] { fired.push_back(sim.now()); });
  sim.RunUntil(4.0);
  EXPECT_EQ(sim.now(), 5.0);
  EXPECT_TRUE(fired.empty()) << "an event at now() is not before an earlier deadline";
  sim.RunUntil(5.0);
  EXPECT_EQ(fired, (std::vector<SimTime>{5.0}));
  sim.RunUntil(6.0);
  EXPECT_EQ(fired, (std::vector<SimTime>{5.0, 6.0}));

  // Drained queue: the clock stays at the later of the two deadlines.
  sim.RunUntil(8.0);
  sim.RunUntil(2.0);
  EXPECT_EQ(sim.now(), 8.0);
  EXPECT_EQ(sim.events_processed(), 2u);
}

// A NaN deadline compares false against every event time; RunUntil rejects
// it instead of running the queue dry, and leaves queue and clock as they were.
TEST(SimulatorTest, NanDeadlineIsRejected) {
  Simulator sim;
  CallbackTarget events(sim);
  int fired = 0;
  events.ScheduleAt(1.0, [&] { ++fired; });
  events.ScheduleAt(9.0, [&] { ++fired; });
  sim.RunUntil(2.0);
  EXPECT_THROW(sim.RunUntil(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 2.0);
  sim.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 9.0);
}

TEST(SimulatorTest, StopHaltsDispatch) {
  Simulator sim;
  CallbackTarget events(sim);
  int fired = 0;
  events.Schedule(1.0, [&] {
    ++fired;
    sim.Stop();
  });
  events.Schedule(2.0, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  sim.Run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  CallbackTarget events(sim);
  double at = -1.0;
  events.Schedule(1.0, [&] { events.Schedule(-5.0, [&] { at = sim.now(); }); });
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
      EXPECT_EQ(tracker.Utilization(from, to), oracles::UtilizationFullScan(intervals, from, to))
          << "seed " << seed << " window [" << from << ", " << to << ")";
    }
  }
}

// Sweeps `windows` in order with one cursor; every window must equal the
// full-scan oracle and the binary-searched Utilization bit for bit.
void ExpectSweepMatchesFullScan(const BusyTracker& tracker,
                                const std::vector<std::pair<SimTime, SimTime>>& intervals,
                                const std::vector<std::pair<SimTime, SimTime>>& windows,
                                uint64_t seed) {
  size_t cursor = 0;
  for (const auto& [from, to] : windows) {
    const double swept = tracker.SweepUtilization(&cursor, from, to);
    EXPECT_EQ(swept, oracles::UtilizationFullScan(intervals, from, to))
        << "seed " << seed << " window [" << from << ", " << to << ")";
    EXPECT_EQ(swept, tracker.Utilization(from, to))
        << "seed " << seed << " window [" << from << ", " << to << ")";
  }
}

TEST(BusyTrackerTest, CursorSweepEqualsFullScanOnHandPickedWindows) {
  BusyTracker tracker;
  const std::vector<std::pair<SimTime, SimTime>> intervals = {{0.0, 1.0}, {2.0, 3.0}, {3.0, 4.0}};
  for (const auto& [start, end] : intervals) {
    tracker.AddBusy(start, end);
  }
  const std::vector<std::pair<SimTime, SimTime>> windows = {
      {-1.0, 0.0},  // ends on the first interval's start edge
      {0.0, 0.0},   // zero length, on an edge
      {0.0, 0.5},   // [0, 1) straddles this window and the next
      {0.5, 2.5},   // and [2, 3) this one and the next
      {2.5, 3.0},   // ends on the edge two intervals share
      {3.0, 3.0},   // zero length, on that edge
      {3.0, 3.5},
      {3.5, 3.5},   // zero length, inside an interval
      {4.0, 6.0},   // starts on the last interval's end edge
      {7.0, 8.0},   // past the last interval
  };
  ExpectSweepMatchesFullScan(tracker, intervals, windows, 0);
  size_t cursor = 0;
  EXPECT_EQ(tracker.SweepUtilization(&cursor, 0.5, 2.5), 0.5);
  EXPECT_EQ(tracker.SweepUtilization(&cursor, 7.0, 8.0), 0.0);
  EXPECT_EQ(cursor, intervals.size());
}

TEST(BusyTrackerTest, CursorSweepEqualsFullScan) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    BusyTracker tracker;
    std::vector<std::pair<SimTime, SimTime>> intervals;
    std::vector<SimTime> points;  // candidate window edges
    SimTime t = rng.Uniform(0.0, 2.0);
    const int n = static_cast<int>(rng.UniformInt(0, 60));
    for (int i = 0; i < n; ++i) {
      t += rng.NextDouble() < 0.3 ? 0.0 : rng.Uniform(0.0, 1.5);
      const SimTime end = t + rng.Uniform(0.01, 2.0);
      tracker.AddBusy(t, end);
      intervals.emplace_back(t, end);
      points.push_back(t);
      points.push_back(0.5 * (t + end));  // a window edge inside the interval
      points.push_back(end);
      t = end;
    }
    for (int i = 0; i < 40; ++i) {
      points.push_back(rng.Uniform(-1.0, t + 1.0));
    }
    std::sort(points.begin(), points.end());
    // Time-ordered windows, as a virtual worker's waits are: consecutive
    // windows share an edge or leave a gap, and some have zero length.
    std::vector<std::pair<SimTime, SimTime>> windows;
    for (size_t i = 0; i + 1 < points.size();) {
      if (rng.NextDouble() < 0.15) {
        windows.emplace_back(points[i], points[i]);
        continue;
      }
      const size_t j =
          std::min(points.size() - 1, i + 1 + static_cast<size_t>(rng.UniformInt(0, 2)));
      windows.emplace_back(points[i], points[j]);
      i = rng.NextDouble() < 0.5 ? j : j + 1;
    }
    windows.emplace_back(t + 0.5, t + 2.0);  // past the last interval
    ExpectSweepMatchesFullScan(tracker, intervals, windows, seed);
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

TEST(RngTest, UniformIntDrawsMatchTheModuloOfOneRawDraw) {
  Rng rng(13);
  Rng raw(13);
  const std::pair<int64_t, int64_t> ranges[] = {{0, 3}, {-5, 9}, {-1000000, -999990}, {0, 1}};
  for (int i = 0; i < 400; ++i) {
    const auto [lo, hi] = ranges[i % 4];
    const auto span = static_cast<uint64_t>(hi - lo) + 1;
    EXPECT_EQ(rng.UniformInt(lo, hi), lo + static_cast<int64_t>(raw.NextU64() % span));
  }
}

TEST(RngTest, UniformIntFullRangeReturnsTheRawDraw) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(14);
  Rng raw(14);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.UniformInt(kMin, kMax), static_cast<int64_t>(raw.NextU64()));
  }
  // One short of the full range: still in range, no overflow.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(kMin, kMax - 1), kMax);
    EXPECT_GT(rng.UniformInt(kMin + 1, kMax), kMin);
  }
}

TEST(RngTest, UniformIntSinglePointRange) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(15);
  for (int64_t v : {int64_t{0}, int64_t{-7}, int64_t{42}, kMin, kMax}) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(rng.UniformInt(v, v), v);
    }
  }
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

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// Reads `n` values from `stream` and counts those whose bits differ from the
// next `n` of `reference.Normal()`.
int CountMismatches(NormalStream& stream, Rng& reference, size_t n) {
  int mismatches = 0;
  for (size_t i = 0; i < n; ++i) {
    mismatches += Bits(stream.Next()) != Bits(reference.Normal());
  }
  return mismatches;
}

// The virtual workers' seeds at the default seed 42.
uint64_t VwSeed(uint64_t v) { return 42 + v * 0x9e3779b9ULL; }

constexpr size_t kPastCap = NormalStream::kMaxValuesPerSeed + 1000;

TEST(NormalStreamTest, MatchesRngNormalBitForBit) {
  {
    SCOPED_TRACE("the virtual workers' seeds, past the per-seed cap");
    for (uint64_t v = 0; v < 4; ++v) {
      NormalStream stream(VwSeed(v));
      Rng reference(VwSeed(v));
      EXPECT_EQ(CountMismatches(stream, reference, kPastCap), 0);
    }
    // A second pass reads the filled tables, then continues past the cap.
    for (uint64_t v = 0; v < 4; ++v) {
      NormalStream stream(VwSeed(v));
      Rng reference(VwSeed(v));
      EXPECT_EQ(CountMismatches(stream, reference, kPastCap), 0);
    }
  }
  {
    SCOPED_TRACE("two streams of one seed, interleaved at different positions");
    const uint64_t seed = 0x5eed0001;
    NormalStream ahead(seed);
    NormalStream behind(seed);
    Rng ahead_ref(seed);
    Rng behind_ref(seed);
    EXPECT_EQ(CountMismatches(ahead, ahead_ref, 101), 0);
    for (int round = 0; round < 300; ++round) {
      EXPECT_EQ(CountMismatches(ahead, ahead_ref, 3), 0);
      EXPECT_EQ(CountMismatches(behind, behind_ref, 1 + round % 5), 0);
    }
  }
  {
    SCOPED_TRACE("a stream starting on a table an earlier stream filled");
    const uint64_t seed = 0x5eed0002;
    {
      NormalStream first(seed);
      Rng reference(seed);
      EXPECT_EQ(CountMismatches(first, reference, 777), 0);
    }
    NormalStream second(seed);
    Rng reference(seed);
    EXPECT_EQ(CountMismatches(second, reference, 2000), 0);
  }
  {
    SCOPED_TRACE("more seeds than the memo holds, then an evicted seed again");
    const uint64_t base = 0x5eed1000;
    NormalStream held(base);
    Rng held_ref(base);
    EXPECT_EQ(CountMismatches(held, held_ref, 50), 0);
    for (uint64_t i = 1; i <= 2 * NormalStream::kMaxSeedsPerThread; ++i) {
      NormalStream stream(base + i);
      Rng reference(base + i);
      EXPECT_EQ(CountMismatches(stream, reference, 64), 0);
    }
    // `held`'s table has been evicted; it keeps reading and extending it.
    EXPECT_EQ(CountMismatches(held, held_ref, 500), 0);
    NormalStream again(base);
    Rng again_ref(base);
    EXPECT_EQ(CountMismatches(again, again_ref, 600), 0);
  }
  {
    SCOPED_TRACE("four threads at once, each on its own memo");
    std::vector<int> mismatches(4, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < mismatches.size(); ++t) {
      threads.emplace_back([t, &mismatches] {
        for (int pass = 0; pass < 2; ++pass) {
          for (uint64_t v = 0; v < 4; ++v) {
            NormalStream stream(VwSeed((v + t) % 4));
            Rng reference(VwSeed((v + t) % 4));
            mismatches[t] += CountMismatches(stream, reference, kPastCap);
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    EXPECT_EQ(mismatches, std::vector<int>(4, 0));
  }
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
