#pragma once

// Lambdas as simulator events and as injection-gate waiters, for tests. The simulator only dispatches
// typed events to an EventTarget; CallbackTarget owns each scheduled
// callback and schedules it as one event of its own, `a` indexing the
// callback. It stores every callback for its lifetime (tests schedule a few
// hundred), so it must outlive the simulator's run.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace hetpipe::sim {

class CallbackTarget final : public EventTarget {
 public:
  explicit CallbackTarget(Simulator& simulator) : simulator_(&simulator) {}
  CallbackTarget(const CallbackTarget&) = delete;
  CallbackTarget& operator=(const CallbackTarget&) = delete;

  // Runs `action` `delay` seconds from now, through Simulator::ScheduleAt:
  // a negative delay fires at the current instant, after the events already
  // queued there, and a NaN delay throws std::invalid_argument before
  // anything is stored.
  void Schedule(SimTime delay, std::function<void()> action) {
    ScheduleAt(simulator_->now() + delay, std::move(action));
  }
  // Runs `action` at absolute time `time` (clamped to now).
  void ScheduleAt(SimTime time, std::function<void()> action) {
    simulator_->ScheduleAt(time, this, kCallback, static_cast<uint32_t>(actions_.size()), 0);
    actions_.push_back(std::move(action));
  }

  void OnEvent(uint32_t /*kind*/, uint32_t a, int64_t /*b*/) override {
    // Moved out first: the action may schedule more callbacks, which grows
    // actions_ underneath it.
    std::function<void()> action = std::move(actions_[a]);
    action();
  }

 private:
  static constexpr uint32_t kCallback = 0;

  Simulator* simulator_;
  std::vector<std::function<void()>> actions_;
};

// A lambda as the waiter a pipeline::InjectionGate wakes: the gate calls
// OnEvent directly when it permits the injection it refused.
class WakeTarget final : public EventTarget {
 public:
  explicit WakeTarget(std::function<void()> wake) : wake_(std::move(wake)) {}
  void OnEvent(uint32_t /*kind*/, uint32_t /*a*/, int64_t /*b*/) override { wake_(); }

 private:
  std::function<void()> wake_;
};

}  // namespace hetpipe::sim
