#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "sim/event_queue.h"

namespace hetpipe::sim {

// Single-threaded discrete-event simulator.
//
// All HetPipe performance experiments run on this kernel: pipeline stages,
// link transfers, and parameter-server synchronization are modeled as events.
// Execution is deterministic: ties in time are broken by insertion order.
class Simulator {
 public:
  SimTime now() const { return now_; }
  uint64_t events_processed() const { return events_processed_; }

  // Schedules `target->OnEvent(kind, a, b)` at absolute simulated time
  // `time`. Times before now() clamp to now() (fire at the current instant,
  // after already-queued events); an infinite time fires only under Run(),
  // after every finite event. A NaN time would break the queue's ordering,
  // so it throws std::invalid_argument, as does a null target.
  void ScheduleAt(SimTime time, EventTarget* target, uint32_t kind, uint32_t a, int64_t b) {
    if (std::isnan(time) || target == nullptr) {
      RejectSchedule(time);
    }
    queue_.Push(time < now_ ? now_ : time, target, kind, a, b);
  }

  // Runs until the event queue drains or Stop() is called.
  void Run();

  // Runs until simulated time exceeds `deadline` (events at exactly
  // `deadline` still fire), the queue drains, or Stop() is called. Unless
  // stopped, now() is max(now(), deadline) afterwards — even when the queue
  // drained early — so the clock never moves backwards: a deadline before
  // now() fires nothing and leaves the clock where it is. A NaN deadline
  // throws std::invalid_argument, as ScheduleAt does.
  void RunUntil(SimTime deadline);

  // Requests that the currently running Run()/RunUntil() return once the
  // in-flight event completes.
  void Stop() { stopped_ = true; }

 private:
  void Dispatch(const SimTime deadline);
  // Throws the std::invalid_argument ScheduleAt promises, out of line.
  [[noreturn]] static void RejectSchedule(SimTime time);

  EventQueue queue_;
  SimTime now_ = 0.0;
  uint64_t events_processed_ = 0;
  bool stopped_ = false;
};

}  // namespace hetpipe::sim
