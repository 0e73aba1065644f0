#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hetpipe::sim {

void Simulator::RejectSchedule(SimTime time) {
  throw std::invalid_argument(std::isnan(time) ? "Simulator::ScheduleAt: time is NaN"
                                               : "Simulator::ScheduleAt: target is null");
}

void Simulator::Run() { Dispatch(std::numeric_limits<SimTime>::infinity()); }

void Simulator::RunUntil(SimTime deadline) {
  // A NaN deadline compares false against every event time, so it would
  // run the queue dry as if it were infinite.
  if (std::isnan(deadline)) {
    throw std::invalid_argument("Simulator::RunUntil: deadline is NaN");
  }
  Dispatch(deadline);
}

void Simulator::Dispatch(const SimTime deadline) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    if (queue_.TopTime() > deadline) {
      // A deadline before now() fires nothing and leaves the clock.
      now_ = std::max(now_, deadline);
      return;
    }
    const Event event = queue_.Pop();
    now_ = event.time;
    ++events_processed_;
    event.target->OnEvent(event.kind, event.a, event.b);
  }
  // The queue drained (or Stop() fired) before the deadline. For a finite
  // deadline the simulated interval up to it has still elapsed, so advance
  // the clock; otherwise back-to-back RunUntil calls would see time jump
  // backwards relative to the previous call's deadline. Run() passes an
  // infinite deadline and must leave now_ at the last event. A Stop() leaves
  // the clock at the stopping event so the caller can resume from it.
  if (!stopped_ && deadline < std::numeric_limits<SimTime>::infinity() && now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace hetpipe::sim
