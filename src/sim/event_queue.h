#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hetpipe::sim {

// Simulated time, in seconds.
using SimTime = double;

// Receives simulator events. `kind` names what happened and `a`/`b` carry
// its arguments, in a meaning each target defines (a virtual worker's task
// completion is `a = stage`; a WSP push or pull is `a = vw, b = wave`). The
// simulator never owns a target: it must outlive every event scheduled for it.
class EventTarget {
 public:
  virtual ~EventTarget() = default;
  virtual void OnEvent(uint32_t kind, uint32_t a, int64_t b) = 0;
};

// A scheduled event. Events are ordered by (time, seq); seq is a strictly
// increasing insertion counter so that events scheduled for the same instant
// fire in FIFO order, making every simulation run deterministic.
struct Event {
  SimTime time = 0.0;
  uint64_t seq = 0;
  EventTarget* target = nullptr;
  uint32_t kind = 0;
  uint32_t a = 0;
  int64_t b = 0;
};

// Min-heap of events keyed on (time, seq). The heap holds the closed event
// records themselves, so pushing and popping never allocates once the heap
// has grown, and nothing is left behind to free. (time, seq) is a strict
// total order, so the pop order does not depend on the heap layout.
class EventQueue {
 public:
  // Enqueues an event for `target` at absolute time `time`. Returns the
  // sequence number assigned to it.
  uint64_t Push(SimTime time, EventTarget* target, uint32_t kind, uint32_t a, int64_t b);

  // Removes and returns the earliest event. Must not be called when empty.
  Event Pop();

  // Time of the earliest event. Must not be called when empty.
  SimTime TopTime() const {
    assert(!heap_.empty() && "TopTime on an empty event queue");
    return heap_.front().time;
  }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  std::vector<Event> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace hetpipe::sim
