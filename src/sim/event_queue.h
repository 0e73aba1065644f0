#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace hetpipe::sim {

// Simulated time, in seconds.
using SimTime = double;

// A scheduled callback. Events are ordered by (time, seq); seq is a strictly
// increasing insertion counter so that events scheduled for the same instant
// fire in FIFO order, making every simulation run deterministic.
struct Event {
  SimTime time = 0.0;
  uint64_t seq = 0;
  std::function<void()> action;
};

// Min-heap of events keyed on (time, seq).
//
// The heap holds only 24-byte {time, seq, slot} keys; each action lives in a
// slot of a slab that recycles freed slots, so sifting moves plain keys and
// never a std::function. (time, seq) is a strict total order, so the pop
// order does not depend on the heap layout.
class EventQueue {
 public:
  // Enqueues `action` to fire at absolute time `time`. Returns the sequence
  // number assigned to the event.
  uint64_t Push(SimTime time, std::function<void()> action);

  // Removes and returns the earliest event, its action moved out of the slab
  // (so the action may push new events while it runs). Must not be called
  // when empty.
  Event Pop();

  // Time of the earliest event. Must not be called when empty.
  SimTime TopTime() const { return heap_.front().time; }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  struct Key {
    SimTime time;
    uint64_t seq;
    uint32_t slot;  // index into actions_
  };
  // Heap comparator: the root is the earliest (time, seq).
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  std::vector<Key> heap_;
  std::vector<std::function<void()>> actions_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
};

}  // namespace hetpipe::sim
