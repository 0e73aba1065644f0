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
//
// Pops are deferred: Pop() returns the root and leaves its slot as a hole.
// A simulator handler usually schedules the next event right away, and that
// Push fills the hole with one sift-down from the root, so dispatching one
// event and scheduling one costs one sift instead of a pop's and a push's.
// A Pop() or TopTime() that finds the hole first settles it the way a pop
// always has: the last record moves into the hole and sifts down.
class EventQueue {
 public:
  // Enqueues an event for `target` at absolute time `time`. Returns the
  // sequence number assigned to it.
  uint64_t Push(SimTime time, EventTarget* target, uint32_t kind, uint32_t a, int64_t b) {
    const uint64_t seq = next_seq_++;
    const Event event{time, seq, target, kind, a, b};
    if (hole_) {
      hole_ = false;
      SiftDownFromRoot(event);
    } else {
      heap_.emplace_back();
      SiftUp(heap_.size() - 1, event);
    }
    return seq;
  }

  // Removes and returns the earliest event. Must not be called when empty.
  Event Pop() {
    assert(!empty() && "Pop on an empty event queue");
    SettleHole();
    hole_ = true;
    return heap_.front();
  }

  // Time of the earliest event. Must not be called when empty. Settles a
  // pending pop first, which is why it is not const.
  SimTime TopTime() {
    assert(!empty() && "TopTime on an empty event queue");
    SettleHole();
    return heap_.front().time;
  }
  bool empty() const { return size() == 0; }
  size_t size() const { return heap_.size() - (hole_ ? 1 : 0); }

 private:
  // Branch-free, like the child choice in SiftDownFromRoot: event times are
  // data the branch predictor cannot learn, and a mispredicted sift step
  // cost more than the whole comparison.
  static bool Earlier(const Event& x, const Event& y) {
    return (x.time < y.time) | ((x.time == y.time) & (x.seq < y.seq));
  }

  // Fills a pending hole at the root with the last record.
  void SettleHole() {
    if (!hole_) {
      return;
    }
    hole_ = false;
    const Event last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDownFromRoot(last);
    }
  }

  // Places `event` into the root slot, whose children are heaps, moving
  // earlier children up until it fits.
  void SiftDownFromRoot(const Event& event) {
    const size_t n = heap_.size();
    size_t i = 0;
    for (size_t child = 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n) {
        child += Earlier(heap_[child + 1], heap_[child]) ? 1 : 0;
      }
      if (!Earlier(heap_[child], event)) {
        break;
      }
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = event;
  }

  // Places `event` into slot `i` (a leaf), moving later parents down.
  void SiftUp(size_t i, const Event& event) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Earlier(event, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = event;
  }

  std::vector<Event> heap_;
  uint64_t next_seq_ = 0;
  bool hole_ = false;  // heap_.front() was popped and is only a slot now
};

}  // namespace hetpipe::sim
