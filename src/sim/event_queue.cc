#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>

namespace hetpipe::sim {
namespace {

// Heap comparator: the root is the earliest (time, seq).
constexpr auto kLater = [](const Event& x, const Event& y) {
  return x.time != y.time ? x.time > y.time : x.seq > y.seq;
};

}  // namespace

uint64_t EventQueue::Push(SimTime time, EventTarget* target, uint32_t kind, uint32_t a,
                          int64_t b) {
  const uint64_t seq = next_seq_++;
  heap_.push_back(Event{time, seq, target, kind, a, b});
  std::push_heap(heap_.begin(), heap_.end(), kLater);
  return seq;
}

Event EventQueue::Pop() {
  assert(!heap_.empty() && "Pop on an empty event queue");
  std::pop_heap(heap_.begin(), heap_.end(), kLater);
  const Event event = heap_.back();
  heap_.pop_back();
  return event;
}

}  // namespace hetpipe::sim
