#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace hetpipe::sim {

uint64_t EventQueue::Push(SimTime time, std::function<void()> action) {
  const uint64_t seq = next_seq_++;
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(actions_.size());
    actions_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
  }
  heap_.push_back(Key{time, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return seq;
}

Event EventQueue::Pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  Event event{key.time, key.seq, std::move(actions_[key.slot])};
  free_slots_.push_back(key.slot);
  return event;
}

}  // namespace hetpipe::sim
