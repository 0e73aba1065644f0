#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "pipeline/task.h"

namespace hetpipe::pipeline {

// Ready-queue of one pipeline stage, enforcing the paper's three scheduling
// conditions (§4):
//   1. FW of minibatch p runs only after FW of every p' < p has run here;
//   2. BW of minibatch p runs only after BW of every p' < p has run here;
//   3. among eligible tasks, FIFO (by arrival order).
// Tasks become *available* when their input arrives (activations from the
// previous stage, gradients from the next); PickNext returns the first
// available task whose ordering precondition holds.
//
// The tasks sit in arrival order in a ring (power-of-two capacity, doubled
// when full). A virtual worker's arrivals of each kind come in minibatch
// order, so the task it picks is always the oldest, and taking it only
// advances the head; a task picked from further back shifts the ones ahead
// of it one slot toward the tail.
class StageQueue {
 public:
  // Registers that `task`'s inputs have arrived.
  void MakeAvailable(const Task& task) {
    if (count_ == ring_.size()) {
      Grow();
    }
    ring_[(head_ + count_) & (ring_.size() - 1)] = task;
    ++count_;
  }

  // Returns (and removes) the first eligible task in FIFO order, or nullopt.
  std::optional<Task> PickNext() {
    const size_t mask = ring_.size() - 1;
    for (size_t i = 0; i < count_; ++i) {
      const Task task = ring_[(head_ + i) & mask];
      if (!Eligible(task)) {
        continue;
      }
      for (; i > 0; --i) {
        ring_[(head_ + i) & mask] = ring_[(head_ + i - 1) & mask];
      }
      head_ = (head_ + 1) & mask;
      --count_;
      MarkStarted(task);
      return task;
    }
    return std::nullopt;
  }

  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }
  int64_t next_forward() const { return next_fw_; }
  int64_t next_backward() const { return next_bw_; }

 private:
  bool Eligible(const Task& task) const {
    switch (task.kind) {
      case TaskKind::kForward:
        return task.minibatch == next_fw_;
      case TaskKind::kBackward:
        return task.minibatch == next_bw_;
      case TaskKind::kForwardBackward:
        return task.minibatch == next_fw_ && task.minibatch == next_bw_;
    }
    return false;
  }

  void MarkStarted(const Task& task) {
    next_fw_ += task.kind != TaskKind::kBackward ? 1 : 0;
    next_bw_ += task.kind != TaskKind::kForward ? 1 : 0;
  }

  // Doubles the capacity (8 at first) and unwraps the tasks to start at 0.
  void Grow() {
    std::vector<Task> grown(ring_.empty() ? 8 : 2 * ring_.size());
    for (size_t i = 0; i < count_; ++i) {
      grown[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_.swap(grown);
    head_ = 0;
  }

  std::vector<Task> ring_;  // capacity 0 or a power of two; at most 2 * Nm tasks held
  size_t head_ = 0;         // slot of the oldest task
  size_t count_ = 0;
  int64_t next_fw_ = 1;     // smallest minibatch whose FW has not yet started
  int64_t next_bw_ = 1;
};

}  // namespace hetpipe::pipeline
