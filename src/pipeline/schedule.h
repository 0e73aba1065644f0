#pragma once

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
class StageQueue {
 public:
  // Registers that `task`'s inputs have arrived.
  void MakeAvailable(const Task& task);

  // Returns (and removes) the first eligible task in FIFO order, or nullopt.
  std::optional<Task> PickNext();

  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }
  int64_t next_forward() const { return next_fw_; }
  int64_t next_backward() const { return next_bw_; }

 private:
  bool Eligible(const Task& task) const;
  void MarkStarted(const Task& task);

  std::vector<Task> queue_;  // arrival order; at most 2 * Nm tasks
  int64_t next_fw_ = 1;      // smallest minibatch whose FW has not yet started
  int64_t next_bw_ = 1;
};

}  // namespace hetpipe::pipeline
