#include "pipeline/virtual_worker.h"

#include <algorithm>
#include <cassert>

namespace hetpipe::pipeline {

bool OpenGate::RequestInjection(int /*vw*/, int64_t /*p*/, sim::EventTarget* /*waiter*/) {
  return true;
}

void OpenGate::OnWaveComplete(int /*vw*/, int64_t /*wave*/) {}

VirtualWorkerSim::VirtualWorkerSim(int vw_id, sim::Simulator& simulator,
                                   const partition::Partition& partition, InjectionGate& gate,
                                   const VirtualWorkerOptions& options)
    : vw_id_(vw_id),
      simulator_(&simulator),
      partition_(&partition),
      gate_(&gate),
      options_(options),
      normals_(options.seed + static_cast<uint64_t>(vw_id) * 0x9e3779b9ULL) {
  assert(partition.feasible);
  assert(options_.nm >= 1);
  const int k = partition.num_stages();
  const auto max_minibatches = static_cast<size_t>(std::max<int64_t>(0, options_.max_minibatches));
  completion_times_.reserve(max_minibatches);
  stages_.reserve(static_cast<size_t>(k));
  for (int q = 0; q < k; ++q) {
    stages_.emplace_back();
    // Every minibatch runs FW and BW on each stage; the last stage fuses them.
    stages_.back().compute_busy.Reserve(q + 1 == k ? max_minibatches : 2 * max_minibatches);
  }
  if (options_.speed_bias_cv > 0.0) {
    speed_bias_ = std::max(0.5, 1.0 + options_.speed_bias_cv * normals_.Next());
  }
  if (options_.drift_cv > 0.0) {
    wave_factor_ = std::max(0.5, 1.0 + options_.drift_cv * normals_.Next());
  }
}

void VirtualWorkerSim::Start() { TryInject(); }

bool VirtualWorkerSim::InjectionWindowOpen() const {
  if (options_.max_minibatches > 0 && next_inject_ > options_.max_minibatches) {
    return false;
  }
  return in_flight() < options_.nm;
}

void VirtualWorkerSim::TryInject() {
  while (InjectionWindowOpen()) {
    const int64_t p = next_inject_;
    const bool allowed = gate_->RequestInjection(vw_id_, p, this);
    if (!allowed) {
      if (!gate_blocked_) {
        gate_blocked_ = true;
        wait_started_ = simulator_->now();
      }
      return;
    }
    if (gate_blocked_) {
      gate_blocked_ = false;
      const sim::SimTime now = simulator_->now();
      total_wait_s_ += now - wait_started_;
      wait_windows_.emplace_back(wait_started_, now);
    }
    Inject(p);
  }
}

void VirtualWorkerSim::Inject(int64_t p) {
  ++next_inject_;
  const int k = num_stages();
  Task task;
  task.minibatch = p;
  task.stage = 0;
  task.kind = (k == 1) ? TaskKind::kForwardBackward : TaskKind::kForward;
  stages_[0].queue.MakeAvailable(task);
  TryDispatch(0);
}

void VirtualWorkerSim::TryDispatch(int q) {
  Stage& stage = stages_[static_cast<size_t>(q)];
  if (stage.busy) {
    return;
  }
  std::optional<Task> task = stage.queue.PickNext();
  if (!task.has_value()) {
    return;
  }
  BeginTask(q, *task);
}

void VirtualWorkerSim::BeginTask(int q, const Task& task) {
  Stage& stage = stages_[static_cast<size_t>(q)];
  stage.busy = true;
  const auto [comm_s, compute_s] = TaskCost(task);
  stage.running = task;
  stage.start = simulator_->now();
  stage.compute_start = stage.start + comm_s;
  stage.end = stage.compute_start + compute_s;
  // The task's state lives in the stage, so the event carries only q.
  simulator_->ScheduleAt(stage.end, this, kTaskDone, static_cast<uint32_t>(q), 0);
}

void VirtualWorkerSim::OnEvent(uint32_t kind, uint32_t a, int64_t /*b*/) {
  if (kind == InjectionGate::kInjectionPermitted) {
    TryInject();
    return;
  }
  const int q = static_cast<int>(a);
  Stage& stage = stages_[a];
  const Task task = stage.running;  // OnTaskDone may start the stage's next task
  stage.busy = false;
  stage.compute_busy.AddBusy(stage.compute_start, stage.end);
  if (options_.tracer != nullptr) {
    if (stage.compute_start > stage.start) {
      options_.tracer->Add(
          {"recv " + ToString(task), "comm", task.stage, stage.start, stage.compute_start});
    }
    const char* category = task.kind == TaskKind::kForward
                               ? "forward"
                               : (task.kind == TaskKind::kBackward ? "backward" : "xfwbw");
    options_.tracer->Add({ToString(task), category, task.stage, stage.compute_start, stage.end});
  }
  OnTaskDone(q, task);
  TryDispatch(q);
}

std::pair<double, double> VirtualWorkerSim::TaskCost(const Task& task) {
  const partition::StageAssignment& sa = partition_->stages[static_cast<size_t>(task.stage)];
  double comm = 0.0;
  double compute = 0.0;
  switch (task.kind) {
    case TaskKind::kForward:
      comm = sa.fwd_comm_in_s;
      compute = sa.fwd_compute_s;
      break;
    case TaskKind::kBackward:
      comm = sa.bwd_comm_in_s;
      compute = sa.bwd_compute_s;
      break;
    case TaskKind::kForwardBackward:
      comm = sa.fwd_comm_in_s;  // last stage has no backward comm-in
      compute = sa.fwd_compute_s + sa.bwd_compute_s;
      break;
  }
  if (options_.jitter_cv > 0.0) {
    const double factor = std::max(0.05, 1.0 + options_.jitter_cv * normals_.Next());
    compute *= factor;
  }
  compute *= speed_bias_ * wave_factor_;
  return {comm, compute};
}

void VirtualWorkerSim::OnTaskDone(int q, const Task& task) {
  const int k = num_stages();
  switch (task.kind) {
    case TaskKind::kForward: {
      Task next;
      next.minibatch = task.minibatch;
      next.stage = q + 1;
      next.kind = (q + 1 == k - 1) ? TaskKind::kForwardBackward : TaskKind::kForward;
      stages_[static_cast<size_t>(q) + 1].queue.MakeAvailable(next);
      TryDispatch(q + 1);
      break;
    }
    case TaskKind::kForwardBackward: {
      if (k == 1) {
        OnMinibatchComplete(task.minibatch);
        break;
      }
      Task next;
      next.minibatch = task.minibatch;
      next.stage = q - 1;
      next.kind = TaskKind::kBackward;
      stages_[static_cast<size_t>(q) - 1].queue.MakeAvailable(next);
      TryDispatch(q - 1);
      break;
    }
    case TaskKind::kBackward: {
      if (q == 0) {
        OnMinibatchComplete(task.minibatch);
        break;
      }
      Task next;
      next.minibatch = task.minibatch;
      next.stage = q - 1;
      next.kind = TaskKind::kBackward;
      stages_[static_cast<size_t>(q) - 1].queue.MakeAvailable(next);
      TryDispatch(q - 1);
      break;
    }
  }
}

void VirtualWorkerSim::OnMinibatchComplete(int64_t p) {
  ++completed_;
  last_completion_time_ = simulator_->now();
  completion_times_.push_back(last_completion_time_);
  assert(p == completed_ && "backward passes must complete in minibatch order");
  (void)p;
  if (completed_ % options_.nm == 0) {
    if (options_.drift_cv > 0.0) {
      wave_factor_ = std::max(0.5, 1.0 + options_.drift_cv * normals_.Next());
    }
    gate_->OnWaveComplete(vw_id_, completed_ / options_.nm - 1);
  }
  TryInject();
}

double VirtualWorkerSim::StageComputeUtilization(int q, sim::SimTime from, sim::SimTime to) const {
  return stages_[static_cast<size_t>(q)].compute_busy.Utilization(from, to);
}

double VirtualWorkerSim::MaxStageUtilization(sim::SimTime from, sim::SimTime to) const {
  double best = 0.0;
  for (int q = 0; q < num_stages(); ++q) {
    best = std::max(best, StageComputeUtilization(q, from, to));
  }
  return best;
}

double VirtualWorkerSim::IdleDuringWait() const {
  std::vector<size_t> cursors(stages_.size(), 0);  // wait windows are time-ordered
  double idle = 0.0;
  for (const auto& [start, end] : wait_windows_) {
    double busy = 0.0;
    for (size_t q = 0; q < stages_.size(); ++q) {
      busy += stages_[q].compute_busy.SweepUtilization(&cursors[q], start, end) * (end - start);
    }
    const double window_total = (end - start) * static_cast<double>(stages_.size());
    idle += window_total - busy;
  }
  return stages_.empty() ? 0.0 : idle / static_cast<double>(stages_.size());
}

}  // namespace hetpipe::pipeline
