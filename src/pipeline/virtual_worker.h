#pragma once

#include <cstdint>
#include <vector>

#include "partition/partitioner.h"
#include "pipeline/schedule.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace hetpipe::pipeline {

// Decides whether a virtual worker may inject its next minibatch. The WSP
// coordinator (wsp/param_server.h) implements this to enforce the global
// staleness bound; OpenGate is used for single-virtual-worker experiments.
class InjectionGate {
 public:
  // The event kind a gate wakes a refused waiter with.
  static constexpr uint32_t kInjectionPermitted = 1;

  virtual ~InjectionGate() = default;

  // Returns true if `vw` may start minibatch `p` (1-indexed) now. If not,
  // the gate keeps `waiter` and, exactly once, when injection becomes
  // permitted, calls waiter->OnEvent(kInjectionPermitted, vw, 0) directly
  // (not through the simulator's queue); the virtual worker then retries.
  virtual bool RequestInjection(int vw, int64_t p, sim::EventTarget* waiter) = 0;

  // Called when `vw` has locally completed all minibatches of wave `wave`
  // (0-indexed) — the point where WSP pushes the wave's aggregated update.
  virtual void OnWaveComplete(int vw, int64_t wave) = 0;
};

// A gate that always allows injection (pure pipelined model parallelism).
class OpenGate final : public InjectionGate {
 public:
  bool RequestInjection(int vw, int64_t p, sim::EventTarget* waiter) override;
  void OnWaveComplete(int vw, int64_t wave) override;
};

struct VirtualWorkerOptions {
  int nm = 1;                   // concurrent minibatches (local staleness = nm - 1)
  double jitter_cv = 0.0;       // per-task iid jitter (coefficient of variation)
  // Correlated slowdowns, the straggler source real clusters have:
  // a per-wave speed factor (resampled each wave, cv = drift_cv) and a
  // persistent per-VW speed bias (fixed for the run, cv = speed_bias_cv).
  double drift_cv = 0.0;
  double speed_bias_cv = 0.0;
  uint64_t seed = 1;            // jitter RNG seed
  int64_t max_minibatches = 0;  // stop injecting after this many (0 = unlimited)
  // If set, every task execution (and its input transfer) is recorded here:
  // lane = stage index, category = forward/backward/fwbw/comm.
  sim::Tracer* tracer = nullptr;
};

// Discrete-event model of one virtual worker executing pipelined model
// parallelism over its partition (§4). Minibatches are injected subject to
// (a) the pipeline window: at most Nm in flight (minibatch p waits for
//     p - Nm to complete — the local staleness bound), and
// (b) the InjectionGate (global staleness / WSP).
// Stage task ordering follows the paper's three conditions via StageQueue;
// the last stage runs FW+BW of a minibatch as one fused task.
class VirtualWorkerSim final : public sim::EventTarget {
 public:
  VirtualWorkerSim(int vw_id, sim::Simulator& simulator, const partition::Partition& partition,
                   InjectionGate& gate, const VirtualWorkerOptions& options);

  // Injects the initial minibatches; must be called once before Simulator::Run.
  void Start();

  int vw_id() const { return vw_id_; }
  int num_stages() const { return static_cast<int>(stages_.size()); }
  const partition::Partition& partition() const { return *partition_; }
  int nm() const { return options_.nm; }

  int64_t minibatches_completed() const { return completed_; }
  sim::SimTime last_completion_time() const { return last_completion_time_; }
  // Completion timestamp of every minibatch, in order (used for steady-state
  // throughput measurement with warmup excluded).
  const std::vector<sim::SimTime>& completion_times() const { return completion_times_; }

  // Fraction of [from, to) stage q's GPU spent computing (excludes the
  // modeled communication-in portion of each task).
  double StageComputeUtilization(int q, sim::SimTime from, sim::SimTime to) const;
  // Max over stages, as plotted in Fig. 3.
  double MaxStageUtilization(sim::SimTime from, sim::SimTime to) const;

  // Total time injection was blocked by the gate, and the portion of it this
  // VW's GPUs were actually idle (averaged across stages) — the §8.4 metrics.
  double total_wait_s() const { return total_wait_s_; }
  double IdleDuringWait() const;

 private:
  struct Stage {
    StageQueue queue;
    bool busy = false;
    // The one task running while busy: its input transfer spans
    // [start, compute_start) and its compute [compute_start, end).
    Task running;
    sim::SimTime start = 0.0;
    sim::SimTime compute_start = 0.0;
    sim::SimTime end = 0.0;
    sim::BusyTracker compute_busy;
  };

  int64_t in_flight() const { return next_inject_ - 1 - completed_; }
  bool InjectionWindowOpen() const;
  void TryInject();
  void Inject(int64_t p);
  void TryDispatch(int q);
  void BeginTask(int q, const Task& task);
  // sim::EventTarget: completion of stage `a`'s running task (kTaskDone),
  // or the gate permitting the injection it refused.
  static constexpr uint32_t kTaskDone = 0;
  void OnEvent(uint32_t kind, uint32_t a, int64_t b) override;
  void OnTaskDone(int q, const Task& task);
  void OnMinibatchComplete(int64_t p);
  // (comm_in_s, compute_s) of a task at its stage, jitter applied to compute.
  std::pair<double, double> TaskCost(const Task& task);

  int vw_id_;
  sim::Simulator* simulator_;
  const partition::Partition* partition_;
  InjectionGate* gate_;
  VirtualWorkerOptions options_;
  // Standard normals of Rng(seed + vw_id * 0x9e3779b9): the speed bias,
  // the drift and the per-task jitter all draw from it.
  sim::NormalStream normals_;

  std::vector<Stage> stages_;
  int64_t next_inject_ = 1;
  int64_t completed_ = 0;
  sim::SimTime last_completion_time_ = 0.0;
  std::vector<sim::SimTime> completion_times_;
  double speed_bias_ = 1.0;   // persistent per-VW factor
  double wave_factor_ = 1.0;  // resampled at each wave boundary
  bool gate_blocked_ = false;
  sim::SimTime wait_started_ = 0.0;
  double total_wait_s_ = 0.0;
  std::vector<std::pair<sim::SimTime, sim::SimTime>> wait_windows_;
};

}  // namespace hetpipe::pipeline
