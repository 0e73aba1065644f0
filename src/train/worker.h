#pragma once

#include <cstdint>
#include <deque>

#include "train/data.h"
#include "train/model_zoo.h"
#include "train/ps.h"
#include "wsp/staleness.h"
#include "wsp/sync_policy.h"

namespace hetpipe::train {

struct WorkerOptions {
  int nm = 1;  // concurrent pipeline minibatches (local staleness = nm - 1)
  wsp::SyncPolicy sync = wsp::SyncPolicy::Wsp(0);
  int64_t waves = 100;  // waves to process (nm minibatches each)
  int batch = 8;
  double lr = 0.05;
  bool sqrt_lr_decay = false;  // eta_t = lr / sqrt(t), as in Theorem 1
  double momentum = 0.0;       // heavy-ball momentum on the local velocity
  double weight_decay = 0.0;   // L2 regularization added to every gradient
  uint64_t seed = 1;
};

// One virtual worker of the *real* (numeric) WSP trainer. Pipelined model
// parallelism is emulated by delayed gradient application: the gradient of
// minibatch p is computed on weights that include local updates only through
// p - Nm (the §4 local-staleness semantics), and one aggregated update per
// wave is pushed to the parameter server. Injection of minibatch p blocks
// until the global wave RequiredGlobalWave(p) is available (the §5 global-
// staleness gate); with Nm=1 this degenerates to SSP (D=s) / BSP (D=0), and
// SyncMode::kAsp disables gating entirely.
class WspWorker {
 public:
  WspWorker(int id, const TrainModel& model, const Dataset& data, ParameterServer& ps,
            int num_workers, const WorkerOptions& options);

  // Runs to completion (call on a dedicated thread).
  void Run();

  // Available after Run() returns.
  const wsp::StalenessTracker& staleness() const { return staleness_; }
  double sum_minibatch_loss() const { return sum_loss_; }
  int64_t minibatches_processed() const { return processed_; }
  double wait_seconds() const { return wait_seconds_; }

 private:
  struct PendingUpdate {
    int64_t index;  // minibatch index (1-based)
    Tensor update;
  };

  void ApplyReadyUpdates(int64_t p);
  void MaybePull(int64_t p, bool blocking, int64_t required_wave);
  double LearningRate(int64_t p) const;

  int id_;
  const TrainModel* model_;
  const Dataset* data_;
  ParameterServer* ps_;
  WorkerOptions options_;
  MinibatchStream stream_;

  Tensor local_;      // weights the next gradient is computed on
  Tensor partial_;    // applied-but-not-yet-pushed updates (current wave)
  Tensor velocity_;   // momentum buffer
  std::deque<PendingUpdate> pending_;  // computed-but-not-yet-applied updates
  int64_t last_pulled_wave_ = -1;

  wsp::StalenessTracker staleness_;
  double sum_loss_ = 0.0;
  int64_t processed_ = 0;
  double wait_seconds_ = 0.0;
};

}  // namespace hetpipe::train
