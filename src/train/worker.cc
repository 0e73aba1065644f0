#include "train/worker.h"

#include <chrono>
#include <cmath>
#include <vector>

namespace hetpipe::train {

WspWorker::WspWorker(int id, const TrainModel& model, const Dataset& data, ParameterServer& ps,
                     int num_workers, const WorkerOptions& options)
    : id_(id),
      model_(&model),
      data_(&data),
      ps_(&ps),
      options_(options),
      stream_(data, id, num_workers, options.seed),
      local_(model.num_params()),
      partial_(model.num_params()),
      velocity_(model.num_params()),
      staleness_(options.nm, options.sync.mode == wsp::SyncMode::kWsp ? options.sync.d : 1 << 20) {
  ps.Read(&local_);  // start from the shared initial weights w0
}

double WspWorker::LearningRate(int64_t p) const {
  if (!options_.sqrt_lr_decay) {
    return options_.lr;
  }
  return options_.lr / std::sqrt(static_cast<double>(p));
}

void WspWorker::ApplyReadyUpdates(int64_t p) {
  // A minibatch may proceed once updates of minibatches <= p - Nm are in the
  // local weights (§4): apply every pending update that old, pushing each
  // completed wave's aggregate to the parameter server as it closes.
  while (!pending_.empty() && pending_.front().index <= p - options_.nm) {
    const PendingUpdate& u = pending_.front();
    local_.Axpy(1.0, u.update);
    partial_.Axpy(1.0, u.update);
    if (u.index % options_.nm == 0) {
      const int64_t wave = u.index / options_.nm - 1;
      ps_->PushWave(id_, wave, partial_);
      partial_.Zero();
    }
    pending_.pop_front();
  }
}

void WspWorker::MaybePull(int64_t p, bool blocking, int64_t required_wave) {
  if (blocking) {
    const auto start = std::chrono::steady_clock::now();
    ps_->WaitGlobalWave(required_wave);
    wait_seconds_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                         .count();
  } else if (ps_->GlobalWave() <= last_pulled_wave_) {
    return;  // nothing new to fetch
  }
  // w_local := w_global + own applied-but-unpushed updates. Pending (not yet
  // applied) updates stay excluded: that is the pipeline's local staleness.
  Tensor global(model_->num_params());
  last_pulled_wave_ = ps_->Read(&global);
  global.Axpy(1.0, partial_);
  local_ = std::move(global);
  const int64_t own_wave = (p - 1) / options_.nm;
  staleness_.RecordInjection(
      p, std::max<int64_t>(0, (own_wave - 1 - last_pulled_wave_)) * options_.nm);
}

void WspWorker::Run() {
  const int64_t total = options_.waves * options_.nm;
  for (int64_t p = 1; p <= total; ++p) {
    ApplyReadyUpdates(p);

    const bool gated = options_.sync.mode == wsp::SyncMode::kWsp;
    const int64_t required = gated
                                 ? wsp::RequiredGlobalWave(p, options_.nm, options_.sync.d)
                                 : -1;
    if (required >= 0 && last_pulled_wave_ < required) {
      MaybePull(p, /*blocking=*/true, required);
    } else if (p % options_.nm == 1 || options_.nm == 1) {
      // Wave boundary: refresh eagerly if fresher global weights exist.
      MaybePull(p, /*blocking=*/false, -1);
    }

    // Compute the gradient on the (possibly stale) local weights.
    const std::vector<int> batch = stream_.Next(options_.batch);
    Tensor grad(model_->num_params());
    const double loss = model_->LossAndGrad(*data_, batch, local_, &grad);
    sum_loss_ += loss;
    ++processed_;

    if (options_.weight_decay > 0.0) {
      grad.Axpy(options_.weight_decay, local_);
    }
    if (options_.momentum > 0.0) {
      velocity_.Scale(options_.momentum);
      velocity_.Axpy(1.0, grad);
      grad = velocity_;
    }
    grad.Scale(-LearningRate(p));
    pending_.push_back(PendingUpdate{p, std::move(grad)});
  }
  // Drain the pipeline: apply and push everything still pending.
  ApplyReadyUpdates(total + options_.nm);
}

}  // namespace hetpipe::train
