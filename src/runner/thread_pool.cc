#include "runner/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <vector>

namespace hetpipe::runner {
namespace {

thread_local bool t_in_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  num_threads_ = std::max(1, num_threads);
  // The calling thread participates in every ParallelFor, so a pool of k
  // threads needs only k - 1 dedicated workers.
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    util::MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

bool ThreadPool::InWorkerThread() { return t_in_pool_worker; }

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      util::MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) {
        cv_.Wait(lock);
      }
      if (queue_.empty()) {
        return;  // shutdown with a drained queue
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    // A 1-thread pool has no dedicated workers; inline execution is the only
    // way the task can ever run.
    task();
    return;
  }
  {
    util::MutexLock lock(mu_);
    queue_.emplace_back(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& fn) {
  if (n <= 0) {
    return;
  }
  if (n == 1 || RunsInline()) {
    for (int64_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }

  // Work-stealing chunking: the index space is split into one contiguous
  // chunk per participant, each drained through its own atomic cursor; a
  // participant that exhausts its home chunk steals indices from the other
  // chunks' cursors. Generic-cluster sweeps mix heavyweight full-cluster
  // experiments with near-instant infeasible probes, so fixed chunk ownership
  // alone leaves workers idle while one chunk grinds — stealing keeps them
  // busy, and since every index still runs exactly once into its own result
  // slot, results remain input-ordered and identical to the serial loop.
  struct Chunk {
    alignas(64) std::atomic<int64_t> next{0};  // own cache line: stolen from
    int64_t end = 0;
  };
  struct SharedState {
    std::vector<Chunk> chunks;
    std::atomic<int64_t> done{0};
    util::Mutex mu;
    util::CondVar cv;
    std::exception_ptr error GUARDED_BY(mu);
    int64_t n = 0;
  };
  auto state = std::make_shared<SharedState>();
  state->n = n;
  const int64_t num_chunks = std::min<int64_t>(num_threads_, n);
  state->chunks = std::vector<Chunk>(static_cast<size_t>(num_chunks));
  for (int64_t c = 0; c < num_chunks; ++c) {
    state->chunks[static_cast<size_t>(c)].next.store(n * c / num_chunks,
                                                     std::memory_order_relaxed);
    state->chunks[static_cast<size_t>(c)].end = n * (c + 1) / num_chunks;
  }

  const auto drain = [state, &fn](int64_t home) {
    const int64_t num = static_cast<int64_t>(state->chunks.size());
    for (int64_t offset = 0; offset < num; ++offset) {
      Chunk& chunk = state->chunks[static_cast<size_t>((home + offset) % num)];
      for (;;) {
        const int64_t i = chunk.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= chunk.end) {
          break;  // chunk exhausted: move on and steal from the next one
        }
        try {
          fn(i);
        } catch (...) {
          util::MutexLock lock(state->mu);
          if (!state->error) {
            state->error = std::current_exception();
          }
        }
        if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == state->n) {
          // Taking the mutex before notifying closes the missed-wakeup
          // window: the completion waiter checks `done` under this mutex, so
          // the notify cannot land between its check and its block.
          util::MutexLock lock(state->mu);
          state->cv.NotifyAll();
        }
      }
    }
  };

  const int64_t helpers =
      std::min<int64_t>(static_cast<int64_t>(workers_.size()), n - 1);
  {
    util::MutexLock lock(mu_);
    for (int64_t i = 0; i < helpers; ++i) {
      // Helper i starts from chunk i + 1; the calling thread owns chunk 0.
      const int64_t home = (i + 1) % num_chunks;
      queue_.emplace_back([drain, home] { drain(home); });
    }
  }
  cv_.NotifyAll();

  drain(0);  // the calling thread works too
  {
    util::MutexLock lock(state->mu);
    while (state->done.load(std::memory_order_acquire) != n) {
      state->cv.Wait(lock);
    }
    if (state->error) {
      std::rethrow_exception(state->error);
    }
  }
}

}  // namespace hetpipe::runner
