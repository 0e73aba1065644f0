#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace hetpipe::runner {

// Fixed-size worker pool for the sweep runner, the partitioner's GPU-order
// search, and the serve request executor. Nested use is safe: ParallelFor
// called from inside a pool worker runs its body inline on the calling thread
// instead of re-submitting, so a task that itself fans out (e.g. an
// experiment whose partitioner parallelizes its order search over the same
// pool) can never deadlock.
//
// Thread-safety: ParallelFor and Submit may be called concurrently from any
// thread; the destructor must not race with either (join your producers
// first — the serve server drains its connections before dropping the pool).
class ThreadPool {
 public:
  // num_threads <= 0 selects the hardware concurrency (at least 1). A pool of
  // 1 executes everything on the calling thread.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // True when the calling thread is one of this process's pool workers.
  static bool InWorkerThread();

  // True when ParallelFor called from this thread runs every index inline:
  // a 1-thread pool, or a call from inside a pool worker.
  bool RunsInline() const { return num_threads_ == 1 || InWorkerThread(); }

  // Runs fn(0), ..., fn(n - 1), distributing indices over the workers, and
  // returns when all have finished. The calling thread participates. Indices
  // are split into one contiguous chunk per participant and drained with
  // work-stealing (a worker that finishes its chunk takes indices from the
  // others), so skewed per-index costs cannot strand the tail on one thread;
  // every index still runs exactly once, so any output indexed by i is
  // identical to the serial loop's. If any invocation throws, the first
  // exception (in completion order) is rethrown after all indices finish or
  // are abandoned.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  // Fire-and-forget: enqueues `task` for a dedicated worker. Unlike
  // ParallelFor, the calling thread does not participate and does not wait —
  // this is the serve server's request executor, where the caller is the
  // accept loop and must return to accept(). Tasks only ever run on the
  // dedicated workers, of which a pool of k threads has k - 1: Submit on a
  // 1-thread pool runs the task inline on the calling thread (there is no
  // one else to run it, and silently never running it would be worse).
  // Exceptions escaping `task` terminate the process, as they would from any
  // detached thread — wrap work that can throw.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  // Immutable after construction; read from any thread without locking.
  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  util::Mutex mu_;
  util::CondVar cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace hetpipe::runner
