#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "runner/partition_cache.h"
#include "runner/result_sink.h"
#include "serve/protocol.h"
#include "util/mutex.h"

namespace hetpipe::runner {
class ThreadPool;
}  // namespace hetpipe::runner

namespace hetpipe::serve {

struct PlanServiceOptions {
  // Pool the partitioner's GPU-order search fans out on for cold solves;
  // null solves serially. The serve server passes its request executor —
  // ParallelFor from inside a pool worker runs inline, so a request being
  // handled on the pool degrades to a serial solve instead of deadlocking.
  runner::ThreadPool* pool = nullptr;
  // Bound on memoized (cluster, model, batch) contexts; the oldest is
  // dropped beyond it. Contexts hold a built cluster, a profiled model, and
  // a partitioner (tens of KiB each), so a service fed adversarially many
  // distinct specs stays bounded.
  int64_t max_contexts = 64;
};

// The request brain of hetpipe_serve, separated from the socket layer so
// tests (and future transports) can drive it directly: decodes a request,
// resolves (cluster, model, batch) to a memoized solving context, answers
// plan / max_nm / stats queries through the shared runner::PartitionCache,
// and renders the response as a runner::ResultRow (the wire JSON is
// runner::RowToJson of that row).
//
// Thread-safety: Handle/HandleJson are safe to call concurrently from any
// number of threads. The context memo is a shared_mutex hash map (readers
// concurrent, inserts single-writer). A context is built outside the lock,
// so threads missing on one key at once may each build one; the first
// insert is kept and every caller gets it, the others are dropped. The
// partition cache does its own locking, and counters are atomics.
// Responses are value types; nothing returned aliases service state.
//
// Results are deterministic: the same request always produces the same
// partition (the cache returns bit-identical partitions hit or miss), so a
// serve deployment answers exactly what the batch benches compute.
class PlanService {
 public:
  // `cache` is the shared partition memo (caller-owned, must outlive the
  // service); it is what makes repeated plan queries cheap.
  PlanService(runner::PartitionCache* cache, PlanServiceOptions options = {});
  ~PlanService();

  PlanService(const PlanService&) = delete;
  PlanService& operator=(const PlanService&) = delete;

  // Handles one decoded request. Never throws: every failure becomes an
  // error response row (ok=false, error_code, error).
  runner::ResultRow Handle(const PlanRequest& request);

  // Decodes + handles one raw JSON payload. When `shutdown` is non-null it
  // is set to whether the request was a (successfully decoded) shutdown op —
  // the transport owns what shutdown means, the service only reports it.
  runner::ResultRow HandleJson(const std::string& payload, bool* shutdown = nullptr);

  // Lifetime request/error counts (errors are responses with ok=false).
  int64_t requests() const { return requests_.load(std::memory_order_relaxed); }
  int64_t errors() const { return errors_.load(std::memory_order_relaxed); }
  // Contexts currently memoized.
  int64_t contexts() const;

  runner::PartitionCache* cache() { return cache_; }

 private:
  struct Context;

  // What a context is built from, compared field by field: the cluster text
  // (spec, or paper node codes when there is no spec), the model and the
  // batch size. A key in the map views strings its own context owns.
  struct ContextKey {
    bool from_spec = false;
    std::string_view cluster;
    std::string_view model;
    int batch_size = 0;
    bool operator==(const ContextKey& other) const {
      return from_spec == other.from_spec && batch_size == other.batch_size &&
             cluster == other.cluster && model == other.model;
    }
  };
  struct ContextKeyHash {
    size_t operator()(const ContextKey& key) const;
  };

  // Returns the memoized context for the request's (cluster, model, batch),
  // building it on a miss (racing misses may each build; the first insert
  // wins). Null on failure, with `code`/`error` set.
  std::shared_ptr<const Context> GetContext(const PlanRequest& request, ErrorCode* code,
                                            std::string* error);

  runner::PartitionCache* cache_;
  PlanServiceOptions options_;

  mutable util::SharedMutex contexts_mu_;
  // Key -> context, with insertion order kept for FIFO eviction (a plan
  // service's working set is a handful of clusters; LRU precision is not
  // worth per-read writes here).
  std::unordered_map<ContextKey, std::shared_ptr<const Context>, ContextKeyHash> contexts_
      GUARDED_BY(contexts_mu_);
  std::deque<std::shared_ptr<const Context>> context_order_ GUARDED_BY(contexts_mu_);

  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> errors_{0};
};

}  // namespace hetpipe::serve
