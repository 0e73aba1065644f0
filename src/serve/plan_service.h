#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "runner/partition_cache.h"
#include "runner/result_sink.h"
#include "serve/protocol.h"

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
};

// The request brain of hetpipe_serve, separated from the socket layer so
// tests (and future transports) can drive it directly: decodes a request,
// resolves (cluster, model, batch) to the core::Context the shared
// runner::PartitionCache memoises, answers plan / max_nm / stats queries
// through that cache, and renders the response as a runner::ResultRow (the
// wire JSON is runner::RowToJson of that row).
//
// Thread-safety: Handle/HandleJson are safe to call concurrently from any
// number of threads. The partition cache does its own locking (contexts
// included), and counters are atomics. Responses are value types; nothing
// returned aliases service state.
//
// Results are deterministic: the same request always produces the same
// partition (the cache returns bit-identical partitions hit or miss), so a
// serve deployment answers exactly what the batch benches compute.
class PlanService {
 public:
  // `cache` is the shared partition memo (caller-owned, must outlive the
  // service); it is what makes repeated plan queries cheap.
  PlanService(runner::PartitionCache* cache, PlanServiceOptions options = {});

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

  runner::PartitionCache* cache() { return cache_; }

 private:
  runner::PartitionCache* cache_;
  PlanServiceOptions options_;

  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> errors_{0};
};

}  // namespace hetpipe::serve
