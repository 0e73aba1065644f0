#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/context.h"
#include "partition/partitioner.h"
#include "util/mutex.h"

namespace hetpipe::runner {

// Memoizes solved partitions across experiments. The exhaustive GPU-order
// search dominates sweep cost, and sweeps revisit the same virtual-worker
// shapes constantly (every ED virtual worker of a cluster, every wave of an
// Nm sweep, every policy sharing a subset). Keyed by (model profile
// fingerprint, cluster layout + link-model probes (bandwidth, scaling,
// latency/intercept knobs, and the per-node-pair links a rack topology or
// link override resolves to), VW GPU (class, node) multiset, Nm, order-search
// flag, memory params) — everything
// Partitioner::SolveScalable's result depends on. Keys are value-based (GPU class
// names and numbers, never pointers into one cluster), so they are stable across
// processes and safe to persist. The (profile, cluster) half is the
// partitioner's inputs_fingerprint(), hashed once when it is built; a lookup
// hashes only the per-call half on from that state.
//
// Because a solve's answer depends on the GPUs only through their (class, node)
// multiset, a hit for a *different* GPU-id set with the same signature is
// placed onto the requested ids, so e.g. the four ED virtual workers of the
// paper cluster all share one solve. An entry records each stage's GPU as a
// slot: its position in the key's VW signature (the (class, node) list the
// key spells out, sorted when the order search is on). The j-th stage of a
// (class, node) takes that pair's first unused slot, and a hit maps slot s
// to the requester's s-th signature GPU, ties in the order given — so equal
// GPUs are assigned in request order, and an entry holds nothing
// process-local.
//
// Thread-safety: one instance is shared by every sweep task of a run and by
// every connection of a `hetpipe_serve` daemon. The read path (a hit) takes
// a shared lock, so concurrent readers never serialize against each other;
// all mutation (inserting a miss, Load, eviction, Clear) takes the exclusive
// lock. Counters are atomics, so the hot hit path never writes under the
// shared lock except to the entry's own access stamp. A hit returns a
// Partition identical to what a cold solve would return up to tied GPUs:
// the cached stages are placed onto the request's GPUs in request order, so
// two GPUs of one (type, node) may swap stages against a cold solve, while
// every other field and every untied id match (tested by
// PartitionCacheTest.TiedGpusArePlacedInRequestOrder). Caching never changes
// a bottleneck, a stage boundary or a stage time.
//
// Size bound: SetCapacity(n) caps the entry count; 0 (the default) keeps it
// unbounded, which is the historical behavior every bench relies on. When an
// insert overflows the bound, the least-recently-used entry is evicted
// (loaded-but-never-requested entries count as older than any requested one)
// and evictions() counts it. A long-running service should set a bound;
// batch sweeps need not.
//
// Disk persistence: a cache file is a .hds store (store/extent_writer.h)
// with one row per entry — columns `v` (kFileVersion), `key` and `entry`,
// the entry's packed bytes as they are held in memory — so it inherits the
// store's per-extent checksums, temp-file-then-rename writes and hardened
// reader, and `sweep_query FILE --select=key` lists its keys. Save writes a
// snapshot and Load merges one back (entries already in memory win), so
// repeated figure runs skip the order search entirely (--cache-file in
// runner/cli.h). Save is safe to call concurrently with reads, solves and
// other saves — `hetpipe_serve` calls it periodically from a background
// thread — and a crash mid-save never corrupts the previous snapshot. Load
// checks every row's version and columns before it changes anything and
// rejects truncated, corrupted, foreign or version-mismatched files, leaving
// the cache unchanged. An entry whose bytes do not unpack onto a request (a
// slot outside the signature, layers that do not tile the model; only a
// crafted file can hold one) is a miss, never an out-of-range read.
class PartitionCache {
 public:
  // Bumped whenever the file layout or the key derivation changes; files of
  // any other version are rejected on Load. v2: link probes moved from
  // (0 B, 1 MiB) to (1 B, 1 MiB) so spec-level latency/intercept knobs are
  // always part of the key. v3: the resolved inter link of every node pair
  // of the virtual worker is probed, so rack topology and per-pair link
  // overrides can never alias a uniform-fabric entry (and vice versa),
  // while topology changes outside the VW's nodes — which cannot affect its
  // solve — still share entries. v4: store-framed slot entries, keys
  // unchanged. Files before v4 are not .hds stores and fail to open as one.
  static constexpr uint32_t kFileVersion = 4;

  // Drop-in for Partitioner::SolveScalable (the resolved strategy is exact
  // for every paper-scale input). Non-exact resolved strategies get their own key suffix, so a beam or
  // hierarchical answer can never alias an exact entry or vice versa; exact
  // keys are byte-identical to pre-scalable-tier keys. When `was_hit` is
  // non-null it reports whether the answer came from the cache (serve
  // responses surface this); a disk-loaded entry counts as a hit.
  partition::Partition Solve(const partition::Partitioner& partitioner,
                             const std::vector<int>& gpu_ids,
                             const partition::PartitionOptions& options,
                             bool* was_hit = nullptr);

  // partition::FindMaxNmWith over SolveScalable: every probed nm goes through
  // the cache, so a later Solve at the chosen nm is a hit. When `all_hits` is
  // non-null it reports whether every probe was answered from the cache.
  // When `winner` is non-null and the answer is positive, it receives the
  // partition the probe at the answer returned (the search always probes it).
  int FindMaxNm(const partition::Partitioner& partitioner, const std::vector<int>& gpu_ids,
                int nm_cap, partition::PartitionOptions options, bool* all_hits = nullptr,
                partition::Partition* winner = nullptr);

  // The memoised (cluster, model, batch) context for `key`, built on a miss
  // outside the lock: racing misses may each build, and the first insert
  // wins. Beyond kMaxContexts the oldest is dropped (FIFO: a working set is
  // a handful of clusters, not worth per-read LRU writes). Throws what
  // core::Context's keyed constructor throws; failed builds are not kept.
  std::shared_ptr<const core::Context> GetContext(const core::ContextKey& key);
  int64_t contexts() const;
  // A context holds a built cluster, a profiled model and a partitioner
  // (tens of KiB), so a daemon fed many distinct specs stays bounded.
  static constexpr int64_t kMaxContexts = 64;

  // Caps the number of entries. 0 removes the bound. Shrinking below the
  // current size evicts immediately, oldest first. Not meaningfully
  // concurrent with itself, but safe against concurrent Solve/Save.
  void SetCapacity(int64_t max_entries);
  int64_t capacity() const;

  // Writes every entry to `path` as a .hds store, via a temp file in the
  // same directory renamed over the target, so a crash mid-save never leaves
  // `path` truncated or corrupted. Concurrent saves run one at a time, each
  // writing the snapshot it took. Returns false and fills `error` (when
  // non-null) on I/O failure (the target is then untouched).
  bool Save(const std::string& path, std::string* error = nullptr) const;

  // Merges the entries of a Save'd file; keys already present are kept as-is.
  // If the merge overflows a configured capacity, oldest entries are evicted.
  // Loaded entries rank older than any requested one for eviction. Returns
  // false and fills `error` (when non-null) on an unreadable, truncated,
  // corrupted, foreign, or version-mismatched file — the cache is unchanged
  // in every failure case.
  bool Load(const std::string& path, std::string* error = nullptr);

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }
  int64_t size() const;
  void Clear();

 private:
  // A packed partition plus its LRU stamp. A process keeps every distinct
  // key it was asked (a plan server tens of thousands), so the partition is
  // held packed (varint layers, slots and byte counts, raw doubles: under 50
  // bytes a stage against 80 for a StageAssignment) and unpacked, bit for
  // bit, on each hit; the same bytes are the `entry` column of a cache file.
  // The stamp is an atomic so the shared-lock hit path can refresh it without
  // upgrading to the exclusive lock; eviction scans stamps under the
  // exclusive lock. Loaded entries start at stamp 0, older than any request.
  struct Entry {
    Entry(std::string bytes, uint64_t stamp) : packed(std::move(bytes)), last_use(stamp) {}

    std::string packed;
    std::atomic<uint64_t> last_use;
  };

  // Evicts until the bound holds. Caller holds the exclusive lock.
  void EvictOverCapacityLocked() REQUIRES(mu_);

  mutable util::SharedMutex mu_;
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mu_);
  int64_t max_entries_ GUARDED_BY(mu_) = 0;  // 0 = unbounded
  // Serializes Save: each save snapshots under mu_ and writes outside it, so
  // two saves must not share the store's temp file. Taken before mu_.
  mutable util::Mutex save_mu_;
  // The context memo, apart from mu_ so context lookups never wait on a
  // solve's insert. A key views strings its own context owns; the deque
  // keeps insertion order for FIFO eviction.
  mutable util::SharedMutex contexts_mu_;
  std::unordered_map<core::ContextKey, std::shared_ptr<const core::Context>,
                     core::ContextKeyHash>
      contexts_ GUARDED_BY(contexts_mu_);
  std::deque<std::shared_ptr<const core::Context>> context_order_ GUARDED_BY(contexts_mu_);
  std::atomic<uint64_t> clock_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace hetpipe::runner
