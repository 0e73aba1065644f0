#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

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
// names and numbers, never process-local handles), so they are stable across
// processes and safe to persist.
//
// Because a solve's answer depends on the GPUs only through their (class, node)
// multiset, a hit for a *different* GPU-id set with the same signature is
// remapped onto the requested ids, so e.g. the four ED virtual workers of the
// paper cluster all share one solve.
//
// Thread-safety: one instance is shared by every sweep task of a run and by
// every connection of a `hetpipe_serve` daemon. The read path (a hit on a
// materialized entry) takes a shared lock, so concurrent readers never
// serialize against each other; all mutation (inserting a miss,
// materializing a loaded entry, eviction, Clear) takes the exclusive lock.
// Counters are atomics, so the hot hit path never writes under the shared
// lock except to the entry's own access stamp. A hit returns a Partition
// identical to what a cold solve would return (tested), so caching never
// changes results.
//
// Size bound: SetCapacity(n) caps the entry count (materialized + loaded
// alike); 0 (the default) keeps it unbounded, which is the historical
// behavior every bench relies on. When an insert overflows the bound, the
// least-recently-used entry is evicted (loaded-but-never-requested entries
// count as older than any materialized one) and evictions() counts it. A
// long-running service should set a bound; batch sweeps need not.
//
// Disk persistence: Save writes a versioned, checksummed binary snapshot and
// Load merges one back (entries already in memory win), so repeated figure
// runs skip the order search entirely (--cache-file in runner/cli.h). Save is
// safe to call concurrently with reads and solves — `hetpipe_serve` calls it
// periodically from a background thread — and writes a temp file renamed over
// the target, so a crash mid-save never corrupts the previous snapshot.
// Loaded entries stay in serialized form until their key is requested; a key
// can only match after the experiment has built the same cluster, so every
// GPU class a loaded entry mentions is resolvable by then. Load rejects
// truncated, corrupted, or version-mismatched files, leaving the cache
// unchanged.
class PartitionCache {
 public:
  // Bumped whenever the file layout or the key derivation changes; files of
  // any other version are rejected on Load. v2: link probes moved from
  // (0 B, 1 MiB) to (1 B, 1 MiB) so spec-level latency/intercept knobs are
  // always part of the key. v3: the resolved inter link of every node pair
  // of the virtual worker is probed, so rack topology and per-pair link
  // overrides can never alias a uniform-fabric entry (and vice versa),
  // while topology changes outside the VW's nodes — which cannot affect its
  // solve — still share entries.
  static constexpr uint32_t kFileVersion = 3;

  // Drop-in for Partitioner::SolveScalable (the resolved strategy is exact
  // for every paper-scale input). Non-exact resolved strategies get their own key suffix, so a beam or
  // hierarchical answer can never alias an exact entry or vice versa; exact
  // keys are byte-identical to pre-scalable-tier keys, keeping version-3
  // cache files valid. When `was_hit` is non-null it reports whether the
  // answer came from the cache (serve responses surface this); materializing
  // a disk-loaded entry counts as a hit.
  partition::Partition Solve(const partition::Partitioner& partitioner,
                             const std::vector<int>& gpu_ids,
                             const partition::PartitionOptions& options,
                             bool* was_hit = nullptr);

  // partition::FindMaxNmWith over SolveScalable: every probed nm goes through
  // the cache, so a later Solve at the chosen nm is a hit.
  int FindMaxNm(const partition::Partitioner& partitioner, const std::vector<int>& gpu_ids,
                int nm_cap, partition::PartitionOptions options);

  // Caps the number of entries (materialized + still-serialized). 0 removes
  // the bound. Shrinking below the current size evicts immediately, oldest
  // first. Not meaningfully concurrent with itself, but safe against
  // concurrent Solve/Save.
  void SetCapacity(int64_t max_entries);
  int64_t capacity() const;

  // Writes every entry (materialized and still-serialized alike) to `path`,
  // via a temp file in the same directory renamed over the target, so a
  // crash mid-save never leaves `path` truncated or corrupted. Returns false
  // and fills `error` (when non-null) on I/O failure (the target is then
  // untouched).
  bool Save(const std::string& path, std::string* error = nullptr) const;

  // Merges the entries of a Save'd file; keys already present are kept as-is.
  // If the merge overflows a configured capacity, oldest entries are evicted.
  // Returns false and fills `error` (when non-null) on an unreadable,
  // truncated, corrupted, or version-mismatched file — the cache is unchanged
  // in every failure case.
  bool Load(const std::string& path, std::string* error = nullptr);

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }
  int64_t size() const;
  void Clear();

 private:
  // A materialized entry plus its LRU stamp. The stamp is an atomic so the
  // shared-lock hit path can refresh it without upgrading to the exclusive
  // lock; eviction scans stamps under the exclusive lock.
  struct Entry {
    partition::Partition partition;
    std::atomic<uint64_t> last_use;
    Entry(partition::Partition p, uint64_t stamp)
        : partition(std::move(p)), last_use(stamp) {}
  };

  // Evicts until the bound holds. Caller holds the exclusive lock.
  void EvictOverCapacityLocked() REQUIRES(mu_);

  mutable util::SharedMutex mu_;
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mu_);
  // Entries merged from disk, still serialized; materialized on first hit.
  // Never requested yet, so for eviction they rank older than any
  // materialized entry.
  std::unordered_map<std::string, std::string> pending_ GUARDED_BY(mu_);
  int64_t max_entries_ GUARDED_BY(mu_) = 0;  // 0 = unbounded
  std::atomic<uint64_t> clock_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace hetpipe::runner
