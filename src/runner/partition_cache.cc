#include "runner/partition_cache.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <memory>
#include <string_view>
#include <tuple>

#include "store/extent_reader.h"
#include "store/extent_writer.h"
#include "util/binary_io.h"

namespace hetpipe::runner {
namespace {

template <typename Int>
void AppendInt(std::string* out, Int value) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// Appends the (class, node) sequence of the virtual worker, by class name so
// the signature survives process boundaries, and returns its GPU ids in
// signature order: the slots entries refer to. With the order search on, a
// solve's answer depends only on the multiset, so the sequence is sorted and
// any GPU-id set with the same shape maps to the same key; ties keep the
// given order. With the search off the given order IS the stage order, so it
// must stay in the key.
std::vector<int> VwSignature(const hw::Cluster& cluster, const std::vector<int>& gpu_ids,
                             bool order_invariant, std::string* key) {
  // Class names live as long as the cluster, so the tuples can view them;
  // views compare like the strings, so the sorted order is the same.
  std::vector<std::tuple<std::string_view, int, int>> shape;
  shape.reserve(gpu_ids.size());
  for (int id : gpu_ids) {
    const hw::Gpu& gpu = cluster.gpu(id);
    shape.emplace_back(hw::SpecOf(gpu.type).name, gpu.node, static_cast<int>(shape.size()));
  }
  if (order_invariant) {
    std::sort(shape.begin(), shape.end());
  }
  std::vector<int> slots;
  slots.reserve(shape.size());
  for (const auto& [name, node, position] : shape) {
    key->append(name);
    key->push_back('@');
    AppendInt(key, node);
    key->push_back(';');
    slots.push_back(gpu_ids[static_cast<size_t>(position)]);
  }
  return slots;
}

// A key continues the partitioner's inputs fingerprint (profile, cluster
// layout, base link models; see partition::SolveInputsFingerprint) with the
// per-call inputs. FNV-1a's whole state is its 64-bit value, so resuming
// from the stored state yields exactly the bytes of one pass over all
// inputs: the key layout since version-3 files, pinned by
// tests/golden/cache_keys.txt. Stores the signature's GPU ids in `slots`.
std::string MakeKey(const partition::Partitioner& partitioner, const std::vector<int>& gpu_ids,
                    const partition::PartitionOptions& options, std::vector<int>* slots) {
  util::Fnv1a fp(partitioner.inputs_fingerprint());
  // Rack topologies and per-pair overrides make the inter-node fabric
  // non-uniform, so probe the resolved links among the virtual worker's own
  // nodes too (file version 3). A solve depends on inter-node links only
  // between consecutive stages, which are all VW GPUs, so pairs outside the
  // VW are irrelevant — probing only the VW's pairs keeps a degraded link
  // elsewhere in the cluster from splitting keys of provably identical
  // solves. On a uniform fabric every probe is a pure function of the base
  // link probes, so topology-only changes, and nothing else, split keys.
  const hw::Cluster& cluster = partitioner.cluster();
  std::vector<int> vw_nodes;
  vw_nodes.reserve(gpu_ids.size());
  for (int id : gpu_ids) {
    const int node = cluster.gpu(id).node;
    if (std::find(vw_nodes.begin(), vw_nodes.end(), node) == vw_nodes.end()) {
      vw_nodes.push_back(node);
    }
  }
  std::sort(vw_nodes.begin(), vw_nodes.end());
  for (size_t a = 0; a < vw_nodes.size(); ++a) {
    for (size_t b = a + 1; b < vw_nodes.size(); ++b) {
      fp.Mix(cluster.LinkBetweenNodes(vw_nodes[a], vw_nodes[b]).TransferTime(1));
      fp.Mix(cluster.LinkBetweenNodes(vw_nodes[a], vw_nodes[b]).TransferTime(1ULL << 20));
    }
  }
  fp.Mix(options.mem_params.optimizer_multiplier);
  fp.Mix(options.mem_params.framework_overhead_bytes);
  fp.Mix(static_cast<uint64_t>(options.mem_params.stash_weights ? 1 : 0));
  std::string key;
  key.reserve(32 + 24 * gpu_ids.size());
  AppendInt(&key, fp.value());
  key.push_back('|');
  *slots = VwSignature(partitioner.cluster(), gpu_ids,
                       /*order_invariant=*/options.search_gpu_orders, &key);
  key += "nm";
  AppendInt(&key, options.nm);
  key += options.search_gpu_orders ? "s1" : "s0";
  // Scalable-tier strategies search different order slices, so their results
  // may differ from the exact search's and must not alias its entries. The
  // token is appended only when the RESOLVED strategy is non-exact: every
  // exact-path key (the only kind that existed before the scalable tier) is
  // byte-identical to what it always was. The knobs that shape a non-exact
  // search ride along in its token.
  const partition::SearchStrategy resolved =
      partition::ResolveSearchStrategy(partitioner.cluster(), gpu_ids, options);
  if (resolved != partition::SearchStrategy::kExact) {
    key.push_back('|');
    key += partition::SearchStrategyName(resolved);
    key += " w" + std::to_string(options.beam_width);
    if (resolved == partition::SearchStrategy::kHierarchical) {
      key += " r" + std::to_string(options.rack_order_limit);
    }
  }
  return key;
}

// ---- Entries: one packed encoding in memory and on disk. feasible byte,
// ---- raw bottleneck and sum doubles, varint stage count, then per stage
// ---- zigzag-varint first and last layer, varint slot, four raw doubles and
// ---- three varint byte counts.

// Packs `partition`, solved for a virtual worker whose signature GPUs are
// `slots`: each stage's GPU becomes the first unused slot of its (type,
// node). Every stage runs on a distinct GPU of the worker, so one always
// matches.
std::string PackEntry(const partition::Partition& partition, const hw::Cluster& cluster,
                      const std::vector<int>& slots) {
  std::string packed;
  packed.push_back(partition.feasible ? 1 : 0);
  util::PutF64(packed, partition.bottleneck_time);
  util::PutF64(packed, partition.sum_time);
  util::PutVarU64(packed, partition.stages.size());
  std::vector<bool> used(slots.size(), false);
  for (const partition::StageAssignment& stage : partition.stages) {
    size_t slot = 0;
    while (slot < slots.size() &&
           (used[slot] || cluster.gpu(slots[slot]).type != stage.gpu_type ||
            cluster.gpu(slots[slot]).node != stage.node)) {
      ++slot;
    }
    assert(slot < slots.size());
    if (slot < slots.size()) {
      used[slot] = true;
    }
    util::PutVarU64(packed, util::ZigZagEncode(stage.first_layer));
    util::PutVarU64(packed, util::ZigZagEncode(stage.last_layer));
    util::PutVarU64(packed, slot);
    for (double value :
         {stage.fwd_compute_s, stage.bwd_compute_s, stage.fwd_comm_in_s, stage.bwd_comm_in_s}) {
      util::PutF64(packed, value);
    }
    for (uint64_t value : {stage.param_bytes, stage.memory_bytes, stage.memory_cap}) {
      util::PutVarU64(packed, value);
    }
  }
  packed.shrink_to_fit();  // the appends above leave capacity slack
  return packed;
}

// Decodes an entry onto the requester, whose signature GPUs are `slots`:
// slot s runs on slots[s]. Entries come from files, so nothing is trusted:
// false — and the caller solves instead — on short or trailing bytes, a
// stage count the bytes cannot hold, stages that do not tile the model's
// layers in order, or a slot outside the signature.
bool UnpackEntry(std::string_view packed, const partition::Partitioner& partitioner,
                 const std::vector<int>& slots, partition::Partition* out) {
  const int num_layers = partitioner.profile().num_layers();
  util::Cursor cursor(packed.data(), packed.size());
  const auto next_int = [&] { return util::ZigZagDecode(cursor.GetVarU64()); };
  out->feasible = cursor.Get<char>() != 0;
  out->bottleneck_time = cursor.Get<double>();
  out->sum_time = cursor.Get<double>();
  const uint64_t num_stages = cursor.GetVarU64();
  // The four raw doubles alone take 32 bytes a stage.
  if (!cursor.ok() || num_stages > cursor.left() / 32) {
    return false;
  }
  out->stages.resize(num_stages);
  int64_t next_layer = 0;
  for (partition::StageAssignment& stage : out->stages) {
    const int64_t first = next_int();
    const int64_t last = next_int();
    const uint64_t slot = cursor.GetVarU64();
    if (first != next_layer || last < first || last >= num_layers || slot >= slots.size()) {
      return false;
    }
    next_layer = last + 1;
    stage.first_layer = static_cast<int>(first);
    stage.last_layer = static_cast<int>(last);
    stage.gpu_id = slots[slot];
    const hw::Gpu& gpu = partitioner.cluster().gpu(stage.gpu_id);
    stage.gpu_type = gpu.type;
    stage.node = gpu.node;
    stage.fwd_compute_s = cursor.Get<double>();
    stage.bwd_compute_s = cursor.Get<double>();
    stage.fwd_comm_in_s = cursor.Get<double>();
    stage.bwd_comm_in_s = cursor.Get<double>();
    stage.param_bytes = cursor.GetVarU64();
    stage.memory_bytes = cursor.GetVarU64();
    stage.memory_cap = cursor.GetVarU64();
  }
  return cursor.ok() && cursor.left() == 0 && (num_stages == 0 || next_layer == num_layers);
}

// The `name` field of a loaded row, or nullptr when absent or not a T.
template <typename T>
const T* FieldOf(const runner::ResultRow& row, const char* name) {
  const runner::Value* value = row.FindValue(name);
  return value == nullptr ? nullptr : std::get_if<T>(value);
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

}  // namespace

partition::Partition PartitionCache::Solve(const partition::Partitioner& partitioner,
                                           const std::vector<int>& gpu_ids,
                                           const partition::PartitionOptions& options,
                                           bool* was_hit) {
  // The fingerprint a partitioner stored at construction must still describe
  // its inputs (they must not change while it lives); Debug builds re-hash.
  assert(partitioner.inputs_fingerprint() ==
         partition::SolveInputsFingerprint(partitioner.profile(), partitioner.cluster()));
  std::vector<int> slots;
  const std::string key = MakeKey(partitioner, gpu_ids, options, &slots);
  if (was_hit != nullptr) {
    *was_hit = false;
  }
  // A hit needs only the shared lock — concurrent readers (sweep tasks,
  // serve connections) never serialize here. The LRU stamp is an atomic
  // inside the entry, so refreshing it is a plain store.
  {
    util::ReaderMutexLock lock(mu_);
    auto it = entries_.find(key);
    partition::Partition hit;
    if (it != entries_.end() && UnpackEntry(it->second.packed, partitioner, slots, &hit)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      it->second.last_use.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                                std::memory_order_relaxed);
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      return hit;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  partition::Partition solved = partitioner.SolveScalable(gpu_ids, options);
  std::string packed = PackEntry(solved, partitioner.cluster(), slots);
  {
    util::WriterMutexLock lock(mu_);
    auto [it, inserted] = entries_.try_emplace(
        key, std::move(packed), clock_.fetch_add(1, std::memory_order_relaxed) + 1);
    if (!inserted) {
      // Another thread solved the key meanwhile (same bytes), or the entry
      // failed to unpack: either way the fresh solve is right.
      it->second.packed = std::move(packed);
    }
    EvictOverCapacityLocked();
  }
  return solved;
}

void PartitionCache::SetCapacity(int64_t max_entries) {
  util::WriterMutexLock lock(mu_);
  max_entries_ = max_entries < 0 ? 0 : max_entries;
  EvictOverCapacityLocked();
}

int64_t PartitionCache::capacity() const {
  util::ReaderMutexLock lock(mu_);
  return max_entries_;
}

void PartitionCache::EvictOverCapacityLocked() {
  if (max_entries_ <= 0) {
    return;
  }
  while (static_cast<int64_t>(entries_.size()) > max_entries_) {
    auto oldest = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_use.load(std::memory_order_relaxed) <
          oldest->second.last_use.load(std::memory_order_relaxed)) {
        oldest = it;
      }
      if (oldest->second.last_use.load(std::memory_order_relaxed) == 0) {
        break;  // loaded and never requested: nothing is older
      }
    }
    entries_.erase(oldest);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

int PartitionCache::FindMaxNm(const partition::Partitioner& partitioner,
                              const std::vector<int>& gpu_ids, int nm_cap,
                              partition::PartitionOptions options, bool* all_hits,
                              partition::Partition* winner) {
  bool every_probe_hit = true;
  const int max_nm = partition::FindMaxNmWith(
      [&](const partition::PartitionOptions& at_nm) {
        bool was_hit = false;
        partition::Partition probe = Solve(partitioner, gpu_ids, at_nm, &was_hit);
        every_probe_hit = every_probe_hit && was_hit;
        // The search's feasible probes rise in nm, so the last is the answer.
        if (winner != nullptr && probe.feasible) {
          *winner = probe;
        }
        return probe;
      },
      nm_cap, options);
  if (all_hits != nullptr) {
    *all_hits = every_probe_hit;
  }
  return max_nm;
}

std::shared_ptr<const core::Context> PartitionCache::GetContext(const core::ContextKey& key) {
  {
    util::ReaderMutexLock lock(contexts_mu_);
    const auto it = contexts_.find(key);
    if (it != contexts_.end()) return it->second;
  }

  // Miss: build outside the lock (a spec parse and a model profile take
  // milliseconds); a racing loser's copy is dropped.
  auto built = std::make_shared<const core::Context>(key);
  util::WriterMutexLock lock(contexts_mu_);
  const auto [it, inserted] = contexts_.emplace(built->key, built);
  if (!inserted) return it->second;
  context_order_.push_back(built);
  while (static_cast<int64_t>(context_order_.size()) > kMaxContexts) {
    // The deque's reference keeps the evicted context's key strings alive
    // through the erase.
    contexts_.erase(context_order_.front()->key);
    context_order_.pop_front();
  }
  return built;
}

int64_t PartitionCache::contexts() const {
  util::ReaderMutexLock lock(contexts_mu_);
  return static_cast<int64_t>(contexts_.size());
}

bool PartitionCache::Save(const std::string& path, std::string* error) const {
  util::MutexLock save_lock(save_mu_);
  std::vector<std::pair<std::string, std::string>> snapshot;
  {
    // Shared lock: Save only reads, so a periodic background save never
    // blocks concurrent cache hits, and the file is written after the lock
    // drops.
    util::ReaderMutexLock lock(mu_);
    snapshot.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      snapshot.emplace_back(key, entry.packed);
    }
  }
  std::unique_ptr<store::ExtentWriter> writer = store::ExtentWriter::Open(path, error);
  if (writer == nullptr) {
    return false;
  }
  for (auto& [key, packed] : snapshot) {
    runner::ResultRow row;
    row.Reserve(3);
    row.Set("v", static_cast<int64_t>(kFileVersion));
    row.Set("key", std::move(key));
    row.Set("entry", std::move(packed));
    writer->Append(row);
  }
  return writer->Finalize(error);
}

bool PartitionCache::Load(const std::string& path, std::string* error) {
  std::vector<runner::ResultRow> rows;
  std::string store_error;
  if (!store::ReadAllRows(path, &rows, &store_error)) {
    SetError(error, store_error);
    return false;
  }
  // Every row is checked before anything changes; the entry bytes are
  // checked when a request unpacks them.
  std::vector<std::pair<std::string, std::string>> loaded;
  loaded.reserve(rows.size());
  for (const runner::ResultRow& row : rows) {
    const int64_t* version = FieldOf<int64_t>(row, "v");
    const std::string* key = FieldOf<std::string>(row, "key");
    const std::string* entry = FieldOf<std::string>(row, "entry");
    if (version != nullptr && *version != kFileVersion) {
      SetError(error, path + " has cache version " + std::to_string(*version) + ", expected " +
                          std::to_string(kFileVersion));
      return false;
    }
    if (version == nullptr || key == nullptr || key->empty() || entry == nullptr) {
      SetError(error, path + " is not a partition cache file (rows need v, key and entry)");
      return false;
    }
    loaded.emplace_back(*key, *entry);
  }

  util::WriterMutexLock lock(mu_);
  for (auto& [key, packed] : loaded) {
    entries_.try_emplace(std::move(key), std::move(packed), 0);
  }
  EvictOverCapacityLocked();
  return true;
}

int64_t PartitionCache::size() const {
  util::ReaderMutexLock lock(mu_);
  return static_cast<int64_t>(entries_.size());
}

void PartitionCache::Clear() {
  util::WriterMutexLock lock(mu_);
  entries_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace hetpipe::runner
