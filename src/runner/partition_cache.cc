#include "runner/partition_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/binary_io.h"

namespace hetpipe::runner {
namespace {

// The shared FNV-1a (util/binary_io.h): same algorithm this file always
// used, so every structural fingerprint — and thus every cache key and file
// checksum — is byte-identical to what older binaries computed.
using Fingerprint = util::Fnv1a;

// The distinct GPU classes present in `cluster`, ordered by name so the
// result is independent of registration order (and thus of the process).
std::vector<const hw::GpuSpec*> PresentSpecs(const hw::Cluster& cluster) {
  std::vector<const hw::GpuSpec*> specs;
  for (const hw::Gpu& gpu : cluster.gpus()) {
    const hw::GpuSpec& spec = hw::SpecOf(gpu.type);
    bool known = false;
    for (const hw::GpuSpec* s : specs) {
      known = known || s == &spec;
    }
    if (!known) {
      specs.push_back(&spec);
    }
  }
  std::sort(specs.begin(), specs.end(),
            [](const hw::GpuSpec* a, const hw::GpuSpec* b) {
              return std::strcmp(a->name, b->name) < 0;
            });
  return specs;
}

// Everything the per-layer cost model feeds the partitioner: compute times on
// every GPU class present in the cluster, boundary transfer sizes, stash and
// param bytes (memory model), and the class identities (name, declared
// TFLOPS, memory capacity) those times and caps derive from. Value-based, so
// two processes that build the same cluster spec agree on the fingerprint.
uint64_t ProfileFingerprint(const model::ModelProfile& profile, const hw::Cluster& cluster) {
  const std::vector<const hw::GpuSpec*> specs = PresentSpecs(cluster);
  Fingerprint fp;
  fp.Mix(profile.graph().name());
  fp.Mix(static_cast<uint64_t>(profile.batch_size()));
  for (const hw::GpuSpec* spec : specs) {
    fp.Mix(std::string(spec->name));
    fp.Mix(spec->effective_tflops);
    fp.Mix(spec->memory_gib);
  }
  for (int layer = 0; layer < profile.num_layers(); ++layer) {
    for (const hw::GpuSpec* spec : specs) {
      const model::LayerTime& t = profile.TimeOf(layer, spec->type);
      fp.Mix(t.fwd_s);
      fp.Mix(t.bwd_s);
    }
    fp.Mix(profile.BoundaryTransferBytes(layer));
    fp.Mix(profile.graph().layer(layer).param_bytes);
    fp.Mix(profile.graph().StashBytesInRange(layer, layer));
  }
  return fp.value();
}

// The (class, node) sequence of the virtual worker, by class name so the
// signature survives process boundaries. With the order search on, a solve's
// answer depends only on the multiset, so the sequence is sorted and any
// GPU-id set with the same shape maps to the same key; with the search off
// the given order IS the stage order, so it must stay in the key.
std::string VwSignature(const hw::Cluster& cluster, const std::vector<int>& gpu_ids,
                        bool order_invariant) {
  std::vector<std::pair<std::string, int>> shape;
  shape.reserve(gpu_ids.size());
  for (int id : gpu_ids) {
    const hw::Gpu& gpu = cluster.gpu(id);
    shape.emplace_back(hw::SpecOf(gpu.type).name, gpu.node);
  }
  if (order_invariant) {
    std::sort(shape.begin(), shape.end());
  }
  std::string signature;
  for (const auto& [name, node] : shape) {
    signature += name;
    signature.push_back('@');
    signature += std::to_string(node);
    signature.push_back(';');
  }
  return signature;
}

std::string MakeKey(const partition::Partitioner& partitioner, const std::vector<int>& gpu_ids,
                    const partition::PartitionOptions& options) {
  Fingerprint fp;
  fp.Mix(ProfileFingerprint(partitioner.profile(), partitioner.cluster()));
  fp.Mix(partitioner.cluster().ToString());
  // Two probes at distinct non-zero sizes fully characterize each affine
  // link model: t(1) = latency + 1/bw and t(1 MiB) = latency + 1 MiB/bw pin
  // down both coefficients, so clusters differing in any link knob —
  // bandwidth, scaling/efficiency, or latency/intercept — never share a key.
  // (A 0-byte probe would be blind to latency: TransferTime(0) is 0 by
  // definition, so latency-only and latency+bandwidth-aliased changes could
  // collide.)
  fp.Mix(partitioner.cluster().pcie().TransferTime(1));
  fp.Mix(partitioner.cluster().pcie().TransferTime(1ULL << 20));
  fp.Mix(partitioner.cluster().infiniband().TransferTime(1));
  fp.Mix(partitioner.cluster().infiniband().TransferTime(1ULL << 20));
  // Rack topologies and per-pair overrides make the inter-node fabric
  // non-uniform, so probe the resolved links among the virtual worker's own
  // nodes too (file version 3). A solve depends on inter-node links only
  // between consecutive stages, which are all VW GPUs, so pairs outside the
  // VW are irrelevant — probing only the VW's pairs keeps a degraded link
  // elsewhere in the cluster from splitting keys of provably identical
  // solves. On a uniform fabric every probe is a pure function of the four
  // above, so topology-only changes, and nothing else, split keys.
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
  std::string key = std::to_string(fp.value());
  key.push_back('|');
  key += VwSignature(partitioner.cluster(), gpu_ids,
                     /*order_invariant=*/options.search_gpu_orders);
  key += "nm" + std::to_string(options.nm);
  key += options.search_gpu_orders ? "s1" : "s0";
  // Scalable-tier strategies search different order slices, so their results
  // may differ from the exact search's and must not alias its entries. The
  // token is appended only when the RESOLVED strategy is non-exact: every
  // exact-path key (the only kind that existed before the scalable tier) is
  // byte-identical to what it always was, so version-3 cache files stay
  // valid with no version bump. The knobs that shape a non-exact search ride
  // along in its token.
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

// Rewrites the cached partition's gpu ids onto `gpu_ids`. Valid because the
// solution depends on the GPUs only through (type, node): stage times, link
// classes, and memory caps are all unchanged under the rewrite.
partition::Partition Remap(partition::Partition partition, const hw::Cluster& cluster,
                           const std::vector<int>& gpu_ids) {
  std::vector<bool> used(gpu_ids.size(), false);
  for (partition::StageAssignment& stage : partition.stages) {
    for (size_t i = 0; i < gpu_ids.size(); ++i) {
      const hw::Gpu& gpu = cluster.gpu(gpu_ids[i]);
      if (!used[i] && gpu.type == stage.gpu_type && gpu.node == stage.node) {
        used[i] = true;
        stage.gpu_id = gpu_ids[i];
        break;
      }
    }
  }
  return partition;
}

// ---- Binary (de)serialization via util/binary_io.h. Little-endian scalars,
// ---- length-prefixed strings; GPU classes travel by name + numbers, never
// ---- by handle.

using util::Cursor;
using util::PutF64;
using util::PutI32;
using util::PutStr;
using util::PutU32;
using util::PutU64;

void SerializePartition(std::string& out, const partition::Partition& partition) {
  out.push_back(partition.feasible ? 1 : 0);
  PutF64(out, partition.bottleneck_time);
  PutF64(out, partition.sum_time);
  PutU32(out, static_cast<uint32_t>(partition.stages.size()));
  for (const partition::StageAssignment& stage : partition.stages) {
    const hw::GpuSpec& spec = hw::SpecOf(stage.gpu_type);
    PutI32(out, stage.first_layer);
    PutI32(out, stage.last_layer);
    PutI32(out, stage.gpu_id);
    PutI32(out, stage.node);
    PutStr(out, spec.name);
    PutF64(out, spec.effective_tflops);
    PutF64(out, spec.memory_gib);
    out.push_back(spec.code);
    PutF64(out, stage.fwd_compute_s);
    PutF64(out, stage.bwd_compute_s);
    PutF64(out, stage.fwd_comm_in_s);
    PutF64(out, stage.bwd_comm_in_s);
    PutU64(out, stage.param_bytes);
    PutU64(out, stage.memory_bytes);
    PutU64(out, stage.memory_cap);
  }
}

// Fails (returns false) on malformed bytes or a GPU class name that is not
// currently registered with the recorded numbers. The latter cannot happen
// for a true key hit — the key fingerprints every class of the cluster — so
// a failure simply demotes the entry to a miss.
bool DeserializePartition(const std::string& bytes, partition::Partition* out) {
  Cursor cursor(bytes.data(), bytes.size());
  partition::Partition partition;
  partition.feasible = cursor.Get<char>() != 0;
  partition.bottleneck_time = cursor.Get<double>();
  partition.sum_time = cursor.Get<double>();
  const uint32_t num_stages = cursor.Get<uint32_t>();
  for (uint32_t q = 0; cursor.ok() && q < num_stages; ++q) {
    partition::StageAssignment stage;
    stage.first_layer = cursor.Get<int32_t>();
    stage.last_layer = cursor.Get<int32_t>();
    stage.gpu_id = cursor.Get<int32_t>();
    stage.node = cursor.Get<int32_t>();
    const std::string type_name = cursor.GetStr();
    const double tflops = cursor.Get<double>();
    const double memory_gib = cursor.Get<double>();
    cursor.Get<char>();  // display code: informational only
    stage.fwd_compute_s = cursor.Get<double>();
    stage.bwd_compute_s = cursor.Get<double>();
    stage.fwd_comm_in_s = cursor.Get<double>();
    stage.bwd_comm_in_s = cursor.Get<double>();
    stage.param_bytes = cursor.Get<uint64_t>();
    stage.memory_bytes = cursor.Get<uint64_t>();
    stage.memory_cap = cursor.Get<uint64_t>();
    if (!cursor.ok()) {
      return false;
    }
    const hw::GpuSpec* spec = hw::FindGpuTypeByName(type_name);
    if (spec == nullptr || spec->effective_tflops != tflops ||
        spec->memory_gib != memory_gib) {
      return false;
    }
    stage.gpu_type = spec->type;
    partition.stages.push_back(stage);
  }
  if (!cursor.ok() || cursor.left() != 0) {
    return false;
  }
  *out = std::move(partition);
  return true;
}

constexpr uint32_t kFileMagic = 0x31435048;  // "HPC1"

uint64_t ChecksumBytes(const char* data, size_t size) { return util::Fnv1aBytes(data, size); }

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
  const std::string key = MakeKey(partitioner, gpu_ids, options);
  if (was_hit != nullptr) {
    *was_hit = false;
  }
  // Fast path: a materialized hit needs only the shared lock — concurrent
  // readers (sweep tasks, serve connections) never serialize here. The LRU
  // stamp is an atomic inside the entry, so refreshing it is a plain store.
  {
    util::ReaderMutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      it->second.last_use.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                                std::memory_order_relaxed);
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      return Remap(it->second.partition, partitioner.cluster(), gpu_ids);
    }
  }
  // Slow path: materializing a disk-loaded entry or recording a miss mutates
  // the maps, so take the exclusive lock and re-check (another thread may
  // have materialized or solved this key since the shared lock dropped).
  {
    util::WriterMutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      it->second.last_use.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                                std::memory_order_relaxed);
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      return Remap(it->second.partition, partitioner.cluster(), gpu_ids);
    }
    auto pending = pending_.find(key);
    if (pending != pending_.end()) {
      partition::Partition materialized;
      const bool usable = DeserializePartition(pending->second, &materialized);
      pending_.erase(pending);
      if (usable) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        entries_.try_emplace(key, materialized,
                             clock_.fetch_add(1, std::memory_order_relaxed) + 1);
        if (was_hit != nullptr) {
          *was_hit = true;
        }
        return Remap(std::move(materialized), partitioner.cluster(), gpu_ids);
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  partition::Partition solved = partitioner.SolveScalable(gpu_ids, options);
  {
    util::WriterMutexLock lock(mu_);
    entries_.try_emplace(key, solved, clock_.fetch_add(1, std::memory_order_relaxed) + 1);
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
  while (static_cast<int64_t>(entries_.size() + pending_.size()) > max_entries_) {
    // Loaded-but-never-requested entries rank older than any materialized
    // one: nothing in this process has asked for them yet.
    if (!pending_.empty()) {
      pending_.erase(pending_.begin());
    } else {
      auto oldest = entries_.begin();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.last_use.load(std::memory_order_relaxed) <
            oldest->second.last_use.load(std::memory_order_relaxed)) {
          oldest = it;
        }
      }
      entries_.erase(oldest);
    }
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

int PartitionCache::FindMaxNm(const partition::Partitioner& partitioner,
                              const std::vector<int>& gpu_ids, int nm_cap,
                              partition::PartitionOptions options) {
  return partition::FindMaxNmWith(
      [&](const partition::PartitionOptions& at_nm) {
        return Solve(partitioner, gpu_ids, at_nm);
      },
      nm_cap, options);
}

bool PartitionCache::Save(const std::string& path, std::string* error) const {
  std::string records;
  uint64_t count = 0;
  {
    // Shared lock: Save only reads, so a periodic background save never
    // blocks concurrent cache hits (inserts wait, which is fine — they are
    // preceded by a full solve anyway).
    util::ReaderMutexLock lock(mu_);
    count = entries_.size() + pending_.size();
    for (const auto& [key, entry] : entries_) {
      std::string blob;
      PutStr(blob, key);
      SerializePartition(blob, entry.partition);
      PutU32(records, static_cast<uint32_t>(blob.size()));
      records += blob;
    }
    for (const auto& [key, bytes] : pending_) {
      std::string blob;
      PutStr(blob, key);
      blob += bytes;
      PutU32(records, static_cast<uint32_t>(blob.size()));
      records += blob;
    }
  }

  std::string file;
  PutU32(file, kFileMagic);
  PutU32(file, kFileVersion);
  PutU64(file, count);
  file += records;
  PutU64(file, ChecksumBytes(records.data(), records.size()));

  // Write-then-rename so a crash (or ENOSPC) mid-save can never leave `path`
  // truncated: the previous cache survives until the new bytes are complete,
  // and the rename swaps them in atomically (same directory, so it cannot
  // degrade to a copy).
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      SetError(error, "cannot open " + tmp_path + " for writing");
      return false;
    }
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.flush();
    if (!out.good()) {
      SetError(error, "short write to " + tmp_path);
      out.close();
      std::remove(tmp_path.c_str());
      return false;
    }
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    SetError(error, "cannot rename " + tmp_path + " to " + path);
    std::remove(tmp_path.c_str());
    return false;
  }
  return true;
}

bool PartitionCache::Load(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    SetError(error, "cannot open " + path);
    return false;
  }
  std::string file((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  Cursor header(file.data(), file.size());
  const uint32_t magic = header.Get<uint32_t>();
  const uint32_t version = header.Get<uint32_t>();
  const uint64_t count = header.Get<uint64_t>();
  if (!header.ok() || magic != kFileMagic) {
    SetError(error, path + " is not a partition cache file");
    return false;
  }
  if (version != kFileVersion) {
    SetError(error, path + " has cache version " + std::to_string(version) + ", expected " +
                        std::to_string(kFileVersion));
    return false;
  }
  if (header.left() < sizeof(uint64_t)) {
    SetError(error, path + " is truncated");
    return false;
  }

  const size_t header_size = file.size() - header.left();
  const size_t records_size = header.left() - sizeof(uint64_t);
  const char* records = file.data() + header_size;
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, records + records_size, sizeof(stored_checksum));
  if (ChecksumBytes(records, records_size) != stored_checksum) {
    SetError(error, path + " failed its checksum (corrupted)");
    return false;
  }

  std::vector<std::pair<std::string, std::string>> loaded;
  size_t offset = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (records_size - offset < sizeof(uint32_t)) {
      SetError(error, path + " is truncated");
      return false;
    }
    uint32_t blob_size = 0;
    std::memcpy(&blob_size, records + offset, sizeof(blob_size));
    offset += sizeof(blob_size);
    if (blob_size > records_size - offset) {
      SetError(error, path + " is truncated");
      return false;
    }
    Cursor blob_cursor(records + offset, blob_size);
    std::string key = blob_cursor.GetStr();
    if (!blob_cursor.ok() || key.empty()) {
      SetError(error, path + " contains a malformed entry");
      return false;
    }
    const size_t key_bytes = blob_size - blob_cursor.left();
    loaded.emplace_back(std::move(key),
                        std::string(records + offset + key_bytes, blob_cursor.left()));
    offset += blob_size;
  }
  if (offset != records_size) {
    SetError(error, path + " has trailing bytes after its entries");
    return false;
  }

  util::WriterMutexLock lock(mu_);
  for (auto& [key, bytes] : loaded) {
    if (entries_.find(key) == entries_.end() && pending_.find(key) == pending_.end()) {
      pending_.emplace(std::move(key), std::move(bytes));
    }
  }
  EvictOverCapacityLocked();
  return true;
}

int64_t PartitionCache::size() const {
  util::ReaderMutexLock lock(mu_);
  return static_cast<int64_t>(entries_.size() + pending_.size());
}

void PartitionCache::Clear() {
  util::WriterMutexLock lock(mu_);
  entries_.clear();
  pending_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace hetpipe::runner
