// Tests for the parallel sweep runner subsystem: thread pool, partition
// cache, result sinks, and the determinism guarantee — a multi-threaded
// sweep must be element-wise identical to the serial run, and cache hits
// must return exactly what a cold solve returns.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/experiment.h"
#include "hw/cluster.h"
#include "hw/cluster_spec.h"
#include "model/resnet.h"
#include "model/vgg.h"
#include "partition/partitioner.h"
#include "runner/cli.h"
#include "runner/partition_cache.h"
#include "runner/result_sink.h"
#include "runner/sweep_runner.h"
#include "runner/thread_pool.h"

namespace hetpipe::runner {
namespace {

// ---- ThreadPool ----

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> counts(257);
  pool.ParallelFor(257, [&](int64_t i) { counts[static_cast<size_t>(i)].fetch_add(1); });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(16, [&](int64_t) {
    // From inside a worker this must degrade to a serial inline loop instead
    // of deadlocking on the queue.
    pool.ParallelFor(16, [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16 * 16);
}

TEST(ThreadPoolTest, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](int64_t i) {
                         if (i == 13) {
                           throw std::runtime_error("boom");
                         }
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  int64_t sum = 0;  // no atomics needed: everything runs on this thread
  pool.ParallelFor(100, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPoolTest, WorkStealingKeepsSkewedResultsInputOrderedAndSerialIdentical) {
  // Heavily skewed per-index costs: the first few indices dominate. The
  // work-stealing chunking must still run every index exactly once and
  // produce results element-wise identical to the serial loop.
  constexpr int64_t kN = 96;
  const auto task = [](int64_t i) {
    // Index 0..7 are ~1000x the work of the rest.
    const int64_t iterations = i < 8 ? 400000 : 400;
    double acc = static_cast<double>(i);
    for (int64_t t = 0; t < iterations; ++t) {
      acc = acc * 1.0000001 + 0.5;
    }
    return acc;
  };

  std::vector<double> serial(kN);
  for (int64_t i = 0; i < kN; ++i) {
    serial[static_cast<size_t>(i)] = task(i);
  }

  ThreadPool pool(8);
  std::vector<double> stolen(kN);
  std::vector<std::atomic<int>> runs(kN);
  pool.ParallelFor(kN, [&](int64_t i) {
    runs[static_cast<size_t>(i)].fetch_add(1);
    stolen[static_cast<size_t>(i)] = task(i);
  });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(runs[static_cast<size_t>(i)].load(), 1) << i;
    EXPECT_EQ(stolen[static_cast<size_t>(i)], serial[static_cast<size_t>(i)]) << i;
  }
}

// ---- PartitionCache ----

void ExpectSamePartition(const partition::Partition& a, const partition::Partition& b) {
  ASSERT_EQ(a.feasible, b.feasible);
  ASSERT_EQ(a.num_stages(), b.num_stages());
  EXPECT_EQ(a.bottleneck_time, b.bottleneck_time);
  EXPECT_EQ(a.sum_time, b.sum_time);
  for (int q = 0; q < a.num_stages(); ++q) {
    const auto& sa = a.stages[static_cast<size_t>(q)];
    const auto& sb = b.stages[static_cast<size_t>(q)];
    EXPECT_EQ(sa.first_layer, sb.first_layer);
    EXPECT_EQ(sa.last_layer, sb.last_layer);
    EXPECT_EQ(sa.gpu_id, sb.gpu_id);
    EXPECT_EQ(sa.gpu_type, sb.gpu_type);
    EXPECT_EQ(sa.node, sb.node);
    EXPECT_EQ(sa.fwd_compute_s, sb.fwd_compute_s);
    EXPECT_EQ(sa.bwd_compute_s, sb.bwd_compute_s);
    EXPECT_EQ(sa.fwd_comm_in_s, sb.fwd_comm_in_s);
    EXPECT_EQ(sa.bwd_comm_in_s, sb.bwd_comm_in_s);
    EXPECT_EQ(sa.param_bytes, sb.param_bytes);
    EXPECT_EQ(sa.memory_bytes, sb.memory_bytes);
    EXPECT_EQ(sa.memory_cap, sb.memory_cap);
  }
}

TEST(PartitionCacheTest, HitReturnsColdSolveExactly) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  PartitionCache cache;

  for (int nm : {1, 2, 4}) {
    partition::PartitionOptions options;
    options.nm = nm;
    const partition::Partition cold = partitioner.SolveScalable({0, 4, 8, 12}, options);
    const partition::Partition miss = cache.Solve(partitioner, {0, 4, 8, 12}, options);
    const partition::Partition hit = cache.Solve(partitioner, {0, 4, 8, 12}, options);
    ExpectSamePartition(cold, miss);
    ExpectSamePartition(cold, hit);
  }
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.size(), 3);
}

TEST(PartitionCacheTest, RemapsSameShapeDifferentGpuIds) {
  // The four ED virtual workers of the paper cluster all have shape
  // {V@0, R@1, G@2, Q@3} with different GPU ids; one solve must serve all.
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  PartitionCache cache;

  partition::PartitionOptions options;
  options.nm = 3;
  cache.Solve(partitioner, {0, 4, 8, 12}, options);
  EXPECT_EQ(cache.misses(), 1);
  for (const std::vector<int>& vw : {std::vector<int>{1, 5, 9, 13},
                                     std::vector<int>{2, 6, 10, 14},
                                     std::vector<int>{3, 7, 11, 15}}) {
    const partition::Partition direct = partitioner.SolveScalable(vw, options);
    const partition::Partition cached = cache.Solve(partitioner, vw, options);
    ExpectSamePartition(direct, cached);  // includes the remapped gpu ids
  }
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 3);
}

TEST(PartitionCacheTest, FixedOrderSolvesKeyOnTheOrder) {
  // With the order search off, gpu_ids order IS the stage order: two orders
  // of the same multiset are different problems and must not share an entry.
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  PartitionCache cache;

  partition::PartitionOptions options;
  options.nm = 1;
  options.search_gpu_orders = false;
  const std::vector<int> vr = {0, 4};  // V stage 0, R stage 1
  const std::vector<int> rv = {4, 0};  // R stage 0, V stage 1
  ExpectSamePartition(partitioner.SolveScalable(vr, options), cache.Solve(partitioner, vr, options));
  ExpectSamePartition(partitioner.SolveScalable(rv, options), cache.Solve(partitioner, rv, options));
  EXPECT_EQ(cache.misses(), 2);
  ExpectSamePartition(partitioner.SolveScalable(rv, options), cache.Solve(partitioner, rv, options));
  EXPECT_EQ(cache.hits(), 1);
}

TEST(PartitionCacheTest, NonExactStrategiesGetTheirOwnKeys) {
  // A forced beam (or hierarchical) search may return a different partition
  // than the exact search on the same virtual worker, so a non-exact
  // RESOLVED strategy must never alias an exact entry — while the exact
  // path's keys stay byte-identical to the pre-scalable-tier keys (kAuto on
  // paper-scale inputs resolves to exact and shares them).
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  PartitionCache cache;

  partition::PartitionOptions options;
  options.nm = 2;
  partition::PartitionOptions beam_options = options;
  beam_options.strategy = partition::SearchStrategy::kBeam;

  const partition::Partition exact = cache.Solve(partitioner, {0, 4, 8, 12}, options);
  const partition::Partition beam = cache.Solve(partitioner, {0, 4, 8, 12}, beam_options);
  EXPECT_EQ(cache.misses(), 2);  // distinct keys: no aliasing either way
  EXPECT_EQ(cache.size(), 2);
  ExpectSamePartition(exact, partitioner.SolveScalable({0, 4, 8, 12}, options));
  ExpectSamePartition(beam, partitioner.SolveScalable({0, 4, 8, 12}, beam_options));

  // Both entries hit on repeat, and each hit returns its own strategy's
  // result.
  ExpectSamePartition(cache.Solve(partitioner, {0, 4, 8, 12}, options), exact);
  ExpectSamePartition(cache.Solve(partitioner, {0, 4, 8, 12}, beam_options), beam);
  EXPECT_EQ(cache.hits(), 2);

  // The knobs that shape a non-exact search are part of its key.
  beam_options.beam_width = 3;
  (void)cache.Solve(partitioner, {0, 4, 8, 12}, beam_options);
  EXPECT_EQ(cache.misses(), 3);

  // An explicit kExact rides the same key as the kAuto-resolved exact entry.
  partition::PartitionOptions explicit_exact = options;
  explicit_exact.strategy = partition::SearchStrategy::kExact;
  ExpectSamePartition(cache.Solve(partitioner, {0, 4, 8, 12}, explicit_exact), exact);
  EXPECT_EQ(cache.hits(), 3);
}

TEST(PartitionCacheTest, DistinguishesLinkParametersBeyondBandwidth) {
  // Latency / intercept shape TransferTime (and thus the optimal split) even
  // at identical peak bandwidth, so they must be part of the cache key.
  const std::vector<hw::NodeGpus> nodes = {{hw::GpuType::kTitanV, 4},
                                           {hw::GpuType::kQuadroP4000, 4}};
  const hw::Cluster fast_links(nodes, hw::PcieLink(), hw::InfinibandLink());
  const hw::Cluster slow_links(
      nodes, hw::PcieLink(hw::PcieLink::kDefaultPeakGBps, hw::PcieLink::kDefaultScaling, 5e-3),
      hw::InfinibandLink(hw::InfinibandLink::kDefaultRawGbits,
                         hw::InfinibandLink::kDefaultEfficiency, 20e-3));
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  PartitionCache cache;
  partition::PartitionOptions options;
  options.nm = 1;
  cache.Solve(partition::Partitioner(profile, fast_links), {0, 1, 4, 5}, options);
  cache.Solve(partition::Partitioner(profile, slow_links), {0, 1, 4, 5}, options);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 0);
}

TEST(PartitionCacheTest, SpecLatencyKnobChangesTheKey) {
  // The ISSUE's acceptance scenario: two specs identical except for a link
  // latency/intercept knob must never share a cache entry — a warmed
  // --cache-file from one latency point would otherwise serve stale
  // partitions at another.
  const char* kBase = "gpu LatCard tflops=8 mem=32; node 2xLatCard; node 2xLatCard";
  const hw::Cluster fast = hw::ClusterSpec::Parse(kBase).Build();
  const hw::Cluster slow_inter =
      hw::ClusterSpec::Parse(std::string(kBase) + "; inter_intercept_s 0.005").Build();
  const hw::Cluster slow_intra =
      hw::ClusterSpec::Parse(std::string(kBase) + "; intra_latency_s 0.002").Build();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  PartitionCache cache;
  partition::PartitionOptions options;
  options.nm = 1;
  cache.Solve(partition::Partitioner(profile, fast), {0, 1, 2, 3}, options);
  cache.Solve(partition::Partitioner(profile, slow_inter), {0, 1, 2, 3}, options);
  cache.Solve(partition::Partitioner(profile, slow_intra), {0, 1, 2, 3}, options);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.hits(), 0);
  // Identical knobs still hit, of course.
  cache.Solve(partition::Partitioner(profile, slow_inter), {0, 1, 2, 3}, options);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(PartitionCacheTest, TopologyOnlyChangesAlterTheKey) {
  // The ISSUE's acceptance scenario: two specs identical except for rack
  // topology / a per-pair link override must never share a cache entry,
  // while racks that change no link (no cross-rack knob) keep sharing —
  // the solve really is identical there.
  const char* kBase = "gpu TopoCard tflops=8 mem=32; node 1xTopoCard; node 1xTopoCard; "
                      "node 1xTopoCard";
  const hw::Cluster plain = hw::ClusterSpec::Parse(kBase).Build();
  const hw::Cluster degraded =
      hw::ClusterSpec::Parse(std::string(kBase) + "; link node0<->node2 gbits 2").Build();
  const hw::Cluster racked_slow =
      hw::ClusterSpec::Parse(std::string(kBase) +
                             "; rack r0 { node0 node1 }; rack r1 { node2 };"
                             "cross_rack_gbits 5")
          .Build();
  const hw::Cluster racked_noop =
      hw::ClusterSpec::Parse(std::string(kBase) + "; rack r0 { node0 node1 }; rack r1 { node2 }")
          .Build();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  PartitionCache cache;
  partition::PartitionOptions options;
  options.nm = 1;
  cache.Solve(partition::Partitioner(profile, plain), {0, 1, 2}, options);
  cache.Solve(partition::Partitioner(profile, degraded), {0, 1, 2}, options);
  cache.Solve(partition::Partitioner(profile, racked_slow), {0, 1, 2}, options);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.hits(), 0);
  // Racks that leave every link untouched resolve to the plain fabric: hit.
  const partition::Partition hit =
      cache.Solve(partition::Partitioner(profile, racked_noop), {0, 1, 2}, options);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.hits(), 1);
  ExpectSamePartition(partition::Partitioner(profile, racked_noop).SolveScalable({0, 1, 2}, options),
                      hit);
}

TEST(ThreadPoolTest, SubmitRunsEveryTaskBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
    // The destructor drains the queue before joining, so nothing submitted
    // is ever silently dropped.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, SubmitOnSingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  int ran = 0;  // no atomics: a 1-thread pool has no dedicated workers
  pool.Submit([&] { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(PartitionCacheTest, CapacityBoundEvictsLeastRecentlyUsed) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  PartitionCache cache;
  cache.SetCapacity(2);
  EXPECT_EQ(cache.capacity(), 2);

  const auto solve_nm = [&](int nm) {
    partition::PartitionOptions options;
    options.nm = nm;
    cache.Solve(partitioner, {0, 4, 8, 12}, options);
  };
  solve_nm(1);  // miss
  solve_nm(2);  // miss
  solve_nm(1);  // hit — refreshes nm=1's stamp, so nm=2 is now the LRU entry
  solve_nm(3);  // miss; inserting over the bound evicts nm=2
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.evictions(), 1);
  solve_nm(1);  // still cached: a hit
  solve_nm(2);  // evicted: a miss again
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 4);
}

TEST(PartitionCacheTest, ShrinkingCapacityEvictsImmediately) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  PartitionCache cache;
  for (int nm : {1, 2, 3}) {
    partition::PartitionOptions options;
    options.nm = nm;
    cache.Solve(partitioner, {0, 4, 8, 12}, options);
  }
  ASSERT_EQ(cache.size(), 3);
  cache.SetCapacity(1);
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.evictions(), 2);
  cache.SetCapacity(0);  // unbounded again; nothing further is evicted
  partition::PartitionOptions options;
  options.nm = 4;
  cache.Solve(partitioner, {0, 4, 8, 12}, options);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.evictions(), 2);
}

TEST(PartitionCacheTest, LoadedEntriesEvictBeforeMaterializedOnes) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  const std::string path = testing::TempDir() + "hetpipe_pcache_evict_pending.bin";

  PartitionCache warm;
  for (int nm : {1, 2}) {
    partition::PartitionOptions options;
    options.nm = nm;
    warm.Solve(partitioner, {0, 4, 8, 12}, options);
  }
  ASSERT_TRUE(warm.Save(path));

  PartitionCache cache;
  partition::PartitionOptions options;
  options.nm = 3;
  cache.Solve(partitioner, {0, 4, 8, 12}, options);  // materialized entry
  ASSERT_TRUE(cache.Load(path));                     // + two never-requested entries
  ASSERT_EQ(cache.size(), 3);

  // Shrinking to one entry must drop the loaded-but-never-requested entries
  // first: they rank older than anything a request ever touched.
  cache.SetCapacity(1);
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.evictions(), 2);
  bool was_hit = false;
  cache.Solve(partitioner, {0, 4, 8, 12}, options, &was_hit);
  EXPECT_TRUE(was_hit);
  std::remove(path.c_str());
}

TEST(PartitionCacheTest, ConcurrentReadersWritersAndSavesStayExact) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  const std::string path = testing::TempDir() + "hetpipe_pcache_concurrent.bin";

  // The oracle: cold solves of the four keys the threads will hammer.
  partition::Partition expected[4];
  for (int nm = 1; nm <= 4; ++nm) {
    partition::PartitionOptions options;
    options.nm = nm;
    expected[nm - 1] = partitioner.SolveScalable({0, 4, 8, 12}, options);
  }

  PartitionCache cache;
  std::atomic<int> mismatches{0};
  ThreadPool pool(8);
  pool.ParallelFor(200, [&](int64_t i) {
    partition::PartitionOptions options;
    options.nm = 1 + static_cast<int>(i % 4);
    const partition::Partition got = cache.Solve(partitioner, {0, 4, 8, 12}, options);
    const partition::Partition& want = expected[options.nm - 1];
    if (got.bottleneck_time != want.bottleneck_time || got.sum_time != want.sum_time ||
        got.num_stages() != want.num_stages()) {
      mismatches.fetch_add(1);
    }
    // Interleave saves with the solves: Save holds only the shared lock.
    if (i % 17 == 0) {
      cache.Save(path);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache.size(), 4);
  // Concurrent first-misses on one key may each count a miss (both threads
  // solved before either inserted), but every request is accounted exactly
  // once and at least one miss per key happened.
  EXPECT_EQ(cache.hits() + cache.misses(), 200);
  EXPECT_GE(cache.misses(), 4);

  // A snapshot taken mid-run is a valid file.
  PartitionCache reloaded;
  std::string error;
  ASSERT_TRUE(reloaded.Load(path, &error)) << error;
  EXPECT_GE(reloaded.size(), 1);
  std::remove(path.c_str());
}

TEST(PartitionCacheTest, DistinguishesNmAndMemParams) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  PartitionCache cache;

  partition::PartitionOptions a;
  a.nm = 1;
  partition::PartitionOptions b = a;
  b.nm = 2;
  partition::PartitionOptions c = a;
  c.mem_params.stash_weights = false;
  cache.Solve(partitioner, {0, 4, 8, 12}, a);
  cache.Solve(partitioner, {0, 4, 8, 12}, b);
  cache.Solve(partitioner, {0, 4, 8, 12}, c);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.hits(), 0);
}

// ---- PartitionCache disk persistence ----

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(PartitionCacheFileTest, SaveLoadSolveRoundTripIsHitIdentical) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  const std::string path = testing::TempDir() + "hetpipe_pcache_roundtrip.bin";

  PartitionCache warm;
  partition::PartitionOptions options;
  for (int nm : {1, 2, 3}) {
    options.nm = nm;
    warm.Solve(partitioner, {0, 4, 8, 12}, options);
    warm.Solve(partitioner, {0, 1, 12, 13}, options);
  }
  ASSERT_EQ(warm.size(), 6);
  std::string error;
  ASSERT_TRUE(warm.Save(path, &error)) << error;

  // A fresh process-equivalent: every Solve must be a hit and must return
  // exactly what a cold solve returns.
  PartitionCache loaded;
  ASSERT_TRUE(loaded.Load(path, &error)) << error;
  EXPECT_EQ(loaded.size(), 6);
  for (int nm : {1, 2, 3}) {
    options.nm = nm;
    for (const std::vector<int>& vw :
         {std::vector<int>{0, 4, 8, 12}, std::vector<int>{0, 1, 12, 13}}) {
      const partition::Partition cold = partitioner.SolveScalable(vw, options);
      const partition::Partition hit = loaded.Solve(partitioner, vw, options);
      ExpectSamePartition(cold, hit);
    }
  }
  EXPECT_EQ(loaded.hits(), 6);
  EXPECT_EQ(loaded.misses(), 0);

  // Remapping onto different GPU ids of the same shape works from disk too.
  options.nm = 2;
  const partition::Partition remapped = loaded.Solve(partitioner, {1, 5, 9, 13}, options);
  ExpectSamePartition(partitioner.SolveScalable({1, 5, 9, 13}, options), remapped);
  EXPECT_EQ(loaded.misses(), 0);
  std::remove(path.c_str());
}

TEST(PartitionCacheFileTest, RejectsTruncatedCorruptedAndMismatchedFiles) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  const std::string path = testing::TempDir() + "hetpipe_pcache_broken.bin";

  PartitionCache warm;
  partition::PartitionOptions options;
  options.nm = 1;
  warm.Solve(partitioner, {0, 4, 8, 12}, options);
  ASSERT_TRUE(warm.Save(path));
  const std::string good = ReadFileBytes(path);
  ASSERT_GT(good.size(), 64u);

  std::string error;
  PartitionCache cache;

  // Missing file.
  EXPECT_FALSE(cache.Load(path + ".does-not-exist", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;

  // Truncated at several points, including mid-header and mid-records.
  for (const size_t keep : {size_t{3}, size_t{10}, good.size() / 2, good.size() - 1}) {
    WriteFileBytes(path, good.substr(0, keep));
    EXPECT_FALSE(cache.Load(path, &error)) << "kept " << keep << " bytes";
    EXPECT_EQ(cache.size(), 0) << "a rejected file must leave the cache unchanged";
  }

  // A flipped byte in the records region fails the checksum.
  std::string corrupted = good;
  corrupted[corrupted.size() / 2] = static_cast<char>(corrupted[corrupted.size() / 2] ^ 0x5a);
  WriteFileBytes(path, corrupted);
  EXPECT_FALSE(cache.Load(path, &error));
  EXPECT_NE(error.find("corrupted"), std::string::npos) << error;

  // Wrong magic.
  std::string bad_magic = good;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xff);
  WriteFileBytes(path, bad_magic);
  EXPECT_FALSE(cache.Load(path, &error));
  EXPECT_NE(error.find("not a partition cache"), std::string::npos) << error;

  // Future version.
  std::string bad_version = good;
  bad_version[4] = static_cast<char>(bad_version[4] + 1);
  WriteFileBytes(path, bad_version);
  EXPECT_FALSE(cache.Load(path, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  // Trailing garbage after the entries is rejected too.
  WriteFileBytes(path, good + "garbage");
  EXPECT_FALSE(cache.Load(path, &error));

  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.hits(), 0);

  // The pristine bytes still load after all that.
  WriteFileBytes(path, good);
  EXPECT_TRUE(cache.Load(path, &error)) << error;
  EXPECT_EQ(cache.size(), 1);
  std::remove(path.c_str());
}

TEST(PartitionCacheFileTest, SaveIsAtomicWriteThenRename) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  const std::string path = testing::TempDir() + "hetpipe_pcache_atomic.bin";

  PartitionCache warm;
  partition::PartitionOptions options;
  options.nm = 1;
  warm.Solve(partitioner, {0, 4, 8, 12}, options);
  ASSERT_TRUE(warm.Save(path));
  // The temp file was renamed over the target, not left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  const std::string first = ReadFileBytes(path);
  ASSERT_FALSE(first.empty());

  // Saving over an existing file replaces it completely (no append, no
  // partial mix of old and new bytes).
  options.nm = 2;
  warm.Solve(partitioner, {0, 4, 8, 12}, options);
  ASSERT_TRUE(warm.Save(path));
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  PartitionCache reloaded;
  ASSERT_TRUE(reloaded.Load(path));
  EXPECT_EQ(reloaded.size(), 2);

  // An unwritable destination fails without touching the target: the temp
  // file cannot even be created, so the existing bytes survive.
  const std::string untouched = ReadFileBytes(path);
  std::string error;
  EXPECT_FALSE(warm.Save("/nonexistent-dir-hetpipe/cache.bin", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
  EXPECT_EQ(ReadFileBytes(path), untouched);
  std::remove(path.c_str());
}

TEST(PartitionCacheFileTest, RejectsVersion2Files) {
  // PR 5 bumped the cache format to v3 (per-node-pair link probes in the
  // key); a v2-era file must be rejected by version, never half-read. This
  // pins the bump itself, not just "some other version fails".
  const std::string path = testing::TempDir() + "hetpipe_pcache_v2.bin";
  std::string v2;
  const uint32_t magic = 0x31435048;  // "HPC1"
  const uint32_t version = 2;
  const uint64_t count = 0;
  const uint64_t empty_checksum = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  v2.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  v2.append(reinterpret_cast<const char*>(&version), sizeof(version));
  v2.append(reinterpret_cast<const char*>(&count), sizeof(count));
  v2.append(reinterpret_cast<const char*>(&empty_checksum), sizeof(empty_checksum));
  WriteFileBytes(path, v2);

  PartitionCache cache;
  std::string error;
  EXPECT_FALSE(cache.Load(path, &error));
  EXPECT_NE(error.find("version 2"), std::string::npos) << error;
  EXPECT_NE(error.find("expected 3"), std::string::npos) << error;
  EXPECT_EQ(cache.size(), 0);
  std::remove(path.c_str());
}

TEST(PartitionCacheFileTest, LoadMergesWithoutOverwritingExistingEntries) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  const std::string path = testing::TempDir() + "hetpipe_pcache_merge.bin";

  PartitionCache first;
  partition::PartitionOptions options;
  options.nm = 1;
  first.Solve(partitioner, {0, 4, 8, 12}, options);
  ASSERT_TRUE(first.Save(path));

  PartitionCache second;
  options.nm = 2;
  second.Solve(partitioner, {0, 4, 8, 12}, options);
  ASSERT_TRUE(second.Load(path));
  EXPECT_EQ(second.size(), 2);  // nm=2 solved here + nm=1 from disk

  // Saving the merged cache keeps both entries (materialized and pending).
  ASSERT_TRUE(second.Save(path));
  PartitionCache third;
  ASSERT_TRUE(third.Load(path));
  EXPECT_EQ(third.size(), 2);
  options.nm = 1;
  ExpectSamePartition(partitioner.SolveScalable({0, 4, 8, 12}, options),
                      third.Solve(partitioner, {0, 4, 8, 12}, options));
  options.nm = 2;
  ExpectSamePartition(partitioner.SolveScalable({0, 4, 8, 12}, options),
                      third.Solve(partitioner, {0, 4, 8, 12}, options));
  EXPECT_EQ(third.hits(), 2);
  EXPECT_EQ(third.misses(), 0);
  std::remove(path.c_str());
}

// ---- BenchArgs: the --cache-file guard and strict flag parsing ----

BenchArgs ParseArgs(std::vector<std::string> argv_strings) {
  argv_strings.insert(argv_strings.begin(), "bench");
  std::vector<char*> argv;
  argv.reserve(argv_strings.size());
  for (std::string& arg : argv_strings) {
    argv.push_back(arg.data());
  }
  return BenchArgs::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgsTest, DoesNotClobberUnloadableCacheFileWithAnEmptyCache) {
  const std::string path = testing::TempDir() + "hetpipe_cli_corrupt.cache";
  const std::string garbage = "not a cache file at all";
  WriteFileBytes(path, garbage);

  {
    // Load fails (present but unusable), no entries are added: the
    // destructor must leave the file untouched instead of truncating it to
    // an empty cache.
    BenchArgs args = ParseArgs({"--cache-file=" + path});
    ASSERT_NE(args.cache(), nullptr);
    EXPECT_EQ(args.cache()->size(), 0);
  }
  EXPECT_EQ(ReadFileBytes(path), garbage);

  {
    // Once the run produced entries, saving over the unusable file is the
    // right trade: fresh valuable state replaces bytes nothing can load.
    BenchArgs args = ParseArgs({"--cache-file=" + path});
    const hw::Cluster cluster = hw::Cluster::Paper();
    const model::ModelGraph graph = model::BuildResNet152();
    const model::ModelProfile profile(graph, 32);
    const partition::Partitioner partitioner(profile, cluster);
    partition::PartitionOptions options;
    options.nm = 1;
    args.cache()->Solve(partitioner, {0, 4, 8, 12}, options);
  }
  PartitionCache reloaded;
  std::string error;
  EXPECT_TRUE(reloaded.Load(path, &error)) << error;
  EXPECT_EQ(reloaded.size(), 1);
  std::remove(path.c_str());
}

TEST(BenchArgsTest, ParseIntFlagIsStrict) {
  int value = 0;
  EXPECT_TRUE(ParseIntFlag("12", &value));
  EXPECT_EQ(value, 12);
  EXPECT_TRUE(ParseIntFlag("-3", &value));
  EXPECT_EQ(value, -3);
  // std::atoi would silently turn all of these into 0 or truncate "3x".
  EXPECT_FALSE(ParseIntFlag("", &value));
  EXPECT_FALSE(ParseIntFlag("abc", &value));
  EXPECT_FALSE(ParseIntFlag("3x", &value));
  EXPECT_FALSE(ParseIntFlag(" 4", &value));
  EXPECT_FALSE(ParseIntFlag("99999999999999999999", &value));
}

// ---- Partitioner: pruning and parallel order search never change results ----

TEST(PartitionerSearchTest, PruningAndParallelSearchAreExact) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  ThreadPool pool(8);
  for (const bool vgg : {false, true}) {
    const model::ModelGraph graph = vgg ? model::BuildVgg19() : model::BuildResNet152();
    const model::ModelProfile profile(graph, 32);
    const partition::Partitioner partitioner(profile, cluster);
    for (const char* codes : {"VRGQ", "VVQQ", "RRGG"}) {
      for (int nm : {1, 3, 5}) {
        const std::vector<int> gpus = core::PickGpusByCode(cluster, codes);
        partition::PartitionOptions unpruned;
        unpruned.nm = nm;
        unpruned.prune = false;
        partition::PartitionOptions pruned = unpruned;
        pruned.prune = true;
        partition::PartitionOptions parallel = pruned;
        parallel.pool = &pool;

        const partition::Partition base = partitioner.SolveScalable(gpus, unpruned);
        ExpectSamePartition(base, partitioner.SolveScalable(gpus, pruned));
        ExpectSamePartition(base, partitioner.SolveScalable(gpus, parallel));
      }
    }
  }
}

// ---- ResultSink ----

TEST(ResultSinkTest, JsonlEscapesAndTypes) {
  std::ostringstream out;
  JsonlSink sink(out);
  ResultRow row;
  row.Set("name", "a \"quoted\" label").Set("n", 3).Set("x", 1.5).Set("ok", true);
  sink.Write(row);
  EXPECT_EQ(out.str(), "{\"name\":\"a \\\"quoted\\\" label\",\"n\":3,\"x\":1.5,\"ok\":true}\n");
}

TEST(ResultSinkTest, CsvUnionsColumnsAcrossRows) {
  std::ostringstream out;
  {
    CsvSink sink(out);
    ResultRow a;
    a.Set("name", "first").Set("x", 1.0);
    ResultRow b;
    b.Set("name", "with,comma").Set("y", 2);
    sink.Write(a);
    sink.Write(b);
    sink.Flush();
  }
  EXPECT_EQ(out.str(),
            "name,x,y\n"
            "first,1,\n"
            "\"with,comma\",,2\n");
}

TEST(ResultSinkTest, CsvKeepsWritingAcrossFlushes) {
  // Benches flush after every sweep batch; rows written after the first
  // Flush must still reach the output (header only once).
  std::ostringstream out;
  CsvSink sink(out);
  ResultRow a;
  a.Set("name", "r1").Set("x", 1);
  sink.Write(a);
  sink.Flush();
  ResultRow b;
  b.Set("name", "r2").Set("x", 2);
  sink.Write(b);
  sink.Flush();
  sink.Flush();  // idempotent with nothing buffered
  EXPECT_EQ(out.str(),
            "name,x\n"
            "r1,1\n"
            "r2,2\n");
}

TEST(ResultSinkTest, JsonlEscapesControlCharacters) {
  // \r and other sub-0x20 bytes passed through raw make the line invalid
  // JSON; every parser rejects it. Short escapes where JSON has them,
  // \u00XX for the rest.
  std::ostringstream out;
  JsonlSink sink(out);
  ResultRow row;
  // Adjacent literals keep the hex escapes from greedily eating the next
  // character ("\x01c" would parse as \x1c).
  row.Set("s", std::string("a\rb\x01" "c\x1f" "d\be\ff"));
  sink.Write(row);
  EXPECT_EQ(out.str(), "{\"s\":\"a\\rb\\u0001c\\u001Fd\\be\\ff\"}\n");
}

TEST(ResultSinkTest, JsonlRendersNonFiniteDoublesAsNull) {
  // JSON has no literal for NaN or the infinities; "inf" is unparseable.
  const double inf = std::numeric_limits<double>::infinity();
  std::ostringstream out;
  JsonlSink sink(out);
  ResultRow row;
  row.Set("nan", std::nan("")).Set("pinf", inf).Set("ninf", -inf).Set("x", 2.0);
  sink.Write(row);
  EXPECT_EQ(out.str(), "{\"nan\":null,\"pinf\":null,\"ninf\":null,\"x\":2}\n");
}

TEST(ResultSinkTest, CsvRendersNonFiniteDoublesAsEmpty) {
  // CSV has no null literal; an empty cell is the conventional "missing"
  // spelling that numeric column parsers accept.
  const double inf = std::numeric_limits<double>::infinity();
  std::ostringstream out;
  {
    CsvSink sink(out);
    ResultRow row;
    row.Set("nan", std::nan("")).Set("pinf", inf).Set("ninf", -inf).Set("x", 2.0);
    sink.Write(row);
  }
  EXPECT_EQ(out.str(),
            "nan,pinf,ninf,x\n"
            ",,,2\n");
}

TEST(ResultSinkTest, CsvReportsColumnsFirstSeenAfterTheHeader) {
  // The header freezes at the first flush; a key appearing only in later
  // rows cannot get a column anymore, but it must be reported (stderr +
  // dropped_columns()), never lost silently.
  std::ostringstream out;
  CsvSink sink(out);
  ResultRow a;
  a.Set("name", "r1").Set("x", 1);
  sink.Write(a);
  sink.Flush();
  EXPECT_TRUE(sink.dropped_columns().empty());

  ResultRow b;
  b.Set("name", "r2").Set("x", 2).Set("late", 7);
  sink.Write(b);
  sink.Write(b);  // the same late key must be reported once, not per row
  sink.Flush();
  ASSERT_EQ(sink.dropped_columns().size(), 1u);
  EXPECT_EQ(sink.dropped_columns()[0], "late");

  // Known columns still render; the output stays rectangular.
  EXPECT_EQ(out.str(),
            "name,x\n"
            "r1,1\n"
            "r2,2\n"
            "r2,2\n");

  // Keys buffered before the first flush all make the header — evolution
  // inside one buffered batch loses nothing.
  std::ostringstream out2;
  CsvSink sink2(out2);
  ResultRow c;
  c.Set("name", "r1");
  ResultRow d;
  d.Set("name", "r2").Set("extra", true);
  sink2.Write(c);
  sink2.Write(d);
  sink2.Flush();
  EXPECT_TRUE(sink2.dropped_columns().empty());
  EXPECT_EQ(out2.str(),
            "name,extra\n"
            "r1,\n"
            "r2,true\n");
}

TEST(ResultSinkTest, RowGetRendersValues) {
  ResultRow row;
  row.Set("a", 2.5).Set("b", "text").Set("c", false);
  EXPECT_EQ(row.Get("a"), "2.5");
  EXPECT_EQ(row.Get("b"), "text");
  EXPECT_EQ(row.Get("c"), "false");
  EXPECT_EQ(row.Get("missing"), "");
}

TEST(ResultSinkTest, FindDistinguishesAbsentFromEmpty) {
  ResultRow row;
  row.Set("empty", "").Set("x", 1);
  EXPECT_EQ(row.Find("empty"), "");          // present but empty
  EXPECT_EQ(row.Find("missing"), std::nullopt);  // absent
  EXPECT_EQ(row.Get("empty"), row.Get("missing"));  // Get collapses the two

  ASSERT_NE(row.FindValue("x"), nullptr);
  EXPECT_EQ(std::get<int64_t>(*row.FindValue("x")), 1);
  EXPECT_EQ(row.FindValue("missing"), nullptr);
}

TEST(SchemaTest, ObserveAppendsColumnsInFirstSeenOrder) {
  Schema schema;
  ResultRow a;
  a.Set("name", "r1").Set("x", 1);
  ResultRow b;
  b.Set("x", 2).Set("name", "r2").Set("extra", true);
  schema.Observe(a);
  schema.Observe(b);
  ASSERT_EQ(schema.size(), 3u);
  EXPECT_EQ(schema.columns()[0].name, "name");
  EXPECT_EQ(schema.columns()[0].type, ValueType::kString);
  EXPECT_EQ(schema.columns()[1].name, "x");
  EXPECT_EQ(schema.columns()[1].type, ValueType::kInt64);
  EXPECT_EQ(schema.columns()[2].name, "extra");
  EXPECT_EQ(schema.columns()[2].type, ValueType::kBool);
  EXPECT_EQ(schema.IndexOf("x"), 1);
  EXPECT_EQ(schema.IndexOf("nope"), -1);
  EXPECT_EQ(schema.conflicts(), 0);
}

TEST(SchemaTest, Int64AndDoublePromoteWithoutConflict) {
  Schema schema;
  ResultRow a;
  a.Set("v", 1);
  ResultRow b;
  b.Set("v", 2.5);
  schema.Observe(a);
  EXPECT_EQ(schema.columns()[0].type, ValueType::kInt64);
  schema.Observe(b);
  EXPECT_EQ(schema.columns()[0].type, ValueType::kDouble);
  schema.Observe(a);  // int64 on a kDouble column is absorbed, not a conflict
  EXPECT_EQ(schema.columns()[0].type, ValueType::kDouble);
  EXPECT_EQ(schema.conflicts(), 0);
}

TEST(SchemaTest, OtherTypeMixesCountAsConflicts) {
  Schema schema;
  ResultRow a;
  a.Set("v", "text");
  ResultRow b;
  b.Set("v", 3);
  schema.Observe(a);
  schema.Observe(b);
  EXPECT_EQ(schema.columns()[0].type, ValueType::kString);  // established type wins
  EXPECT_EQ(schema.conflicts(), 1);
}

TEST(SchemaTest, FreezeRecordsLateColumns) {
  Schema schema;
  ResultRow a;
  a.Set("name", "r1");
  schema.Observe(a);
  schema.Freeze();
  EXPECT_TRUE(schema.frozen());
  EXPECT_EQ(schema.frozen_size(), 1u);
  ResultRow b;
  b.Set("name", "r2").Set("late", 1);
  schema.Observe(b);
  EXPECT_EQ(schema.size(), 2u);       // still recorded...
  EXPECT_EQ(schema.frozen_size(), 1u);  // ...but past the frozen prefix
  ASSERT_EQ(schema.late_columns().size(), 1u);
  EXPECT_EQ(schema.late_columns()[0], "late");
}

TEST(SchemaTest, ProjectAlignsRowValuesToColumns) {
  Schema schema;
  ResultRow a;
  a.Set("name", "r1").Set("x", 1);
  schema.Observe(a);
  ResultRow b;
  b.Set("x", 7);  // no "name"
  const std::vector<const Value*> values = schema.Project(b);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], nullptr);
  ASSERT_NE(values[1], nullptr);
  EXPECT_EQ(std::get<int64_t>(*values[1]), 7);
}

TEST(ResultSinkTest, SinkAccumulatesSchemaAcrossWrites) {
  std::ostringstream out;
  JsonlSink sink(out);
  ResultRow a;
  a.Set("name", "r1").Set("x", 1);
  ResultRow b;
  b.Set("name", "r2").Set("y", 2.5);
  sink.Write(a);
  sink.Write(b);
  ASSERT_EQ(sink.schema().size(), 3u);
  EXPECT_EQ(sink.schema().columns()[0].name, "name");
  EXPECT_EQ(sink.schema().columns()[1].name, "x");
  EXPECT_EQ(sink.schema().columns()[2].name, "y");
}

// ---- SweepRunner determinism: the ISSUE's acceptance test ----

std::vector<core::Experiment> BuildDeterminismSweep() {
  // 2 models x 7 VW shapes x 5 Nm = 70 >= 64 configurations.
  const char* kCodes[] = {"VVVV", "RRRR", "GGGG", "QQQQ", "VRGQ", "VVQQ", "RRGG"};
  std::vector<core::Experiment> experiments;
  for (core::ModelKind model : {core::ModelKind::kResNet152, core::ModelKind::kVgg19}) {
    for (const char* codes : kCodes) {
      for (int nm = 1; nm <= 5; ++nm) {
        core::Experiment e;
        e.kind = core::ExperimentKind::kSingleVirtualWorker;
        e.model = model;
        e.vw_codes = codes;
        e.config.nm = nm;
        e.config.jitter_cv = 0.05;  // exercise the seeded RNG path too
        e.config.waves = 12;
        e.config.warmup_waves = 2;
        experiments.push_back(std::move(e));
      }
    }
  }
  return experiments;
}

void ExpectSameResults(const std::vector<core::ExperimentResult>& a,
                       const std::vector<core::ExperimentResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << i;
    EXPECT_EQ(a[i].feasible, b[i].feasible) << i;
    EXPECT_EQ(a[i].throughput_img_s, b[i].throughput_img_s) << i;  // bit-identical
    ExpectSamePartition(a[i].partition, b[i].partition);
  }
}

TEST(SweepRunnerTest, EightThreadSweepMatchesSerialElementwise) {
  const std::vector<core::Experiment> experiments = BuildDeterminismSweep();
  ASSERT_GE(experiments.size(), 64u);

  // Ground truth: direct serial execution with no cache and no pool.
  std::vector<core::ExperimentResult> direct;
  direct.reserve(experiments.size());
  for (const core::Experiment& e : experiments) {
    direct.push_back(core::RunExperiment(e));
  }

  SweepOptions serial_options;
  serial_options.threads = 1;
  SweepRunner serial(serial_options);
  ExpectSameResults(direct, serial.Run(experiments));

  SweepOptions parallel_options;
  parallel_options.threads = 8;
  SweepRunner parallel(parallel_options);
  ExpectSameResults(direct, parallel.Run(experiments));
  EXPECT_GT(parallel.cache().hits() + parallel.cache().misses(), 0);

  // Re-running on the warm cache must change nothing either.
  ExpectSameResults(direct, parallel.Run(experiments));
}

TEST(SweepRunnerTest, RunWritesRowsInExperimentOrder) {
  std::vector<core::Experiment> experiments;
  for (int nm : {1, 2, 3}) {
    core::Experiment e;
    e.name = "nm" + std::to_string(nm);
    e.kind = core::ExperimentKind::kSingleVirtualWorker;
    e.model = core::ModelKind::kVgg19;
    e.vw_codes = "VRGQ";
    e.config.nm = nm;
    e.config.waves = 8;
    e.config.warmup_waves = 2;
    experiments.push_back(std::move(e));
  }

  std::ostringstream out;
  JsonlSink sink(out);
  SweepOptions options;
  options.threads = 8;
  options.sink = &sink;
  SweepRunner sweep(options);
  sweep.Run(experiments);

  std::istringstream lines(out.str());
  std::string line;
  for (int nm : {1, 2, 3}) {
    ASSERT_TRUE(static_cast<bool>(std::getline(lines, line)));
    EXPECT_NE(line.find("\"name\":\"nm" + std::to_string(nm) + "\""), std::string::npos)
        << line;
  }
}

TEST(SweepRunnerTest, NestedSweepsOnASharedPoolMatchSerial) {
  // Outer SweepRunner::Map tasks each construct an inner SweepRunner that
  // shares the outer pool (SweepOptions::pool) and cache. The nested
  // ParallelFor degrades to inline execution on the worker, so this neither
  // deadlocks nor spins up one thread set per inner runner — and every row
  // is identical to the plain serial run.
  const std::vector<core::Experiment> experiments = BuildDeterminismSweep();
  std::vector<core::ExperimentResult> direct;
  direct.reserve(experiments.size());
  for (const core::Experiment& e : experiments) {
    direct.push_back(core::RunExperiment(e));
  }

  SweepOptions outer_options;
  outer_options.threads = 8;
  SweepRunner outer(outer_options);
  constexpr int64_t kGroups = 5;
  const auto nested = outer.Map<std::vector<core::ExperimentResult>>(
      kGroups, [&](int64_t group) {
        std::vector<core::Experiment> slice;
        for (size_t i = static_cast<size_t>(group); i < experiments.size();
             i += static_cast<size_t>(kGroups)) {
          slice.push_back(experiments[i]);
        }
        SweepOptions inner_options;
        inner_options.pool = &outer.pool();
        inner_options.cache = &outer.cache();
        SweepRunner inner(inner_options);
        // The inner runner really shares the outer pool, not a new one.
        EXPECT_EQ(&inner.pool(), &outer.pool());
        return inner.Run(slice);
      });

  std::vector<core::ExperimentResult> flattened(experiments.size());
  for (int64_t group = 0; group < kGroups; ++group) {
    const auto& slice = nested[static_cast<size_t>(group)];
    for (size_t s = 0; s < slice.size(); ++s) {
      flattened[static_cast<size_t>(group) + s * static_cast<size_t>(kGroups)] = slice[s];
    }
  }
  ExpectSameResults(direct, flattened);
}

TEST(SweepRunnerTest, MapIsDeterministicAndOrdered) {
  SweepOptions options;
  options.threads = 8;
  SweepRunner sweep(options);
  const std::vector<int64_t> squares =
      sweep.Map<int64_t>(100, [](int64_t i) { return i * i; });
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(squares[static_cast<size_t>(i)], i * i);
  }
}

TEST(SweepRunnerTest, FullClusterExperimentsMatchDirectHetPipeRun) {
  // The cached, pooled full-cluster path must agree with a direct
  // HetPipe::Run using no cache at all.
  core::Experiment e;
  e.kind = core::ExperimentKind::kFullCluster;
  e.model = core::ModelKind::kVgg19;
  e.config = core::EdLocalConfig(/*d=*/4, /*jitter_cv=*/0.1);
  e.config.waves = 12;
  e.config.warmup_waves = 2;

  SweepOptions options;
  options.threads = 8;
  SweepRunner sweep(options);
  const auto results = sweep.Run({e, e, e});

  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildVgg19();
  core::HetPipeConfig config = e.config;
  config.partition_cache = nullptr;
  config.pool = nullptr;
  const core::HetPipeReport direct = core::HetPipe(cluster, graph, config).Run();

  for (const auto& r : results) {
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.throughput_img_s, direct.throughput_img_s);
    EXPECT_EQ(r.report.nm, direct.nm);
    EXPECT_EQ(r.report.avg_clock_distance, direct.avg_clock_distance);
  }
}

TEST(SweepRunnerTest, CacheDoesNotChangeTheSolverPastTheExactOrderLimit) {
  // Eight single-GPU nodes: a virtual worker over all of them has eight
  // distinct (type, node) classes, so 8! = 40320 orders, above the default
  // exact_order_limit. The cached and the uncached experiment paths must
  // still run the same solver and produce the same rows.
  hw::ClusterSpec spec;
  spec.Named("eight-nodes");
  for (const char* type : {"V", "R", "G", "Q", "V", "R", "G", "Q"}) {
    spec.AddNode(type, 1);
  }
  const hw::Cluster cluster = spec.Build();
  ASSERT_GT(partition::EstimateOrderCount(cluster, {0, 1, 2, 3, 4, 5, 6, 7}, 1u << 20),
            static_cast<uint64_t>(partition::PartitionOptions{}.exact_order_limit));

  for (core::ExperimentKind kind :
       {core::ExperimentKind::kPartitionOnly, core::ExperimentKind::kSingleVirtualWorker}) {
    core::Experiment e;
    e.kind = kind;
    e.model = core::ModelKind::kVgg19;
    e.UseCluster(cluster);
    e.vw_codes = "VRGQVRGQ";
    e.config.nm = 2;
    e.config.waves = 8;
    e.config.warmup_waves = 2;

    e.config.partition_cache = nullptr;
    const core::ExperimentResult uncached = core::RunExperiment(e);
    PartitionCache cache;
    e.config.partition_cache = &cache;
    const core::ExperimentResult cached = core::RunExperiment(e);
    EXPECT_EQ(cache.misses(), 1);

    ASSERT_TRUE(uncached.feasible) << core::KindName(kind);
    ExpectSamePartition(uncached.partition, cached.partition);
    std::ostringstream uncached_row;
    std::ostringstream cached_row;
    JsonlSink uncached_sink(uncached_row);
    JsonlSink cached_sink(cached_row);
    uncached_sink.Write(RowFor(e, uncached));
    cached_sink.Write(RowFor(e, cached));
    uncached_sink.Flush();
    cached_sink.Flush();
    EXPECT_EQ(uncached_row.str(), cached_row.str()) << core::KindName(kind);
  }
}

}  // namespace
}  // namespace hetpipe::runner
