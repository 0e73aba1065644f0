// Targeted concurrency stress tests. These run in every configuration, but
// they are written for the TSan lane (-DHETPIPE_SANITIZE=thread): each test
// drives one of the concurrent subsystems through the interleavings that a
// race would need — cache readers against Save/eviction, server accept
// against shutdown, pool tasks that throw — and asserts the results stay
// exact. Under TSan any data race or lock misuse in those paths fails the
// run even when the assertions would pass.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hw/cluster.h"
#include "hw/cluster_spec.h"
#include "model/profiler.h"
#include "model/resnet.h"
#include "oracles/golden.h"
#include "partition/partitioner.h"
#include "runner/partition_cache.h"
#include "runner/thread_pool.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace hetpipe::runner {
namespace {

// ---- ThreadPool exception safety ----

TEST(ThreadPoolExceptionTest, ParallelForRethrowsAndRunsEveryIndex) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [&](int64_t i) {
                         ran.fetch_add(1);
                         if (i % 7 == 0) {
                           throw std::runtime_error("task failure");
                         }
                       }),
      std::runtime_error);
  // A throwing task must not strand its siblings: every index still runs and
  // the loop still terminates (a deadlock here would hang the test).
  EXPECT_EQ(ran.load(), 100);

  // The pool must remain fully usable after a throwing ParallelFor.
  std::atomic<int> after{0};
  pool.ParallelFor(50, [&](int64_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 50);
}

TEST(ThreadPoolExceptionTest, DestructorJoinsAfterThrowingTasks) {
  // Regression for the Join/destructor audit: destroying a pool right after
  // a throwing ParallelFor must join every worker (no task left marooned in
  // the queue, no lost shutdown signal). The test passes by terminating.
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(4);
    try {
      pool.ParallelFor(32, [&](int64_t i) {
        if (i % 3 == 0) throw std::runtime_error("boom");
      });
      FAIL() << "ParallelFor should have rethrown";
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(ThreadPoolExceptionTest, NestedParallelForPropagatesInlineExceptions) {
  // From inside a pool worker, ParallelFor runs inline; an exception thrown
  // by the inner body must surface through the outer ParallelFor without
  // wedging either level.
  ThreadPool pool(4);
  std::atomic<int> inner_runs{0};
  EXPECT_THROW(pool.ParallelFor(8,
                                [&](int64_t i) {
                                  pool.ParallelFor(4, [&](int64_t j) {
                                    inner_runs.fetch_add(1);
                                    if (i == 3 && j == 2) {
                                      throw std::runtime_error("inner failure");
                                    }
                                  });
                                }),
               std::runtime_error);
  EXPECT_GT(inner_runs.load(), 0);
  std::atomic<int> after{0};
  pool.ParallelFor(16, [&](int64_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 16);
}

TEST(ThreadPoolStressTest, NestedSweepsShareOnePoolExactly) {
  // The nested-sweep pattern (an outer sweep whose tasks run inner sweeps on
  // the same pool) must neither deadlock nor misplace results. Index math
  // makes every (outer, inner) cell distinct so lost or doubled work shows.
  ThreadPool pool(4);
  constexpr int kOuter = 12;
  constexpr int kInner = 16;
  std::vector<int64_t> sums(kOuter, 0);
  pool.ParallelFor(kOuter, [&](int64_t o) {
    std::vector<int64_t> cells(kInner, 0);
    pool.ParallelFor(kInner, [&](int64_t i) { cells[static_cast<size_t>(i)] = o * 100 + i; });
    int64_t sum = 0;
    for (int64_t cell : cells) sum += cell;
    sums[static_cast<size_t>(o)] = sum;
  });
  for (int o = 0; o < kOuter; ++o) {
    int64_t want = 0;
    for (int i = 0; i < kInner; ++i) want += o * 100 + i;
    EXPECT_EQ(sums[static_cast<size_t>(o)], want) << "outer index " << o;
  }
}

// ---- PartitionCache under contention ----

TEST(PartitionCacheStressTest, HammerWithConcurrentSaveAndEviction) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  const std::string path = testing::TempDir() + "hetpipe_concurrency_hammer.bin";

  constexpr int kKeys = 6;
  partition::Partition expected[kKeys];
  for (int nm = 1; nm <= kKeys; ++nm) {
    partition::PartitionOptions options;
    options.nm = nm;
    expected[nm - 1] = partitioner.SolveScalable({0, 4, 8, 12}, options);
  }

  PartitionCache cache;
  cache.SetCapacity(3);  // smaller than the live key set: eviction is constant
  std::atomic<int> mismatches{0};
  std::atomic<int> failed_saves{0};
  ThreadPool pool(8);
  pool.ParallelFor(240, [&](int64_t i) {
    partition::PartitionOptions options;
    options.nm = 1 + static_cast<int>(i % kKeys);
    const partition::Partition got = cache.Solve(partitioner, {0, 4, 8, 12}, options);
    if (!oracles::SamePartition(got, expected[options.nm - 1])) {
      mismatches.fetch_add(1);
    }
    // Saves overlap solves and evictions; SetCapacity oscillates the bound
    // while readers hold the shared lock.
    if (i % 31 == 0 && !cache.Save(path)) failed_saves.fetch_add(1);
    if (i % 53 == 0) cache.SetCapacity(i % 2 == 0 ? 2 : 4);
  });
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failed_saves.load(), 0);
  EXPECT_LE(cache.size(), 4);
  EXPECT_GT(cache.evictions(), 0);

  // A snapshot taken mid-churn is a valid, loadable file.
  PartitionCache reloaded;
  std::string error;
  ASSERT_TRUE(reloaded.Load(path, &error)) << error;
  std::remove(path.c_str());
}

TEST(PartitionCacheStressTest, ConcurrentSavesToOnePathAllSucceed) {
  // Saves to one path share the store's temp file, so they must take turns:
  // unserialized, one save renames another's half-written file away.
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  const std::string path = testing::TempDir() + "hetpipe_concurrency_saves.bin";

  PartitionCache cache;
  for (int nm = 1; nm <= 8; ++nm) {
    partition::PartitionOptions options;
    options.nm = nm;
    cache.Solve(partitioner, {0, 4, 8, 12}, options);
  }
  std::atomic<int> failed_saves{0};
  std::vector<std::thread> savers;
  for (int t = 0; t < 8; ++t) {
    savers.emplace_back([&] {
      for (int round = 0; round < 25; ++round) {
        std::string error;
        if (!cache.Save(path, &error)) {
          failed_saves.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& saver : savers) {
    saver.join();
  }
  EXPECT_EQ(failed_saves.load(), 0);
  PartitionCache reloaded;
  std::string error;
  ASSERT_TRUE(reloaded.Load(path, &error)) << error;
  EXPECT_EQ(reloaded.size(), 8);
  std::remove(path.c_str());
}

TEST(PartitionCacheStressTest, SetCapacityShrinkBelowLiveWhileReadersActive) {
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);

  constexpr int kKeys = 8;
  partition::Partition expected[kKeys];
  for (int nm = 1; nm <= kKeys; ++nm) {
    partition::PartitionOptions options;
    options.nm = nm;
    expected[nm - 1] = partitioner.SolveScalable({0, 4, 8, 12}, options);
  }

  PartitionCache cache;
  for (int nm = 1; nm <= kKeys; ++nm) {
    partition::PartitionOptions options;
    options.nm = nm;
    cache.Solve(partitioner, {0, 4, 8, 12}, options);
  }
  ASSERT_EQ(cache.size(), kKeys);

  // Readers hammer every key while the main thread shrinks the bound far
  // below the live-entry count. Evicted keys re-solve (and may evict
  // something else); every answer must stay exact throughout.
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      int nm = 1 + t;
      while (!done.load(std::memory_order_acquire)) {
        partition::PartitionOptions options;
        options.nm = nm;
        const partition::Partition got = cache.Solve(partitioner, {0, 4, 8, 12}, options);
        if (!oracles::SamePartition(got, expected[nm - 1])) mismatches.fetch_add(1);
        nm = 1 + (nm % kKeys);
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    cache.SetCapacity(2);
    cache.SetCapacity(kKeys + 1);
  }
  cache.SetCapacity(2);
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(cache.size(), 2);
  EXPECT_GT(cache.evictions(), 0);
}

TEST(PartitionCacheTest, SetCapacityEvictsInLruOrder) {
  // Serial companion to the stress test above: with no concurrency the
  // surviving entries are exactly the most recently used ones.
  const hw::Cluster cluster = hw::Cluster::Paper();
  const model::ModelGraph graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);

  PartitionCache cache;
  for (int nm = 1; nm <= 5; ++nm) {
    partition::PartitionOptions options;
    options.nm = nm;
    cache.Solve(partitioner, {0, 4, 8, 12}, options);
  }
  // Refresh nm=1: LRU order is now 2, 3, 4 (oldest first), then 5, 1.
  {
    partition::PartitionOptions options;
    options.nm = 1;
    cache.Solve(partitioner, {0, 4, 8, 12}, options);
  }
  cache.SetCapacity(2);
  EXPECT_EQ(cache.size(), 2);

  // Survivors must be the two most recently used: nm=5 and nm=1.
  const int64_t hits_before = cache.hits();
  for (int nm : {1, 5}) {
    partition::PartitionOptions options;
    options.nm = nm;
    bool was_hit = false;
    cache.Solve(partitioner, {0, 4, 8, 12}, options, &was_hit);
    EXPECT_TRUE(was_hit) << "nm=" << nm << " should have survived the shrink";
  }
  EXPECT_EQ(cache.hits(), hits_before + 2);
  // nm=2 (the least recently used) must be gone. Capacity is raised first so
  // the probe doesn't evict a survivor we just asserted on.
  cache.SetCapacity(0);
  {
    partition::PartitionOptions options;
    options.nm = 2;
    bool was_hit = true;
    cache.Solve(partitioner, {0, 4, 8, 12}, options, &was_hit);
    EXPECT_FALSE(was_hit) << "nm=2 should have been evicted";
  }
}

// ---- Parallel scalable search under contention ----

TEST(SearchParallelStressTest, ConcurrentPooledSolvesStayByteIdentical) {
  // Several request threads share one Partitioner and one ThreadPool — the
  // serve daemon's exact shape — and each runs pooled beam/hierarchical
  // solves. The searches batch candidates through ParallelFor with a shared
  // mutex-guarded incumbent bound; under TSan this flushes out any lock
  // misuse there, and the assertions pin that contention never changes a
  // single byte of the results (index-ordered reductions, strict pruning).
  hw::ClusterSpec spec;
  spec.Named("stress-racked");
  spec.AddNode("V", 1).AddNode("R", 1).AddNode("G", 1);
  spec.AddNode("Q", 1).AddNode("V", 1).AddNode("R", 1);
  spec.AddRack("left", {0, 1, 2}).AddRack("right", {3, 4, 5});
  spec.CrossRackGbits(10.0);
  const hw::Cluster cluster = spec.Build();
  const auto graph = model::BuildResNet152();
  const model::ModelProfile profile(graph, 32);
  const partition::Partitioner partitioner(profile, cluster);
  const std::vector<int> ids = {0, 1, 2, 3, 4, 5};

  ThreadPool pool(4);
  std::map<int, partition::Partition> expected;  // strategy index -> serial
  const partition::SearchStrategy strategies[] = {partition::SearchStrategy::kBeam,
                                                  partition::SearchStrategy::kHierarchical};
  for (int s = 0; s < 2; ++s) {
    partition::PartitionOptions options;
    options.strategy = strategies[s];
    expected[s] = partitioner.SolveScalable(ids, options);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 6; ++round) {
        const int s = (t + round) % 2;
        partition::PartitionOptions options;
        options.strategy = strategies[s];
        options.pool = &pool;
        const partition::Partition got = partitioner.SolveScalable(ids, options);
        if (!oracles::SamePartition(got, expected[s])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace hetpipe::runner

namespace hetpipe::serve {
namespace {

// ---- PlanServer connect/shutdown races ----

TEST(PlanServerStressTest, ShutdownRacesInFlightConnections) {
  // Rounds of: start a server, hammer it from several client threads, and
  // tear it down while calls are mid-flight. Clients may see failures after
  // shutdown begins (connection refused, EOF, or a shutting_down response) —
  // what must never happen is a crash, a wedged Join, or a torn response on
  // a call that was reported successful.
  for (int round = 0; round < 5; ++round) {
    runner::PartitionCache cache;
    PlanServerOptions options;
    options.threads = 4;
    PlanServer server(&cache, options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    std::atomic<int> ok_calls{0};
    std::atomic<int> bad_payloads{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < 20; ++i) {
          PlanClient client;
          std::string client_error;
          if (!client.Connect("127.0.0.1", server.port(), &client_error)) return;
          PlanRequest request;
          request.selector = (c % 2 == 0) ? "VVQQ" : "VRGQ";
          request.nm = 1 + (i % 2);
          std::map<std::string, JsonValue> response;
          if (!client.Call(request, &response, &client_error)) continue;
          if (response.count("ok") == 0) {
            bad_payloads.fetch_add(1);  // torn frame: never acceptable
          } else if (response.at("ok").boolean) {
            ok_calls.fetch_add(1);
          }
        }
      });
    }
    // Let some traffic land, then shut down underneath the clients. The
    // first round keeps the server up until clients finish so at least one
    // round exercises the pure steady state.
    if (round > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5 * round));
      server.RequestShutdown();
    }
    for (std::thread& client : clients) client.join();
    server.RequestShutdown();
    server.Join();
    EXPECT_EQ(bad_payloads.load(), 0);
    if (round == 0) {
      EXPECT_GT(ok_calls.load(), 0);
    }
  }
}

TEST(PlanServerStressTest, RemoteAndLocalShutdownRace) {
  // The remote "shutdown" op (handled on a pool thread) and a local
  // RequestShutdown+Join race each other; exactly one wins the CAS and both
  // paths must coexist with the listener/saver teardown.
  for (int round = 0; round < 5; ++round) {
    runner::PartitionCache cache;
    PlanServerOptions options;
    options.threads = 3;
    PlanServer server(&cache, options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;

    std::thread remote([&] {
      PlanClient client;
      std::string client_error;
      if (!client.Connect("127.0.0.1", server.port(), &client_error)) return;
      PlanRequest request;
      request.op = "shutdown";
      std::map<std::string, JsonValue> response;
      client.Call(request, &response, &client_error);
    });
    server.RequestShutdown();
    server.Join();
    remote.join();
    EXPECT_TRUE(server.shutdown_requested());
  }
}

TEST(PlanServerStressTest, PeriodicSaverShutsDownPromptly) {
  // The saver thread sleeps in long intervals; RequestShutdown must wake it
  // immediately (the notify passes through saver_mu_ — a lost wakeup here
  // would stall Join for the full interval and time this test out).
  const std::string path = testing::TempDir() + "hetpipe_concurrency_saver.bin";
  for (int round = 0; round < 10; ++round) {
    runner::PartitionCache cache;
    PlanServerOptions options;
    options.threads = 2;
    options.cache_path = path;
    options.save_interval_s = 3600.0;  // would dwarf the test timeout if missed
    PlanServer server(&cache, options);
    std::string error;
    ASSERT_TRUE(server.Start(&error)) << error;
    const auto begin = std::chrono::steady_clock::now();
    server.RequestShutdown();
    server.Join();
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 60);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hetpipe::serve
