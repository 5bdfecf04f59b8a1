// Concurrency battery for the persistent work-stealing pool
// (util/thread_pool.h) and the ParallelFor/ParallelForWorkers contracts
// rerouted through it: thousands of short regions, regions submitted
// concurrently from multiple caller threads, nested ParallelFor inside a
// pool task, worker-slot bounds and exclusivity, and shutdown fallback.
// Runs under TSan in CI (ctest -L concurrency).

#include "util/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/parallel.h"

namespace ips {
namespace {

// Force a multi-worker pool before the lazily-started singleton exists, so
// the battery exercises real cross-thread scheduling (claiming, stealing,
// slot handout) even on single-core CI runners. overwrite=0 keeps an
// explicit caller-provided override.
const bool kForcePoolWorkers = [] {
  setenv("IPS_THREAD_POOL_WORKERS", "7", /*overwrite=*/0);
  return true;
}();

// The pool's process-wide counts, read from the metrics registry (their
// only home). Reading them never starts the pool.
struct PoolCounts {
  uint64_t regions_dispatched = 0;
  uint64_t regions_inline = 0;
  uint64_t tasks_run = 0;
  uint64_t chunk_steals = 0;
};

PoolCounts ReadPoolCounts() {
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Instance().Snapshot();
  return {snap.CounterValue("pool.regions_dispatched"),
          snap.CounterValue("pool.regions_inline"),
          snap.CounterValue("pool.tasks_run"),
          snap.CounterValue("pool.chunk_steals")};
}

TEST(ThreadPoolTest, WorkerCountMatchesEnvOverride) {
  ASSERT_TRUE(kForcePoolWorkers);
  EXPECT_EQ(ThreadPool::Instance().worker_count(), 7u);
}

TEST(ThreadPoolTest, DispatchedRegionRunsEveryIndexExactlyOnce) {
  const PoolCounts before = ReadPoolCounts();
  std::vector<std::atomic<int>> hits(997);  // prime: uneven shard bounds
  ParallelFor(hits.size(), 8, [&](size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  const PoolCounts after = ReadPoolCounts();
  EXPECT_EQ(after.regions_dispatched, before.regions_dispatched + 1);
  EXPECT_EQ(after.tasks_run, before.tasks_run + hits.size());
}

TEST(ThreadPoolTest, ThousandsOfShortRegionsStayCorrect) {
  constexpr size_t kRegions = 4000;
  constexpr size_t kItems = 17;
  std::vector<long> out(kItems);
  for (size_t region = 0; region < kRegions; ++region) {
    ParallelFor(kItems, 8, [&](size_t i) {
      out[i] = static_cast<long>(region * kItems + i);
    });
    for (size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(out[i], static_cast<long>(region * kItems + i))
          << "region " << region;
    }
  }
}

TEST(ThreadPoolTest, ConcurrentRegionsFromMultipleCallerThreads) {
  constexpr size_t kCallers = 4;
  constexpr size_t kRegionsPerCaller = 400;
  constexpr size_t kItems = 64;
  std::vector<long> sums(kCallers, 0);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &sums] {
      std::vector<long> out(kItems);
      long total = 0;
      for (size_t r = 0; r < kRegionsPerCaller; ++r) {
        ParallelFor(kItems, 8, [&](size_t i) {
          out[i] = static_cast<long>((c + 1) * (i + r));
        });
        total = std::accumulate(out.begin(), out.end(), total);
      }
      sums[c] = total;
    });
  }
  for (auto& t : callers) t.join();

  for (size_t c = 0; c < kCallers; ++c) {
    long expected = 0;
    for (size_t r = 0; r < kRegionsPerCaller; ++r) {
      for (size_t i = 0; i < kItems; ++i) {
        expected += static_cast<long>((c + 1) * (i + r));
      }
    }
    EXPECT_EQ(sums[c], expected) << "caller " << c;
  }
}

TEST(ThreadPoolTest, NestedParallelForInsidePoolTaskRunsInline) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 50;
  const PoolCounts before = ReadPoolCounts();
  std::vector<int> same_thread(kOuter, 0);
  std::vector<long> inner_sums(kOuter, 0);
  ParallelFor(kOuter, 8, [&](size_t o) {
    const std::thread::id outer_id = std::this_thread::get_id();
    std::vector<long> inner(kInner);
    bool inline_everywhere = true;
    ParallelFor(kInner, 8, [&](size_t i) {
      inline_everywhere &= std::this_thread::get_id() == outer_id;
      inner[i] = static_cast<long>(o * kInner + i);
    });
    same_thread[o] = inline_everywhere ? 1 : 0;
    inner_sums[o] = std::accumulate(inner.begin(), inner.end(), 0L);
  });

  for (size_t o = 0; o < kOuter; ++o) {
    EXPECT_EQ(same_thread[o], 1) << "outer " << o;
    long expected = 0;
    for (size_t i = 0; i < kInner; ++i) {
      expected += static_cast<long>(o * kInner + i);
    }
    EXPECT_EQ(inner_sums[o], expected) << "outer " << o;
  }
  const PoolCounts after = ReadPoolCounts();
  // One dispatched outer region; every nested region hit the inline guard.
  EXPECT_EQ(after.regions_dispatched, before.regions_dispatched + 1);
  EXPECT_GE(after.regions_inline, before.regions_inline + kOuter);
}

TEST(ThreadPoolTest, WorkerSlotsStayInBoundsAndExclusive) {
  // Slot bound is min(num_threads, count) for both orderings.
  for (const auto& [count, threads, bound] :
       {std::tuple<size_t, size_t, size_t>{5, 8, 5},
        std::tuple<size_t, size_t, size_t>{300, 4, 4},
        std::tuple<size_t, size_t, size_t>{100, 64, 64}}) {
    std::vector<std::atomic<int>> in_use(bound);
    std::atomic<int> bound_violations{0};
    std::atomic<int> overlap_violations{0};
    std::vector<std::atomic<size_t>> per_slot_items(bound);
    ParallelForWorkers(count, threads, [&](size_t i, size_t slot) {
      if (slot >= bound) {
        bound_violations.fetch_add(1);
        return;
      }
      // A slot is held by one thread at a time: entering a busy slot means
      // two participants were handed the same id.
      if (in_use[slot].fetch_add(1) != 0) overlap_violations.fetch_add(1);
      per_slot_items[slot].fetch_add(1);
      volatile double sink = 0.0;
      for (size_t k = 0; k < 50 + (i % 7) * 30; ++k) sink = sink + 1.0;
      in_use[slot].fetch_sub(1);
    });
    EXPECT_EQ(bound_violations.load(), 0)
        << "count=" << count << " threads=" << threads;
    EXPECT_EQ(overlap_violations.load(), 0)
        << "count=" << count << " threads=" << threads;
    size_t total = 0;
    for (auto& n : per_slot_items) total += n.load();
    EXPECT_EQ(total, count) << "count=" << count << " threads=" << threads;
  }
}

TEST(ThreadPoolTest, OutputsBitwiseIdenticalAcrossThreadCounts) {
  constexpr size_t kItems = 500;
  auto run = [&](size_t threads) {
    std::vector<double> out(kItems);
    ParallelFor(kItems, threads, [&](size_t i) {
      double x = static_cast<double>(i) * 0.37 + 1.0;
      for (int k = 0; k < 100; ++k) x = x * 0.99 + 0.013;
      out[i] = x;
    });
    return out;
  };
  const std::vector<double> serial = run(1);
  for (size_t threads : {size_t{2}, size_t{8}, size_t{32}}) {
    const std::vector<double> threaded = run(threads);
    ASSERT_EQ(threaded.size(), serial.size());
    for (size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(threaded[i], serial[i]) << "threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, CountersAreMonotonic) {
  const PoolCounts before = ReadPoolCounts();
  std::vector<double> out(256);
  // Imbalanced items give stealing something to do; steals are scheduling-
  // dependent, so only monotonicity is asserted.
  ParallelFor(out.size(), 8, [&](size_t i) {
    volatile double sink = 0.0;
    for (size_t k = 0; k < (i % 16) * 200; ++k) sink = sink + 1.0;
    out[i] = sink;
  });
  ParallelFor(1, 8, [&](size_t i) { out[i] = 0.0; });  // inline by contract
  const PoolCounts after = ReadPoolCounts();
  EXPECT_GE(after.regions_dispatched, before.regions_dispatched + 1);
  EXPECT_GE(after.regions_inline, before.regions_inline + 1);
  EXPECT_GE(after.tasks_run, before.tasks_run + 256);
  EXPECT_GE(after.chunk_steals, before.chunk_steals);
}

// Keep last in the file: shutting the singleton down makes every later
// region in this process run inline (each ctest case is its own process,
// but a direct ./thread_pool_test run executes tests in declaration order).
TEST(ThreadPoolTest, ShutdownIsIdempotentAndFallsBackInline) {
  ThreadPool::Instance().Shutdown();
  ThreadPool::Instance().Shutdown();  // idempotent
  EXPECT_EQ(ThreadPool::Instance().worker_count(), 0u);

  const PoolCounts before = ReadPoolCounts();
  std::vector<int> hits(100, 0);
  ParallelFor(hits.size(), 8, [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
  const PoolCounts after = ReadPoolCounts();
  EXPECT_EQ(after.regions_dispatched, before.regions_dispatched);
  EXPECT_EQ(after.regions_inline, before.regions_inline + 1);
}

}  // namespace
}  // namespace ips
