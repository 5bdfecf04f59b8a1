#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ips {
namespace {

// The pool's process-wide counters are registry metrics (obs/metrics.h),
// kept nowhere else: run-level consumers (IpsRunStats::FromRegistry, the
// JSON exporters) and tests read deltas of the same names --
//   pool.regions_dispatched  regions executed on the pool (caller + workers)
//   pool.regions_inline      regions run entirely on the calling thread: the
//                            serial fast path (num_threads <= 1 or count <=
//                            1), the nested-submission guard, and regions
//                            submitted after shutdown or without workers
//   pool.tasks_run           indices executed inside pooled regions
//   pool.chunk_steals        chunks claimed from another participant's shard
// Bound once here so the hot paths pay one relaxed fetch_add per event and
// the inline fast paths of ParallelFor can record regions without starting
// the workers.
struct PoolMetrics {
  obs::Counter& regions_dispatched;
  obs::Counter& regions_inline;
  obs::Counter& tasks_run;
  obs::Counter& chunk_steals;
  obs::Histogram& region_items;
};

PoolMetrics& Metrics() {
  static PoolMetrics* metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
    return new PoolMetrics{registry.GetCounter("pool.regions_dispatched"),
                           registry.GetCounter("pool.regions_inline"),
                           registry.GetCounter("pool.tasks_run"),
                           registry.GetCounter("pool.chunk_steals"),
                           registry.GetHistogram("pool.region_items")};
  }();
  return *metrics;
}

// Nested-submission guard: > 0 while this thread executes region indices.
thread_local int t_region_depth = 0;

ThreadPool* g_pool = nullptr;
std::once_flag g_pool_once;

void ShutdownAtExit() { ThreadPool::Instance().Shutdown(); }

size_t DefaultWorkerCount() {
  // IPS_THREAD_POOL_WORKERS overrides the worker count -- deployments cap
  // it below the core count, and the concurrency tests raise it above so
  // single-core machines still exercise real cross-thread scheduling.
  if (const char* env = std::getenv("IPS_THREAD_POOL_WORKERS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<size_t>(hw) - 1 : 0;
}

}  // namespace

// One parallel region, stack-allocated in Run(). Shard s owns indices
// [bounds[s], bounds[s + 1]); cursor[s] is its next unclaimed index.
// Participants drain their own shard first (chunked fetch_add), then steal
// chunks from the other shards. `joined` (guarded by the pool mutex) hands
// out slot ids; `done` counts executed indices with release semantics so
// the caller's final acquire load sees every fn write; `exited` lets the
// caller wait until no worker still touches this object before returning.
struct ThreadPool::Region {
  RegionFn fn = nullptr;
  void* ctx = nullptr;
  size_t count = 0;
  size_t shards = 0;
  size_t chunk = 1;
  std::vector<size_t> bounds;
  std::vector<std::atomic<size_t>> cursor;
  size_t joined = 1;  // slot 0 is the caller; guarded by the pool mutex
  std::atomic<size_t> done{0};
  std::atomic<size_t> exited{0};
};

ThreadPool& ThreadPool::Instance() {
  std::call_once(g_pool_once, [] {
    g_pool = new ThreadPool(DefaultWorkerCount());
    std::atexit(ShutdownAtExit);
  });
  return *g_pool;
}

ThreadPool::ThreadPool(size_t workers) {
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

bool ThreadPool::InRegion() { return t_region_depth > 0; }

void ThreadPool::NoteInlineRegion() {
  Metrics().regions_inline.Add(1);
}

void ThreadPool::Participate(Region& region, size_t slot) {
  ++t_region_depth;
  size_t executed = 0;
  size_t steals = 0;
  for (size_t k = 0; k < region.shards; ++k) {
    const size_t s = (slot + k) % region.shards;
    const size_t end = region.bounds[s + 1];
    for (;;) {
      const size_t begin =
          region.cursor[s].fetch_add(region.chunk, std::memory_order_relaxed);
      if (begin >= end) break;
      const size_t stop = std::min(begin + region.chunk, end);
      for (size_t i = begin; i < stop; ++i) region.fn(region.ctx, i, slot);
      executed += stop - begin;
      if (k != 0) ++steals;
      // Release: pairs with the caller's acquire load in Run() so fn's
      // writes happen-before the region is observed complete.
      region.done.fetch_add(stop - begin, std::memory_order_release);
    }
  }
  --t_region_depth;
  if (executed != 0) Metrics().tasks_run.Add(executed);
  if (steals != 0) Metrics().chunk_steals.Add(steals);
}

void ThreadPool::Run(size_t count, size_t max_workers, RegionFn fn,
                     void* ctx) {
  if (count == 0) return;
  const size_t shards = std::min(max_workers, count);
  if (worker_count() == 0 || shards <= 1) {
    NoteInlineRegion();
    ++t_region_depth;
    for (size_t i = 0; i < count; ++i) fn(ctx, i, 0);
    --t_region_depth;
    return;
  }

  Region region;
  region.fn = fn;
  region.ctx = ctx;
  region.count = count;
  region.shards = shards;
  // One claim per ~1/8th of a shard amortises the fetch_add while leaving
  // enough chunks for stealing to balance uneven item costs.
  region.chunk = std::max<size_t>(1, count / (shards * 8));
  region.bounds.resize(shards + 1);
  for (size_t s = 0; s <= shards; ++s) {
    region.bounds[s] = count * s / shards;
  }
  region.cursor = std::vector<std::atomic<size_t>>(shards);
  for (size_t s = 0; s < shards; ++s) {
    region.cursor[s].store(region.bounds[s], std::memory_order_relaxed);
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      NoteInlineRegion();
      ++t_region_depth;
      for (size_t i = 0; i < count; ++i) fn(ctx, i, 0);
      --t_region_depth;
      return;
    }
    regions_.push_back(&region);
  }
  cv_.notify_all();
  Metrics().regions_dispatched.Add(1);
  Metrics().region_items.Observe(count);
  IPS_SPAN("pool_region");

  Participate(region, 0);

  // The caller drained everything it could claim; in-flight chunks held by
  // workers are at most shards - 1 short tails, so spin-yield is cheaper
  // than a per-region condition variable.
  while (region.done.load(std::memory_order_acquire) < count) {
    std::this_thread::yield();
  }

  size_t joined_workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    regions_.erase(std::find(regions_.begin(), regions_.end(), &region));
    // No worker can join past this point; `joined` is frozen.
    joined_workers = region.joined - 1;
  }
  while (region.exited.load(std::memory_order_acquire) < joined_workers) {
    std::this_thread::yield();
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Region* region = nullptr;
    size_t slot = 0;
    for (Region* candidate : regions_) {
      if (candidate->joined < candidate->shards &&
          candidate->done.load(std::memory_order_relaxed) <
              candidate->count) {
        region = candidate;
        slot = candidate->joined++;
        break;
      }
    }
    if (region == nullptr) {
      if (stop_) return;
      cv_.wait(lock);
      continue;
    }
    lock.unlock();
    Participate(*region, slot);
    // Release: the caller's acquire load on `exited` must see this worker
    // fully out of the region before the Region object is destroyed.
    region->exited.fetch_add(1, std::memory_order_release);
    lock.lock();
  }
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

}  // namespace ips
