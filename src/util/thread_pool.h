// Process-wide persistent thread pool behind ParallelFor (util/parallel.h).
//
// The pre-pool ParallelFor spawned and joined std::threads on every call,
// which on the short regions that dominate the Table V breakdown (one
// instance-profile join, one candidate batch) costs as much as the work
// itself. The pool keeps `HardwareThreads() - 1` workers alive for the
// process lifetime; a parallel region is executed by the calling thread
// plus however many workers are idle, with per-participant index shards,
// chunked claiming (one fetch_add per chunk instead of per item) and work
// stealing across shards once a participant's own shard is drained.
//
// Scheduling never changes results: callers keep the ParallelFor contract
// that writes are disjoint per index and randomness is pre-assigned, so
// which participant runs which index is unobservable. See docs/threading.md
// for the lifecycle, determinism rules and the scratch-slot contract.
//
// Lifecycle: lazily started on the first pooled region, shut down cleanly
// via std::atexit (workers joined; later regions run inline). A region
// submitted from inside a pool task runs inline instead of re-entering the
// pool (the nested-submission guard), so nested ParallelFor cannot
// deadlock or oversubscribe.

#ifndef IPS_UTIL_THREAD_POOL_H_
#define IPS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace ips {

class ThreadPool {
 public:
  /// Type-erased region body: fn(ctx, index, slot). `slot` is the stable
  /// participant id in [0, shards) handed to ParallelForWorkers callers.
  using RegionFn = void (*)(void* ctx, size_t index, size_t slot);

  /// The process-wide pool, started on first use (workers =
  /// HardwareThreads() - 1, overridable via the IPS_THREAD_POOL_WORKERS
  /// environment variable) and registered for std::atexit shutdown.
  static ThreadPool& Instance();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Persistent workers (0 on single-core machines or after Shutdown; the
  /// calling thread always participates on top of this).
  size_t worker_count() const { return workers_.size(); }

  /// Runs fn(ctx, i, slot) for every i in [0, count) using at most
  /// `max_workers` concurrent participants including the calling thread.
  /// Blocks until every index has executed and no worker still touches
  /// region state. Slots are unique per region and < min(max_workers,
  /// count). Falls back to an inline loop (slot 0) when no workers exist
  /// or the pool has shut down.
  void Run(size_t count, size_t max_workers, RegionFn fn, void* ctx);

  /// True while the current thread is executing region indices (worker or
  /// caller). ParallelFor uses this as the nested-submission guard.
  static bool InRegion();

  /// Records an inline region in the counters without starting the pool.
  static void NoteInlineRegion();

  /// Joins all workers; later regions run inline. Idempotent, called from
  /// std::atexit. Must not be called from inside a region.
  void Shutdown();

 private:
  struct Region;

  explicit ThreadPool(size_t workers);
  ~ThreadPool() = default;  // never runs: leaky singleton, atexit joins

  void WorkerLoop();
  static void Participate(Region& region, size_t slot);

  std::mutex mu_;
  std::condition_variable cv_;
  // Active regions still accepting participants, in submission order.
  std::vector<Region*> regions_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace ips

#endif  // IPS_UTIL_THREAD_POOL_H_
