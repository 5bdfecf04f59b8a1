// Spawn-per-region vs the persistent pool (util/thread_pool.h) on the
// short parallel regions that dominate the Table V per-dataset breakdown
// (one instance-profile join, one candidate batch), emitted as
// machine-readable JSON (BENCH_pool.json).
//
// The baseline is the pre-pool ParallelFor reproduced verbatim: spawn
// std::threads, claim one index per fetch_add, join. The pool side is the
// library's ParallelFor as shipped. Both run the same deterministic
// floating-point work with per-index disjoint writes; a checksum over the
// outputs guards the benchmark itself (the strict assertions live in
// tests/thread_pool_test.cc).
//
// Usage: bench_pool [--out=PATH]   (default ./BENCH_pool.json)
// IPS_THREAD_POOL_WORKERS pins the pool's worker count, making the
// comparison hardware-independent (spawn creates num_threads - 1 threads
// per region; the pool reuses that many persistent workers).

#include <atomic>
#include <chrono>
#include <cstdio>

#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace ips {
namespace {

// The pre-pool ParallelFor (spawn + one-index-per-claim), kept here as the
// before side of the comparison.
template <typename Fn>
void SpawnParallelFor(size_t count, size_t num_threads, Fn&& fn) {
  if (count == 0) return;
  if (num_threads <= 1 || count == 1) {
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  const size_t workers = std::min(num_threads, count);
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      fn(i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t t = 0; t + 1 < workers; ++t) threads.emplace_back(worker);
  worker();
  for (auto& t : threads) t.join();
}

// Deterministic dependent-FLOP chain: the same (i, iters) always produces
// the same value, so checksums match across schedulers exactly.
double BusyWork(size_t i, size_t iters) {
  double x = static_cast<double>(i % 13) * 0.25 + 1.0;
  for (size_t k = 0; k < iters; ++k) x = x * 0.9999999 + 1e-7;
  return x;
}

double BestOfNs(const std::function<void()>& fn, int trials, int reps) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        static_cast<double>(reps);
    if (ns < best) best = ns;
  }
  return best;
}

struct RegionResult {
  std::string name;
  size_t items = 0;
  size_t iters = 0;
  size_t threads = 0;
  double item_ns = 0.0;    // serial cost of one index
  double region_ns = 0.0;  // serial cost of the whole region
  double spawn_ns = 0.0;   // per region, spawn-per-region ParallelFor
  double pool_ns = 0.0;    // per region, pooled ParallelFor
  bool checksum_equal = false;

  double Speedup() const { return pool_ns > 0.0 ? spawn_ns / pool_ns : 0.0; }
};

RegionResult BenchRegion(const std::string& name, size_t items, size_t iters,
                         size_t threads) {
  RegionResult r;
  r.name = name;
  r.items = items;
  r.iters = iters;
  r.threads = threads;

  std::vector<double> out_spawn(items), out_pool(items);
  // The rotating index keeps the call loop-variant, or the optimiser hoists
  // the whole (pure) BusyWork call out of the timing loop.
  size_t rep = 0;
  r.item_ns = BestOfNs(
      [&] {
        out_spawn[rep % items] = BusyWork(rep % items, iters);
        ++rep;
      },
      3, 200);
  r.region_ns = r.item_ns * static_cast<double>(items);

  // Repetitions per trial sized so cheap regions are timed over many
  // launches (the launch cost IS the quantity under test) without the
  // expensive spawn side taking minutes.
  const int reps = iters <= 1000 ? 300 : 50;
  r.spawn_ns = BestOfNs(
      [&] {
        SpawnParallelFor(items, threads,
                         [&](size_t i) { out_spawn[i] = BusyWork(i, iters); });
      },
      3, reps);
  r.pool_ns = BestOfNs(
      [&] {
        ParallelFor(items, threads,
                    [&](size_t i) { out_pool[i] = BusyWork(i, iters); });
      },
      3, reps);

  double sum_spawn = 0.0, sum_pool = 0.0;
  for (size_t i = 0; i < items; ++i) {
    sum_spawn += out_spawn[i];
    sum_pool += out_pool[i];
  }
  r.checksum_equal = sum_spawn == sum_pool;
  return r;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_pool.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }

  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Instance().Snapshot();
  std::vector<RegionResult> results;
  for (size_t threads : {size_t{2}, size_t{8}}) {
    // Region serial work spans dispatch-bound (~empty) through ~1 ms, the
    // short-region regime of the Table V breakdown.
    results.push_back(BenchRegion("dispatch_only", 64, 0, threads));
    results.push_back(BenchRegion("region_60us", 64, 600, threads));
    results.push_back(BenchRegion("region_250us", 64, 2500, threads));
    results.push_back(BenchRegion("region_1ms", 64, 10000, threads));
  }
  const obs::MetricsSnapshot pool =
      obs::MetricsRegistry::Instance().DeltaSince(before);

  std::ofstream out(out_path);
  out << "{\n";
  out << "  \"hardware_threads\": " << HardwareThreads() << ",\n";
  out << "  \"pool_workers\": " << ThreadPool::Instance().worker_count()
      << ",\n";
  out << "  \"regions\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RegionResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"items\": " << r.items
        << ", \"threads\": " << r.threads << ", \"serial_region_ns\": "
        << static_cast<long long>(r.region_ns) << ", \"spawn_ns\": "
        << static_cast<long long>(r.spawn_ns) << ", \"pool_ns\": "
        << static_cast<long long>(r.pool_ns) << ", \"speedup\": " << r.Speedup()
        << ", \"checksum_equal\": " << (r.checksum_equal ? "true" : "false")
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"pool_counters\": {\"regions_dispatched\": "
      << pool.CounterValue("pool.regions_dispatched")
      << ", \"regions_inline\": " << pool.CounterValue("pool.regions_inline")
      << ", \"tasks_run\": " << pool.CounterValue("pool.tasks_run")
      << ", \"chunk_steals\": " << pool.CounterValue("pool.chunk_steals")
      << "}\n";
  out << "}\n";
  out.close();

  std::printf("%-14s %7s %8s %12s %12s %9s %s\n", "region", "threads",
              "serial", "spawn/launch", "pool/launch", "speedup", "ok");
  for (const RegionResult& r : results) {
    std::printf("%-14s %7zu %7.0fus %10.1fus %10.1fus %8.2fx %s\n",
                r.name.c_str(), r.threads, r.region_ns / 1e3,
                r.spawn_ns / 1e3, r.pool_ns / 1e3, r.Speedup(),
                r.checksum_equal ? "ok" : "CHECKSUM MISMATCH");
  }
  std::printf("wrote %s\n", out_path.c_str());

  for (const RegionResult& r : results) {
    if (!r.checksum_equal) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) { return ips::Main(argc, argv); }
