// Harness for the all-pairs join scheduler (docs/memory.md), emitted as
// machine-readable JSON (BENCH_join.json).
//
// Two sections:
//   join            engine-level all-pairs joins over many short series
//                   (the overhead-dominated regime candidate generation
//                   lives in) at 8 threads, best of 3 after a warmup
//   allocations     heap allocations inside a warm JoinAllPairsInto batch,
//                   counted by a global operator-new override; the
//                   per-pair figure differences two batch sizes so
//                   per-batch constants (spans, pool dispatch) cancel
//
// The timed join is guarded by an FNV-1a checksum over the exact output
// bit patterns against the serial AbJoinProfile kernel in both
// directions; the binary exits 1 on a mismatch (the scheduler is
// scheduling/memory reuse only -- bitwise identity is the contract, see
// tests/join_scheduler_test.cc for the strict assertions).
//
// Usage: bench_join [--json=PATH]   (default ./BENCH_join.json)

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include <bit>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "matrix_profile/matrix_profile.h"
#include "matrix_profile/mp_engine.h"
#include "obs/export.h"
#include "util/parallel.h"
#include "util/timer.h"

// ------------------------------------------------- allocation counting
//
// Global operator-new override: every heap allocation in the binary bumps
// one relaxed atomic while counting is enabled. Deletes are not counted
// (the claim under test is "the hot loop does not allocate", and frees of
// warm buffers would only mask missed news).

namespace {
std::atomic<size_t> g_alloc_count{0};
std::atomic<bool> g_alloc_counting{false};

inline void CountAlloc() {
  if (g_alloc_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  CountAlloc();
  if (void* p = std::aligned_alloc(static_cast<size_t>(align), size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace ips::bench {
namespace {

// ------------------------------------------------------------ checksums

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline void FnvMix(uint64_t& h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffULL;
    h *= kFnvPrime;
  }
}

uint64_t ChecksumJoins(const std::vector<PairJoin>& joins) {
  uint64_t h = kFnvOffset;
  for (const PairJoin& pj : joins) {
    FnvMix(h, pj.a);
    FnvMix(h, pj.b);
    for (const MatrixProfile* mp : {&pj.a_vs_b, &pj.b_vs_a}) {
      for (double v : mp->values) FnvMix(h, std::bit_cast<uint64_t>(v));
      for (size_t i : mp->indices) FnvMix(h, i);
    }
  }
  return h;
}

// ------------------------------------------------------------ workloads

// Many short series: the all-pairs regime candidate generation runs in,
// where per-pair overhead (locks, mallocs, cold artefacts) is a large
// share of the sweep cost. 256 series -> 32640 unordered pairs.
std::vector<std::vector<double>> MakeBatch(size_t count, size_t len,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> series(count);
  for (auto& s : series) {
    s.resize(len);
    double x = 0.0;
    for (double& v : s) {
      x += rng.Uniform() - 0.5;
      v = x;
    }
  }
  return series;
}

std::vector<std::span<const double>> ViewsOf(
    const std::vector<std::vector<double>>& series) {
  return {series.begin(), series.end()};
}

double BestOfS(const std::function<void()>& fn, int trials) {
  double best = 1e300;
  for (int t = 0; t < trials; ++t) {
    Timer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

// The serial kernels' joins of every unordered pair, in JoinAllPairs order.
std::vector<PairJoin> ReferenceJoins(
    const std::vector<std::span<const double>>& views, size_t window) {
  std::vector<PairJoin> joins;
  for (size_t i = 0; i < views.size(); ++i) {
    for (size_t j = i + 1; j < views.size(); ++j) {
      PairJoin pj;
      pj.a = i;
      pj.b = j;
      pj.a_vs_b = AbJoinProfile(views[i], views[j], window);
      pj.b_vs_a = AbJoinProfile(views[j], views[i], window);
      joins.push_back(std::move(pj));
    }
  }
  return joins;
}

struct JoinPoint {
  size_t threads = 0;
  double seconds = 0.0;
  bool checksum_equal = false;
};

// Every trial builds its own artifact table, as each candidate-generation
// join does.
JoinPoint BenchJoin(const std::vector<std::span<const double>>& views,
                    size_t window, size_t threads, int trials,
                    uint64_t reference) {
  MatrixProfileEngine engine(threads);
  std::vector<PairJoin> joins;
  JoinPoint p;
  p.threads = threads;
  // Untimed warmup: page in code and data, fault in the output capacity,
  // so the first timed trial is not systematically colder than the rest.
  engine.JoinAllPairsInto(engine.PrepareAllPairs(views, window), joins);
  p.seconds = BestOfS(
      [&] {
        engine.JoinAllPairsInto(engine.PrepareAllPairs(views, window), joins);
      },
      trials);
  p.checksum_equal = ChecksumJoins(joins) == reference;
  return p;
}

// Heap allocations inside one steady-state batch: the caller already holds
// the artifact table for these views, the output vector its capacity, the
// thread-local arenas their slabs -- the state every batch after the first
// runs in. Counted for the measuring thread AND the pool workers.
size_t WarmBatchAllocs(MatrixProfileEngine& engine,
                       const std::vector<std::span<const double>>& views,
                       size_t window, std::vector<PairJoin>& joins) {
  const ArtifactTable table = engine.PrepareAllPairs(views, window);
  engine.JoinAllPairsInto(table, joins);  // size joins
  engine.JoinAllPairsInto(table, joins);  // settle arena high-water
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_counting.store(true, std::memory_order_relaxed);
  engine.JoinAllPairsInto(table, joins);
  g_alloc_counting.store(false, std::memory_order_relaxed);
  return g_alloc_count.load(std::memory_order_relaxed);
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_join.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  const size_t window = 8;
  const auto series = MakeBatch(/*count=*/256, /*len=*/20, /*seed=*/7);
  const auto views = ViewsOf(series);

  const uint64_t reference = ChecksumJoins(ReferenceJoins(views, window));
  const JoinPoint join = BenchJoin(views, window, 8, 3, reference);
  std::printf("all-pairs join (%zu threads, 256 series x 20): %.4fs %s\n",
              join.threads, join.seconds,
              join.checksum_equal ? "ok" : "CHECKSUM MISMATCH");

  // Allocation counts at two batch sizes; the per-pair slope differences
  // out per-batch constants (span labels, pool region dispatch).
  const auto small_series = MakeBatch(/*count=*/128, /*len=*/20, /*seed=*/7);
  const auto small_views = ViewsOf(small_series);
  const size_t pairs_small = 128 * 127 / 2, pairs_large = 256 * 255 / 2;
  size_t allocs_small = 0, allocs_large = 0;
  {
    MatrixProfileEngine engine(8);
    std::vector<PairJoin> joins;
    allocs_small = WarmBatchAllocs(engine, small_views, window, joins);
  }
  {
    MatrixProfileEngine engine(8);
    std::vector<PairJoin> joins;
    allocs_large = WarmBatchAllocs(engine, views, window, joins);
  }
  const double per_pair =
      static_cast<double>(allocs_large) - static_cast<double>(allocs_small);
  const double per_pair_allocs =
      per_pair / static_cast<double>(pairs_large - pairs_small);
  std::printf(
      "\nwarm-batch heap allocations: %zu @ %zu pairs, %zu @ %zu pairs "
      "-> %.4f per pair\n",
      allocs_small, pairs_small, allocs_large, pairs_large, per_pair_allocs);

  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("experiment", "join_scheduler");
  doc.Set("hardware_threads", static_cast<double>(HardwareThreads()));
  obs::JsonValue join_doc = obs::JsonValue::Object();
  join_doc.Set("threads", static_cast<double>(join.threads));
  join_doc.Set("seconds", join.seconds);
  join_doc.Set("checksum_equal", join.checksum_equal);
  doc.Set("join", std::move(join_doc));
  obs::JsonValue alloc = obs::JsonValue::Object();
  alloc.Set("warm_batch_allocs_small", static_cast<double>(allocs_small));
  alloc.Set("warm_batch_allocs_large", static_cast<double>(allocs_large));
  alloc.Set("pairs_small", static_cast<double>(pairs_small));
  alloc.Set("pairs_large", static_cast<double>(pairs_large));
  alloc.Set("per_pair_allocs", per_pair_allocs);
  doc.Set("allocations", std::move(alloc));
  if (!obs::WriteJsonFile(doc, json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  return join.checksum_equal ? 0 : 1;
}

}  // namespace
}  // namespace ips::bench

int main(int argc, char** argv) { return ips::bench::Main(argc, argv); }
