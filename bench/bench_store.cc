// Out-of-core benchmark / acceptance gate of the columnar store
// (store/columnar_store.h): runs shapelet discovery AND the shapelet
// transform on a corpus several times larger than the chunk-residency
// budget, holds both to bitwise identity with the in-RAM path, and FAILS
// (non-zero exit) if the store's peak resident chunk bytes ever exceed
// the budget -- the CI memory-budget job's contract.
//
// Usage: bench_store [--full] [--json=PATH] [--metric=NAME]
//
// Both paths run once untimed (warm-up), then kTimedRepeats times with the
// path order alternating between repeats; the reported wall times are the
// per-path medians, so neither path is timed first and cold.
//
// Writes BENCH_store.json: corpus/budget/chunk geometry, LRU counters,
// per-path median wall times and the parity verdicts.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/metric.h"
#include "data/generator.h"
#include "ips/pipeline.h"
#include "ips/serialization.h"
#include "obs/export.h"
#include "obs/json.h"
#include "store/columnar_store.h"
#include "store/store_writer.h"
#include "transform/shapelet_transform.h"

namespace ips::bench {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// FNV-1a over the exact bit patterns of every transform cell: two
/// transforms hash equal iff they are bitwise identical.
uint64_t HashTransform(const TransformedData& t) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (v >> b) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const std::vector<double>& row : t.features) {
    for (const double v : row) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    }
  }
  for (const int label : t.labels) mix(static_cast<uint64_t>(label));
  return h;
}

constexpr int kTimedRepeats = 3;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// One discovery + transform pass over one path, timed per phase.
struct PathRun {
  RunResult run;
  TransformedData transform;
  double discover_ms = 0.0;
  double transform_ms = 0.0;
};

PathRun RunPath(const DatasetView& source, const IpsOptions& options) {
  PathRun r;
  auto start = std::chrono::steady_clock::now();
  r.run = DiscoverShapelets(source, options);
  r.discover_ms = MsSince(start);
  start = std::chrono::steady_clock::now();
  r.transform = ShapeletTransform(source, r.run.shapelets, options.metric,
                                  options.num_threads);
  r.transform_ms = MsSince(start);
  return r;
}

int Run(const BenchArgs& args) {
  // A corpus deliberately larger than the residency budget below. The
  // quick shape is ~1.5 MB; --full grows it ~20x.
  GeneratorSpec spec;
  spec.name = "store_bench";
  spec.num_classes = 3;
  spec.train_size = args.full ? 512 : 96;
  spec.test_size = 2;
  spec.length = args.full ? 4096 : 2048;
  const Dataset data = GenerateDataset(spec).train;

  uint64_t corpus_bytes = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    corpus_bytes += data.At(i).length() * sizeof(double);
  }

  // ~16 chunks; budget of ~3 of them, so every full scan must evict.
  const std::string segment_path =
      "/tmp/ips_bench_store_" + std::to_string(::getpid()) + ".ips";
  store::StoreWriter::Options write_options;
  write_options.chunk_target_bytes =
      std::max<uint64_t>(4096, corpus_bytes / 16);
  std::string error;
  if (!store::WriteDatasetToStore(data, segment_path, write_options,
                                  &error)) {
    std::fprintf(stderr, "store write failed: %s\n", error.c_str());
    return 1;
  }
  store::ColumnarStore::Options open_options;
  open_options.budget_bytes = write_options.chunk_target_bytes * 3;
  const auto segment =
      store::ColumnarStore::Open(segment_path, open_options, &error);
  if (segment == nullptr) {
    std::fprintf(stderr, "store open failed: %s\n", error.c_str());
    ::unlink(segment_path.c_str());
    return 1;
  }

  MetricId metric = MetricId::kZNormEuclidean;
  if (!args.metric.empty()) {
    const MetricPolicy* policy = FindMetricByName(args.metric);
    if (policy == nullptr) {
      std::fprintf(stderr, "unknown metric: %s\n", args.metric.c_str());
      return 2;
    }
    metric = policy->id;
  }

  IpsOptions options;
  options.num_threads = 4;
  options.metric = metric;
  options.sample_count = 6;
  options.sample_size = 4;
  options.length_ratios = {0.1, 0.2};
  options.shapelets_per_class = 5;

  std::printf("corpus %.2f MB in %zu chunks, residency budget %.2f MB\n",
              static_cast<double>(corpus_bytes) / (1 << 20),
              segment->num_chunks(),
              static_cast<double>(segment->budget_bytes()) / (1 << 20));

  // ---- Untimed warm-up of both paths. The in-RAM pass is the parity
  // reference every later pass (RAM or store) must match bitwise.
  const PathRun reference = RunPath(data, options);
  const std::string reference_shapelets =
      SerializeShapelets(reference.run.shapelets);
  const uint64_t reference_transform = HashTransform(reference.transform);
  bool discovery_identical = true;
  bool transform_identical = true;
  const auto check = [&](const PathRun& r) {
    discovery_identical &=
        SerializeShapelets(r.run.shapelets) == reference_shapelets;
    transform_identical &= HashTransform(r.transform) == reference_transform;
  };
  check(RunPath(*segment, options));

  // ---- Timed repeats, alternating which path runs first.
  std::vector<double> ram_discover, ram_transform, store_discover,
      store_transform;
  for (int rep = 0; rep < kTimedRepeats; ++rep) {
    for (int k = 0; k < 2; ++k) {
      const bool ram = (rep + k) % 2 == 0;
      const PathRun r = ram ? RunPath(data, options)
                            : RunPath(*segment, options);
      check(r);
      (ram ? ram_discover : store_discover).push_back(r.discover_ms);
      (ram ? ram_transform : store_transform).push_back(r.transform_ms);
    }
  }
  const double ram_discover_ms = Median(ram_discover);
  const double ram_transform_ms = Median(ram_transform);
  const double store_discover_ms = Median(store_discover);
  const double store_transform_ms = Median(store_transform);
  const bool corpus_exceeds_budget = corpus_bytes > segment->budget_bytes();
  const bool budget_respected =
      segment->resident_high_water() <= segment->budget_bytes();
  const bool evictions_exercised = segment->chunk_evictions() > 0;

  std::printf("median of %d timed repeats after a warm-up of both paths\n",
              kTimedRepeats);
  std::printf("discovery:  ram %.1f ms, store %.1f ms -- %s\n",
              ram_discover_ms, store_discover_ms,
              discovery_identical ? "bitwise identical" : "MISMATCH");
  std::printf("transform:  ram %.1f ms, store %.1f ms -- %s\n",
              ram_transform_ms, store_transform_ms,
              transform_identical ? "bitwise identical" : "MISMATCH");
  std::printf(
      "residency:  high water %.2f MB of %.2f MB budget (%s), "
      "%llu loads / %llu hits / %llu evictions\n",
      static_cast<double>(segment->resident_high_water()) / (1 << 20),
      static_cast<double>(segment->budget_bytes()) / (1 << 20),
      budget_respected ? "within budget" : "EXCEEDED",
      static_cast<unsigned long long>(segment->chunk_loads()),
      static_cast<unsigned long long>(segment->chunk_hits()),
      static_cast<unsigned long long>(segment->chunk_evictions()));

  if (!args.json_path.empty()) {
    obs::JsonValue doc = obs::JsonValue::Object();
    doc.Set("bench", "store");
    doc.Set("metric", MetricName(metric));
    doc.Set("corpus_bytes", corpus_bytes);
    doc.Set("segment_bytes", segment->mapped_bytes());
    doc.Set("num_series", data.size());
    doc.Set("num_chunks", segment->num_chunks());
    doc.Set("budget_bytes", segment->budget_bytes());
    doc.Set("resident_high_water", segment->resident_high_water());
    doc.Set("chunk_loads", segment->chunk_loads());
    doc.Set("chunk_hits", segment->chunk_hits());
    doc.Set("chunk_evictions", segment->chunk_evictions());
    doc.Set("timed_repeats", kTimedRepeats);
    doc.Set("ram_discover_ms", ram_discover_ms);
    doc.Set("store_discover_ms", store_discover_ms);
    doc.Set("ram_transform_ms", ram_transform_ms);
    doc.Set("store_transform_ms", store_transform_ms);
    doc.Set("corpus_exceeds_budget", corpus_exceeds_budget);
    doc.Set("discovery_identical", discovery_identical);
    doc.Set("transform_identical", transform_identical);
    doc.Set("budget_respected", budget_respected);
    doc.Set("evictions_exercised", evictions_exercised);
    if (!obs::WriteJsonFile(doc, args.json_path)) {
      std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
      ::unlink(segment_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  ::unlink(segment_path.c_str());

  const bool ok = corpus_exceeds_budget && discovery_identical &&
                  transform_identical && budget_respected &&
                  evictions_exercised;
  if (!ok) std::fprintf(stderr, "bench_store: ACCEPTANCE FAILURE\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ips::bench

int main(int argc, char** argv) {
  return ips::bench::Run(ips::bench::ParseArgs(argc, argv));
}
