// Early-abandon cascade before/after harness (docs/pruning.md), emitted as
// machine-readable JSON (BENCH_eab.json).
//
// For every registered metric, at 1 and 8 threads, two workloads run twice
// -- once with the DistanceEngine's lower-bound cascade enabled (the
// default) and once forced onto the exhaustive dense path:
//   - a whole-dataset shapelet-transform batch (TransformBatch) with
//     shapelets cut from the training series, so embedded pattern matches
//     drive the best-so-far down early;
//   - an IpsClassifier PredictBatch over a held-out test set (the
//     prediction-time transform is the dominant cost).
// Timings are best-of-trials; each pruned/exhaustive pair is checked
// feature-by-feature for bitwise equality (the cascade is a pure
// performance knob), and the pruned runs report the cascade counters so
// the JSON records WHERE the speedup came from (lb-pruned vs abandoned).
//
// Shapelet lengths stay under core/distance.h's kFftCutoff so every min
// query sits in the naive sliding-dots regime the cascade serves.
//
// Usage: bench_eab [--out=PATH]   (default ./BENCH_eab.json)

#include <chrono>
#include <cstdio>

#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/distance_engine.h"
#include "core/metric.h"
#include "data/generator.h"
#include "ips/pipeline.h"
#include "transform/shapelet_transform.h"

namespace ips {
namespace {

constexpr double kTau = 6.283185307179586;

// Deterministic uniform noise in [-0.5, 0.5); xorshift-free LCG so the
// workload is identical across platforms and runs.
double Noise(uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<double>(state >> 11) / 9007199254740992.0 - 0.5;
}

// One series of the bench workload: an amplitude-ramped sine carrier
// shared by every series (so any extracted query has a near-twin in every
// other series and the best-so-far collapses within the first visits),
// lightly dusted with noise, with a strong per-class chirp implanted at a
// class-dependent offset. The monotone ramp spreads window energies along
// the series, which is exactly what the cascade's O(1) energy band prunes
// on; the class chirp keeps the two classes separable so PredictBatch does
// real work.
TimeSeries MakeSeries(int cls, size_t idx, size_t length) {
  std::vector<double> v(length);
  uint64_t rng = 0x9E3779B97F4A7C15ull ^ (idx * 2654435761ull + cls);
  for (size_t t = 0; t < length; ++t) {
    const double ramp =
        0.5 + 2.5 * static_cast<double>(t) / static_cast<double>(length);
    v[t] = ramp * std::sin(kTau * static_cast<double>(t) / 64.0) +
           0.02 * Noise(rng);
  }
  const size_t pos = cls == 0 ? 96 : 288;
  for (size_t j = 0; j < 64 && pos + j < length; ++j) {
    const double x = static_cast<double>(j) / 64.0;
    v[pos + j] += 1.5 * std::sin(kTau * (4.0 * x * x + static_cast<double>(cls)));
  }
  return TimeSeries(std::move(v), cls);
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

bool RowsIdentical(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

double Checksum(const std::vector<std::vector<double>>& rows) {
  double s = 0.0;
  for (const auto& row : rows) {
    for (double x : row) s += x;
  }
  return s;
}

struct EabCase {
  std::string metric;
  size_t threads = 0;
  double transform_pruned_ns = 0.0;
  double transform_exhaustive_ns = 0.0;
  double predict_pruned_ns = 0.0;
  double predict_exhaustive_ns = 0.0;
  bool transform_identical = false;
  bool predict_identical = false;
  double transform_checksum = 0.0;
  size_t eab_candidates = 0;
  size_t eab_lb_pruned = 0;
  size_t eab_abandoned = 0;
  size_t eab_full = 0;
};

EabCase BenchOne(MetricId metric, size_t threads, const TrainTestSplit& data,
                 const std::vector<Subsequence>& shapelets) {
  EabCase r;
  r.metric = MetricName(metric);
  r.threads = threads;

  // Transform batch, pruned vs exhaustive. Every rep recomputes its
  // artefacts (the engine keeps none between calls), so both paths pay the
  // same artefact cost.
  std::vector<std::vector<double>> pruned_rows, dense_rows;
  {
    DistanceEngine engine(threads);
    engine.set_early_abandon(true);
    r.transform_pruned_ns = BestOfNs(
        [&] {
          pruned_rows = engine.TransformBatch(data.train, shapelets, metric);
        },
        5, 2);
    const EngineCounters c = engine.counters();
    // Counters accumulate over every rep; the split is what matters, and
    // ratios are rep-invariant.
    r.eab_candidates = c.eab_candidates;
    r.eab_lb_pruned = c.eab_lb_pruned;
    r.eab_abandoned = c.eab_abandoned;
    r.eab_full = c.eab_full;
  }
  {
    DistanceEngine engine(threads);
    engine.set_early_abandon(false);
    r.transform_exhaustive_ns = BestOfNs(
        [&] {
          dense_rows = engine.TransformBatch(data.train, shapelets, metric);
        },
        5, 2);
  }
  r.transform_identical = RowsIdentical(pruned_rows, dense_rows);
  r.transform_checksum = Checksum(pruned_rows);

  // PredictBatch, pruned vs exhaustive. Discovery is bitwise identical
  // either way, so both classifiers find the same shapelets; only the
  // prediction-time transform path differs.
  IpsOptions options;
  options.sample_count = 2;
  options.sample_size = 2;
  options.length_ratios = {0.1};
  options.shapelets_per_class = 4;
  options.metric = metric;
  options.num_threads = threads;

  options.enable_early_abandon = true;
  IpsClassifier pruned_clf(options);
  pruned_clf.Fit(data.train);
  std::vector<int> pruned_labels;
  r.predict_pruned_ns = BestOfNs(
      [&] { pruned_labels = pruned_clf.PredictBatch(data.test); }, 5, 2);

  options.enable_early_abandon = false;
  IpsClassifier dense_clf(options);
  dense_clf.Fit(data.train);
  std::vector<int> dense_labels;
  r.predict_exhaustive_ns = BestOfNs(
      [&] { dense_labels = dense_clf.PredictBatch(data.test); }, 5, 2);

  r.predict_identical = pruned_labels == dense_labels;
  return r;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_eab.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = arg.substr(6);
  }

  // Long series (many alignments per min query) built by MakeSeries: a
  // shared ramped carrier so every query finds a near-exact twin fast, an
  // energy gradient the O(1) band bound prunes on, and per-class chirps so
  // prediction is a real task.
  constexpr size_t kLength = 512;
  TrainTestSplit data;
  for (size_t i = 0; i < 48; ++i) {
    data.train.Add(MakeSeries(static_cast<int>(i % 2), i, kLength));
  }
  for (size_t i = 0; i < 96; ++i) {
    data.test.Add(MakeSeries(static_cast<int>(i % 2), 1000 + i, kLength));
  }

  // Shapelets cut from the training series, lengths 48..63 (< kFftCutoff:
  // the whole bench stays in the naive regime the cascade serves). Start
  // offsets stay inside [161, 224], the band between the two class-motif
  // implants, so every shapelet has a near-twin in EVERY series -- the
  // regime the cascade is built for. (PredictBatch below uses discovered
  // shapelets, which land wherever discovery puts them.)
  std::vector<Subsequence> shapelets;
  for (size_t i = 0; i < 16; ++i) {
    shapelets.push_back(ExtractSubsequence(data.train[i % data.train.size()],
                                           161 + (7 * i) % 64,
                                           48 + (i % 16)));
  }

  std::vector<EabCase> results;
  bool all_identical = true;
  for (size_t m = 0; m < kMetricCount; ++m) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      results.push_back(
          BenchOne(static_cast<MetricId>(m), threads, data, shapelets));
      const EabCase& r = results.back();
      all_identical =
          all_identical && r.transform_identical && r.predict_identical;
      std::printf(
          "%-18s t=%zu  transform %10.0f -> %10.0f ns (%.2fx)  predict "
          "%10.0f -> %10.0f ns (%.2fx)  skipped %.1f%%%s\n",
          r.metric.c_str(), r.threads, r.transform_exhaustive_ns,
          r.transform_pruned_ns,
          r.transform_pruned_ns > 0.0
              ? r.transform_exhaustive_ns / r.transform_pruned_ns
              : 0.0,
          r.predict_exhaustive_ns, r.predict_pruned_ns,
          r.predict_pruned_ns > 0.0
              ? r.predict_exhaustive_ns / r.predict_pruned_ns
              : 0.0,
          r.eab_candidates == 0
              ? 0.0
              : 100.0 *
                    static_cast<double>(r.eab_lb_pruned + r.eab_abandoned) /
                    static_cast<double>(r.eab_candidates),
          r.transform_identical && r.predict_identical
              ? ""
              : "  MISMATCH");
    }
  }

  std::ofstream out(out_path);
  out << "{\n  \"cases\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const EabCase& r = results[i];
    out << "    {\"metric\": \"" << r.metric << "\", \"threads\": " << r.threads
        << ", \"transform_pruned_ns\": " << r.transform_pruned_ns
        << ", \"transform_exhaustive_ns\": " << r.transform_exhaustive_ns
        << ", \"transform_speedup\": "
        << (r.transform_pruned_ns > 0.0
                ? r.transform_exhaustive_ns / r.transform_pruned_ns
                : 0.0)
        << ", \"predict_pruned_ns\": " << r.predict_pruned_ns
        << ", \"predict_exhaustive_ns\": " << r.predict_exhaustive_ns
        << ", \"predict_speedup\": "
        << (r.predict_pruned_ns > 0.0
                ? r.predict_exhaustive_ns / r.predict_pruned_ns
                : 0.0)
        << ", \"transform_identical\": "
        << (r.transform_identical ? "true" : "false")
        << ", \"predict_identical\": "
        << (r.predict_identical ? "true" : "false")
        << ", \"transform_checksum\": " << r.transform_checksum
        << ", \"eab_candidates\": " << r.eab_candidates
        << ", \"eab_lb_pruned\": " << r.eab_lb_pruned
        << ", \"eab_abandoned\": " << r.eab_abandoned
        << ", \"eab_full\": " << r.eab_full << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.close();

  std::cout << "wrote " << out_path << "\n";
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: pruned and exhaustive outputs differ (the cascade "
                 "must be bitwise exact)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ips

int main(int argc, char** argv) { return ips::Main(argc, argv); }
