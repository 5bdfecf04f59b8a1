// The benchmark's workloads and its metric tables (perfbench/README.md).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "core/time_series.h"
#include "ips/config.h"

namespace perfbench {

/// Name and unit of one printed metric.
struct MetricDef {
  std::string name;
  std::string unit;
};

/// The metrics printed with --trace 0 and --trace 1, in BENCHMARK.json order.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// Everything a workload run reports into.
struct RunContext {
  Args args;
  Gate gate;
  Report report;
  SpanRecorder spans;
};

/// Splits per run. The cost of predicting with one model depends on the
/// lengths of the shapelets its data happen to yield, which moves
/// `predict_series_per_s` by up to a fifth from seed to seed. A run
/// therefore generates kDatasets splits, fits them in turn and times each
/// predict sample over every split's model, so that cost is nearly the
/// same for every seed.
constexpr size_t kDatasets = 4;

/// Generator seed of split `k` of a run with seed `seed`.
inline uint64_t DatasetSeed(uint64_t seed, size_t k) {
  return seed * kDatasets + k + 1;
}

/// Predict samples timed after each pair of fits. A predict sample runs
/// PredictBatch at 1 thread: at T threads its time followed how many cores
/// the rest of a shared host left free (it halved in slow phases while the
/// 1-thread fits held within a tenth), and the work itself depends on
/// scheduling, as each worker seeds its early-abandon search from the
/// series it visited before. The traced run times the T-thread batch
/// (`transform.test.s`).
constexpr int kPredictRepeats = 3;

/// fit_profile, fit_exact and store_scan.
bool IsFitWorkload(const std::string& name);
void RunFitWorkload(RunContext& ctx);

/// serve_mixed.
void RunServeWorkload(RunContext& ctx);

/// One traced fit + predict rebuilt from the public stage calls, in the
/// order and with the seeds IpsClassifier::Fit / PredictBatch use. Every
/// call gets a span; `layer` receives one sample of each per-layer metric
/// it covers.
struct TracedFit {
  std::vector<ips::Subsequence> shapelets;
  std::vector<int> labels;
  std::map<std::string, double> layer;
};
TracedFit RunTracedFit(const ips::IpsOptions& options,
                       const ips::DatasetView& train,
                       const ips::DatasetView& test, SpanRecorder& spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
