// fit_profile, fit_exact and store_scan: IpsClassifier::Fit at 1 and T
// threads and PredictBatch over the test split, on kDatasets splits in
// turn. store_scan reads its corpus through ColumnarStore views under a
// residency budget; the other two stay in RAM.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "ips/pipeline.h"
#include "store/columnar_store.h"
#include "store/store_writer.h"
#include "util/check.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace store = ips::store;

struct FitSpec {
  ips::GeneratorSpec data;
  ips::IpsOptions options;
  bool store = false;
};

/// The workload's split and options; each split's seed is set in set-up.
FitSpec MakeFitSpec(const std::string& workload) {
  FitSpec spec;
  spec.data.name = workload;
  spec.data.test_size = 200;
  spec.data.length = 256;
  if (workload == "fit_profile") {
    // Paper defaults (DABF pruning, DT+CR utility) with heavy sampling:
    // candidate generation dominates the fit.
    spec.data.num_classes = 4;
    spec.data.train_size = 120;
    spec.options.sample_count = 40;
  } else if (workload == "fit_exact") {
    // The Fig. 10 ablation path: naive pruning and exact utilities.
    spec.data.num_classes = 3;
    spec.data.train_size = 90;
    spec.options.sample_count = 10;
    spec.options.use_dabf_pruning = false;
    spec.options.utility_mode = ips::UtilityMode::kExactWithCr;
  } else {
    IPS_CHECK(workload == "store_scan");
    // Long series read out of core.
    spec.store = true;
    spec.data.num_classes = 3;
    spec.data.train_size = 48;
    spec.data.test_size = 100;
    spec.data.length = 2048;
    spec.options.sample_count = 4;
    spec.options.length_ratios = {0.05, 0.1};
  }
  return spec;
}

/// Set-up products of one split: the split in RAM and, for store_scan,
/// its segments.
struct FitData {
  ips::TrainTestSplit split;
  std::string train_segment;
  std::string test_segment;
  uint64_t train_budget = 0;
  uint64_t test_budget = 0;
};

uint64_t ValueBytes(const ips::DatasetView& data) {
  uint64_t bytes = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    bytes += data.At(i).length() * sizeof(double);
  }
  return bytes;
}

/// Writes one split to a segment of about 16 chunks; returns the
/// residency budget (a quarter of the values) the timed part opens it with.
uint64_t WriteSegment(const ips::DatasetView& data, const std::string& path) {
  const uint64_t bytes = ValueBytes(data);
  store::StoreWriter::Options options;
  options.chunk_target_bytes = std::max<uint64_t>(4096, bytes / 16);
  std::string error;
  IPS_CHECK_MSG(store::WriteDatasetToStore(data, path, options, &error),
                error.c_str());
  return bytes / 4;
}

std::unique_ptr<store::ColumnarStore> OpenSegment(const std::string& path,
                                                  uint64_t budget) {
  store::ColumnarStore::Options options;
  options.budget_bytes = budget;
  std::string error;
  std::unique_ptr<store::ColumnarStore> segment =
      store::ColumnarStore::Open(path, options, &error);
  IPS_CHECK_MSG(segment != nullptr, error.c_str());
  return segment;
}

class FitRunner {
 public:
  FitRunner(RunContext& ctx, FitSpec spec)
      : ctx_(ctx), spec_(std::move(spec)), threads_(BenchThreads()) {}

  void Run() {
    SetUp();
    Reference();
    WarmUp();
    if (ctx_.args.trace) {
      TracedLoop();
    } else {
      TimedLoop();
      ctx_.report.Set("peak_rss_mb", PeakRssMb(), "MB", 1);
    }
    std::error_code ignored;
    for (const FitData& d : data_) {
      std::filesystem::remove(d.train_segment, ignored);
      std::filesystem::remove(d.test_segment, ignored);
    }
  }

 private:
  /// A split's reference fingerprint and labels.
  struct SplitReference {
    uint64_t fingerprint = 0;
    std::vector<int> labels;
  };

  /// A split's train and test views: the in-RAM split, or (store_scan)
  /// freshly opened segments under their budgets.
  struct Views {
    std::unique_ptr<store::ColumnarStore> train_store, test_store;
    const ips::DatasetView* train = nullptr;
    const ips::DatasetView* test = nullptr;
  };

  // ----------------------------------------------------------- set-up

  /// Generates every split (and writes its segments) several times; the
  /// median is setup_s and the last repeat's products are used.
  void SetUp() {
    constexpr int kRepeats = 5;
    std::vector<double> setup_s;
    std::vector<double> write_s;
    std::vector<double> write_mb_per_s;
    for (int r = 0; r < kRepeats; ++r) {
      const Clock::time_point start = Clock::now();
      data_.assign(kDatasets, FitData{});
      double seconds = 0.0;
      double mb = 0.0;
      for (size_t k = 0; k < kDatasets; ++k) {
        FitData& d = data_[k];
        ips::GeneratorSpec gen = spec_.data;
        gen.seed = DatasetSeed(ctx_.args.seed, k);
        d.split = ips::GenerateDataset(gen);
        if (!spec_.store) continue;
        const std::string stem = ctx_.args.work_dir + "/" + std::to_string(k);
        d.train_segment = stem + "-train.ips";
        d.test_segment = stem + "-test.ips";
        const Clock::time_point write_start = Clock::now();
        d.train_budget = WriteSegment(d.split.train, d.train_segment);
        d.test_budget = WriteSegment(d.split.test, d.test_segment);
        seconds += SecondsSince(write_start);
        mb += static_cast<double>(std::filesystem::file_size(d.train_segment) +
                                  std::filesystem::file_size(d.test_segment)) /
              (1 << 20);
      }
      if (spec_.store) {
        write_s.push_back(seconds);
        write_mb_per_s.push_back(mb / seconds);
      }
      setup_s.push_back(SecondsSince(start));
    }
    ctx_.report.SetMedian("setup_s", setup_s, "s");
    if (spec_.store) {
      ctx_.report.SetMedian("store.write.s", write_s, "s");
      ctx_.report.SetMedian("store.write.mb_per_s", write_mb_per_s, "MB/s");
    }
  }

  /// The reference a split's later fits are held to: its first 1-thread
  /// fit in the process, always over the in-RAM split. It is also the
  /// split's first predicting model.
  void Reference() {
    size_t shapelets = 0;
    for (size_t k = 0; k < kDatasets; ++k) {
      ips::IpsOptions options = spec_.options;
      options.num_threads = 1;
      auto model = std::make_unique<ips::IpsClassifier>(options);
      model->Fit(data_[k].split.train);
      refs_.push_back(
          SplitReference{ShapeletFingerprint(model->shapelets()),
                         model->PredictBatch(data_[k].split.test)});
      shapelets += model->shapelets().size();
      predictors_.push_back(std::move(model));
    }
    ctx_.report.details().Set("datasets", kDatasets);
    ctx_.report.details().Set("reference_shapelets", shapelets);
  }

  /// Untimed T-thread fits of every split and predict samples that start
  /// the thread pool and fill the arenas and the page cache. Gated like
  /// every other operation.
  void WarmUp() {
    for (size_t k = 0; k < kDatasets; ++k) FitSplit(k, threads_);
    for (int r = 0; r < 2; ++r) {
      std::vector<Views> tests = OpenTests();
      PredictSample(tests);
    }
  }

  // ----------------------------------------------------- measurements

  Views OpenViews(size_t k) const {
    const FitData& d = data_[k];
    Views v;
    if (spec_.store) {
      v.train_store = OpenSegment(d.train_segment, d.train_budget);
      v.test_store = OpenSegment(d.test_segment, d.test_budget);
      v.train = v.train_store.get();
      v.test = v.test_store.get();
    } else {
      v.train = &d.split.train;
      v.test = &d.split.test;
    }
    return v;
  }

  std::vector<Views> OpenTests() const {
    std::vector<Views> tests;
    for (size_t k = 0; k < kDatasets; ++k) tests.push_back(OpenViews(k));
    return tests;
  }

  /// Gates a store-backed view pair's residency against its budgets.
  void GateResidency(const Views& v) {
    if (!spec_.store) return;
    ctx_.gate.Check(
        v.train_store->resident_high_water() <=
                v.train_store->budget_bytes() &&
            v.test_store->resident_high_water() <= v.test_store->budget_bytes(),
        "store residency over budget");
  }

  /// One timed Fit of split `k` at `threads`, gated against the split's
  /// reference. A 1-thread fit becomes the split's predicting model.
  double FitSplit(size_t k, size_t threads) {
    const Views v = OpenViews(k);
    ips::IpsOptions options = spec_.options;
    options.num_threads = threads;
    auto model = std::make_unique<ips::IpsClassifier>(options);
    const Clock::time_point start = Clock::now();
    model->Fit(*v.train);
    const double seconds = SecondsSince(start);
    GateResidency(v);
    GateShapelets(k, ShapeletFingerprint(model->shapelets()), threads);
    if (threads == 1) predictors_[k] = std::move(model);
    return seconds;
  }

  /// PredictBatch of every split's model over its test view (at 1
  /// thread), each gated against the split's reference labels. Returns
  /// the summed seconds and adds the mean accuracy to `accuracy`.
  double PredictSample(const std::vector<Views>& tests,
                       std::vector<double>* accuracy = nullptr) {
    double seconds = 0.0;
    double right = 0.0;
    for (size_t k = 0; k < kDatasets; ++k) {
      const Clock::time_point start = Clock::now();
      const std::vector<int> labels =
          predictors_[k]->PredictBatch(*tests[k].test);
      seconds += SecondsSince(start);
      GateLabels(k, labels);
      right += Accuracy(labels, data_[k].split.test);
    }
    for (const Views& v : tests) GateResidency(v);
    if (accuracy != nullptr) accuracy->push_back(right / kDatasets);
    return seconds;
  }

  void GateShapelets(size_t k, uint64_t fingerprint, size_t threads) {
    const std::string where = threads == 1 ? "1-thread" : "T-thread";
    const std::string what = spec_.store ? "store-backed " : "";
    ctx_.gate.Check(fingerprint == refs_[k].fingerprint,
                    what + where + " fit shapelets differ from reference");
  }

  void GateLabels(size_t k, const std::vector<int>& labels) {
    const std::string what = spec_.store ? "store-backed " : "";
    ctx_.gate.Check(labels == refs_[k].labels,
                    what + "PredictBatch labels differ from reference");
  }

  /// Rounds of a 1-thread and a T-thread fit of one split (the splits in
  /// turn, the order of the two flipped on every visit to a split), each
  /// followed by predict samples over every split.
  void TimedLoop() {
    const Clock::time_point start = Clock::now();
    size_t test_series = 0;
    for (const FitData& d : data_) test_series += d.split.test.size();
    std::vector<double> fit_s, fit_serial_s, predict_s, accuracy;
    for (size_t round = 0;
         round < 3 || SecondsSince(start) < ctx_.args.seconds; ++round) {
      const size_t k = round % kDatasets;
      const bool serial_first = (round / kDatasets + k) % 2 == 0;
      for (const bool serial : {serial_first, !serial_first}) {
        const double seconds = FitSplit(k, serial ? 1 : threads_);
        (serial ? fit_serial_s : fit_s).push_back(seconds);
      }
      const std::vector<Views> tests = OpenTests();
      for (int r = 0; r < kPredictRepeats; ++r) {
        predict_s.push_back(PredictSample(tests, &accuracy));
      }
    }
    ctx_.report.SetMedian("fit_s", fit_s, "s");
    ctx_.report.SetMedian("fit_serial_s", fit_serial_s, "s");
    ctx_.report.SetThroughput("predict_series_per_s",
                              static_cast<double>(test_series), predict_s,
                              "series/s");
    ctx_.report.SetMedian("accuracy", accuracy, "fraction");
  }

  // ------------------------------------------------------ traced run

  /// Alternates a plain T-thread Fit (for the overhead baseline) with the
  /// traced rebuild of the same fit, the splits in turn, and reports
  /// per-layer medians.
  void TracedLoop() {
    const Clock::time_point start = Clock::now();
    ips::IpsOptions options = spec_.options;
    options.num_threads = threads_;
    std::vector<double> fit_s;
    std::map<std::string, std::vector<double>> samples;
    for (size_t round = 0;
         round < 3 || SecondsSince(start) < ctx_.args.seconds; ++round) {
      const size_t k = round % kDatasets;
      fit_s.push_back(FitSplit(k, threads_));
      const ips::obs::MetricsSnapshot before =
          ips::obs::MetricsRegistry::Instance().Snapshot();
      const int span = ctx_.spans.Open("open_views", -1);
      const Views v = OpenViews(k);
      const double open_s = ctx_.spans.Close(span);
      const TracedFit traced = RunTracedFit(options, *v.train, *v.test,
                                            ctx_.spans);
      GateShapelets(k, ShapeletFingerprint(traced.shapelets), threads_);
      GateLabels(k, traced.labels);
      for (const auto& [name, value] : traced.layer) {
        samples[name].push_back(value);
      }
      if (spec_.store) {
        const ips::obs::MetricsSnapshot after =
            ips::obs::MetricsRegistry::Instance().Snapshot();
        GateResidency(v);
        const store::ColumnarStore& train = *v.train_store;
        const store::ColumnarStore& test = *v.test_store;
        const double loads =
            static_cast<double>(train.chunk_loads() + test.chunk_loads());
        const double hits =
            static_cast<double>(train.chunk_hits() + test.chunk_hits());
        samples["store.open.s"].push_back(open_s);
        samples["store.chunk_loads"].push_back(loads);
        samples["store.chunk_evictions"].push_back(static_cast<double>(
            train.chunk_evictions() + test.chunk_evictions()));
        samples["store.hit_ratio"].push_back(Ratio(hits, hits + loads));
        samples["store.bytes_loaded_mb"].push_back(
            static_cast<double>(
                CounterDelta(before, after, "store.bytes_loaded")) /
            (1 << 20));
        samples["store.resident_peak_mb"].push_back(
            static_cast<double>(std::max(train.resident_high_water(),
                                         test.resident_high_water())) /
            (1 << 20));
        samples["store.sidecar_served"].push_back(static_cast<double>(
            CounterDelta(before, after, "store.sidecar_stats") +
            CounterDelta(before, after, "store.sidecar_energies")));
      }
    }
    const std::map<std::string, std::string> units = [] {
      std::map<std::string, std::string> m;
      for (const MetricDef& def : PerLayerMetrics()) m[def.name] = def.unit;
      return m;
    }();
    for (const auto& [name, values] : samples) {
      ctx_.report.SetMedian(name, values, units.at(name));
    }
    ctx_.report.Set("trace.overhead_s",
                    Median(samples.at("trace.fit_wall_s")) - Median(fit_s),
                    "s", fit_s.size());
    ctx_.report.details().Set("untraced_fit_s", Median(fit_s));
  }

  RunContext& ctx_;
  const FitSpec spec_;
  const size_t threads_;
  std::vector<FitData> data_;
  std::vector<SplitReference> refs_;
  /// Per split, the latest 1-thread fit: the model predict samples use.
  std::vector<std::unique_ptr<ips::IpsClassifier>> predictors_;
};

}  // namespace

bool IsFitWorkload(const std::string& name) {
  return name == "fit_profile" || name == "fit_exact" || name == "store_scan";
}

void RunFitWorkload(RunContext& ctx) {
  FitRunner(ctx, MakeFitSpec(ctx.args.workload)).Run();
}

}  // namespace perfbench
