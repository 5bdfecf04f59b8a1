#include "ips/pipeline.h"

#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"

namespace ips {
namespace {

TrainTestSplit MakeData(const std::string& name, int classes = 2,
                        size_t train = 16, size_t test = 40,
                        size_t length = 80) {
  GeneratorSpec spec;
  spec.name = name;
  spec.num_classes = classes;
  spec.train_size = train;
  spec.test_size = test;
  spec.length = length;
  return GenerateDataset(spec);
}

IpsOptions FastOptions() {
  IpsOptions o;
  o.sample_count = 5;
  o.sample_size = 3;
  o.length_ratios = {0.2, 0.3};
  o.shapelets_per_class = 3;
  return o;
}

TEST(DiscoverShapeletsTest, ProducesRequestedCount) {
  const TrainTestSplit data = MakeData("pipe1");
  const RunResult result = DiscoverShapelets(data.train, FastOptions());
  EXPECT_GT(result.shapelets.size(), 0u);
  EXPECT_LE(result.shapelets.size(), 3u * 2u);
  EXPECT_EQ(result.stats.shapelets, result.shapelets.size());
}

TEST(DiscoverShapeletsTest, StatsArePopulated) {
  const TrainTestSplit data = MakeData("pipe2");
  const IpsRunStats stats = DiscoverShapelets(data.train, FastOptions()).stats;
  EXPECT_GT(stats.motifs_generated, 0u);
  EXPECT_GT(stats.discords_generated, 0u);
  EXPECT_GE(stats.motifs_generated, stats.motifs_after_prune);
  EXPECT_GE(stats.candidate_gen_seconds, 0.0);
  EXPECT_GT(stats.TotalDiscoverySeconds(), 0.0);
}

TEST(DiscoverShapeletsTest, TraceCoversEveryStage) {
  const TrainTestSplit data = MakeData("pipe2b");
  const RunResult result = DiscoverShapelets(data.train, FastOptions());
  // Bare discovery roots at "discover"; classifier-only stages are absent.
  EXPECT_NE(result.trace.Find("discover"), nullptr);
  EXPECT_EQ(result.trace.LeafCount("candidate_gen"), 1u);
  EXPECT_EQ(result.trace.LeafCount("instance_profile"), 1u);
  EXPECT_EQ(result.trace.LeafCount("pruning"), 1u);
  EXPECT_EQ(result.trace.LeafCount("selection"), 1u);
  EXPECT_EQ(result.trace.LeafCount("transform"), 0u);
  EXPECT_EQ(result.trace.LeafCount("backend_fit"), 0u);
  // The stats view is the same trace by leaf name.
  EXPECT_DOUBLE_EQ(result.stats.candidate_gen_seconds,
                   result.trace.LeafSeconds("candidate_gen"));
}

TEST(DiscoverShapeletsTest, RecordsRunMetricInResult) {
  const TrainTestSplit data = MakeData("pipe2c");
  const RunResult default_run = DiscoverShapelets(data.train, FastOptions());
  EXPECT_EQ(default_run.metric, MetricId::kZNormEuclidean);

  IpsOptions options = FastOptions();
  options.metric = MetricId::kCosine;
  const RunResult cosine_run = DiscoverShapelets(data.train, options);
  EXPECT_EQ(cosine_run.metric, MetricId::kCosine);
  EXPECT_GT(cosine_run.shapelets.size(), 0u);
}

TEST(DiscoverShapeletsTest, ShapeletsComeFromTrainingSet) {
  const TrainTestSplit data = MakeData("pipe3");
  const auto shapelets = DiscoverShapelets(data.train, FastOptions()).shapelets;
  for (const Subsequence& s : shapelets) {
    ASSERT_GE(s.series_index, 0);
    ASSERT_LT(static_cast<size_t>(s.series_index), data.train.size());
    const TimeSeries& src = data.train[static_cast<size_t>(s.series_index)];
    EXPECT_EQ(src.label, s.label);
    for (size_t i = 0; i < s.length(); ++i) {
      EXPECT_DOUBLE_EQ(s.values[i], src.values[s.start + i]);
    }
  }
}

TEST(DiscoverShapeletsTest, DeterministicForSameSeed) {
  const TrainTestSplit data = MakeData("pipe4");
  const auto a = DiscoverShapelets(data.train, FastOptions()).shapelets;
  const auto b = DiscoverShapelets(data.train, FastOptions()).shapelets;
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].values, b[i].values);
}

TEST(DiscoverShapeletsTest, AllUtilityModesWork) {
  const TrainTestSplit data = MakeData("pipe5");
  for (UtilityMode mode : {UtilityMode::kExactNaive, UtilityMode::kExactWithCr,
                           UtilityMode::kDtCr}) {
    IpsOptions o = FastOptions();
    o.utility_mode = mode;
    EXPECT_GT(DiscoverShapelets(data.train, o).shapelets.size(), 0u);
  }
}

TEST(DiscoverShapeletsTest, NaivePruningWorks) {
  const TrainTestSplit data = MakeData("pipe6");
  IpsOptions o = FastOptions();
  o.use_dabf_pruning = false;
  EXPECT_GT(DiscoverShapelets(data.train, o).shapelets.size(), 0u);
}

TEST(IpsClassifierTest, BeatsChanceOnSeparableData) {
  const TrainTestSplit data = MakeData("pipe7", 2, 20, 60, 80);
  IpsClassifier clf(FastOptions());
  clf.Fit(data.train);
  const double accuracy = clf.Accuracy(data.test);
  EXPECT_GT(accuracy, 0.65) << "accuracy " << accuracy;
}

TEST(IpsClassifierTest, MulticlassSupported) {
  const TrainTestSplit data = MakeData("pipe8", 3, 24, 60, 80);
  IpsClassifier clf(FastOptions());
  clf.Fit(data.train);
  EXPECT_GT(clf.Accuracy(data.test), 1.0 / 3.0 + 0.1);
}

TEST(IpsClassifierTest, ShapeletsAccessibleAfterFit) {
  const TrainTestSplit data = MakeData("pipe9");
  IpsClassifier clf(FastOptions());
  clf.Fit(data.train);
  EXPECT_FALSE(clf.shapelets().empty());
  EXPECT_EQ(&clf.shapelets(), &clf.result().shapelets);
  EXPECT_GT(clf.result().stats.TotalDiscoverySeconds(), 0.0);
  // Fit's window covers the classifier-only stages too, nested under "fit".
  EXPECT_NE(clf.result().trace.Find("fit"), nullptr);
  EXPECT_NE(clf.result().trace.Find("fit/discover"), nullptr);
  EXPECT_EQ(clf.result().trace.LeafCount("transform"), 1u);
  EXPECT_EQ(clf.result().trace.LeafCount("backend_fit"), 1u);
}

TEST(IpsClassifierTest, PredictBatchMatchesPredictLoopAtEveryThreadCount) {
  const TrainTestSplit data = MakeData("pipe10", 2, 20, 48, 80);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    IpsOptions o = FastOptions();
    o.num_threads = threads;
    IpsClassifier clf(o);
    clf.Fit(data.train);

    std::vector<int> loop(data.test.size());
    for (size_t i = 0; i < data.test.size(); ++i) {
      loop[i] = clf.Predict(data.test[i]);
    }
    const std::vector<int> batch = clf.PredictBatch(data.test);
    ASSERT_EQ(batch.size(), loop.size()) << "threads=" << threads;
    for (size_t i = 0; i < loop.size(); ++i) {
      EXPECT_EQ(batch[i], loop[i]) << "threads=" << threads << " series " << i;
    }
  }
}

TEST(IpsClassifierTest, PredictBatchIsDeterministicAcrossThreadCounts) {
  const TrainTestSplit data = MakeData("pipe11", 3, 24, 36, 80);
  IpsClassifier clf(FastOptions());
  clf.Fit(data.train);
  const std::vector<int> base = clf.PredictBatch(data.test);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    IpsOptions o = FastOptions();
    o.num_threads = threads;
    IpsClassifier threaded(o);
    threaded.Fit(data.train);
    EXPECT_EQ(threaded.PredictBatch(data.test), base)
        << "threads=" << threads;
  }
}

TEST(IpsClassifierTest, AccuracyRoutesThroughPredictBatch) {
  const TrainTestSplit data = MakeData("pipe12", 2, 20, 40, 80);
  IpsClassifier clf(FastOptions());
  clf.Fit(data.train);
  const std::vector<int> batch = clf.PredictBatch(data.test);
  size_t correct = 0;
  for (size_t i = 0; i < data.test.size(); ++i) {
    if (batch[i] == data.test[i].label) ++correct;
  }
  const double expected =
      static_cast<double>(correct) / static_cast<double>(data.test.size());
  EXPECT_DOUBLE_EQ(clf.Accuracy(data.test), expected);
}

// Naive pruning and exact utility scoring batch their distances through
// MinForPairs over temporary candidate copies. A second Fit in the same
// process reuses freed storage at the same addresses, which must not
// change what the fit discovers.
TEST(IpsClassifierTest, RepeatExactFitsDiscoverTheSameShapelets) {
  const TrainTestSplit data = MakeData("pipe_exact_refit", 3, 30, 6, 96);
  IpsOptions o = FastOptions();
  o.use_dabf_pruning = false;
  o.utility_mode = UtilityMode::kExactWithCr;
  IpsClassifier first(o);
  first.Fit(data.train);
  for (int rep = 0; rep < 3; ++rep) {
    IpsClassifier again(o);
    again.Fit(data.train);
    ASSERT_EQ(first.shapelets().size(), again.shapelets().size());
    for (size_t i = 0; i < first.shapelets().size(); ++i) {
      EXPECT_EQ(first.shapelets()[i].values, again.shapelets()[i].values)
          << "rep " << rep << " shapelet " << i;
    }
  }
}

}  // namespace
}  // namespace ips
