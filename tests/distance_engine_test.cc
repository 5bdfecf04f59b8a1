#include "core/distance_engine.h"

#include <cmath>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/rng.h"
#include "data/generator.h"
#include "obs/metrics.h"
#include "transform/shapelet_transform.h"

namespace ips {
namespace {

std::vector<double> RandomSeries(Rng& rng, size_t n) {
  std::vector<double> s(n);
  for (double& v : s) v = rng.Uniform(-2.0, 2.0);
  return s;
}

Dataset SyntheticData(const char* name, size_t train_size, size_t length) {
  GeneratorSpec spec;
  spec.name = name;
  spec.num_classes = 2;
  spec.train_size = train_size;
  spec.test_size = 2;
  spec.length = length;
  return GenerateDataset(spec).train;
}

// The engine's counts live in the metrics registry only; tests read the
// delta across the calls they cover.
struct EngineCounts {
  uint64_t profiles = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

EngineCounts CountsSince(const obs::MetricsSnapshot& before) {
  const obs::MetricsSnapshot d =
      obs::MetricsRegistry::Instance().DeltaSince(before);
  return {d.CounterValue("engine.profiles_computed"),
          d.CounterValue("engine.stats_cache_hits"),
          d.CounterValue("engine.stats_cache_misses")};
}

obs::MetricsSnapshot Now() {
  return obs::MetricsRegistry::Instance().Snapshot();
}

// ---------------------------------------------------------------- single pair

TEST(DistanceEngineTest, SubsequenceMinMatchesKernelBitwise) {
  Rng rng(7);
  DistanceEngine engine(1);
  for (const auto& [m, n] : std::vector<std::pair<size_t, size_t>>{
           {1, 1}, {5, 5}, {8, 31}, {31, 8}, {63, 200}, {64, 64}}) {
    const std::vector<double> a = RandomSeries(rng, m);
    const std::vector<double> b = RandomSeries(rng, n);
    EXPECT_EQ(engine.SubsequenceMinMetric(a, b,
                                          MetricId::kRawSquaredEuclidean),
              SubsequenceDistance(a, b))
        << m << "x" << n;
  }
}

TEST(DistanceEngineTest, SubsequenceMinFftPathMatchesKernelBitwise) {
  Rng rng(11);
  // Long query over a long series forces the FFT sliding-product path
  // (m >= kFftCutoff and the cost model prefers n log n).
  const std::vector<double> query = RandomSeries(rng, 512);
  const std::vector<double> series = RandomSeries(rng, 4096);
  const double expected = SubsequenceDistance(query, series);

  DistanceEngine engine(1);
  EXPECT_EQ(engine.SubsequenceMinMetric(query, series,
                                        MetricId::kRawSquaredEuclidean),
            expected);
  // Within one batch call the FFT/prefix artefacts are cached: the first
  // pair fills, the second hits.
  const std::vector<std::span<const double>> views = {query, series};
  const obs::MetricsSnapshot before = Now();
  EXPECT_EQ(engine.MinForPairs(views, {{0, 1}, {0, 1}}),
            std::vector<double>({expected, expected}));
  EXPECT_GT(CountsSince(before).cache_hits, 0u);
}

TEST(DistanceEngineTest, SubsequenceMinZNormMatchesKernelBitwise) {
  Rng rng(13);
  DistanceEngine engine(1);
  for (const auto& [m, n] : std::vector<std::pair<size_t, size_t>>{
           {4, 24}, {16, 16}, {24, 4}, {80, 640}}) {
    const std::vector<double> a = RandomSeries(rng, m);
    const std::vector<double> b = RandomSeries(rng, n);
    EXPECT_EQ(engine.SubsequenceMinMetric(a, b, MetricId::kZNormEuclidean),
              SubsequenceDistanceZNorm(a, b))
        << m << "x" << n;
  }
}

TEST(DistanceEngineTest, ZNormHandlesFlatWindows) {
  DistanceEngine engine(1);
  const std::vector<double> flat(8, 3.0);
  const std::vector<double> mixed{0, 0, 0, 0, 0, 0, 0, 0, 1, 5, -2, 4,
                                  1, 2, 3, 4};
  const MetricId zn = MetricId::kZNormEuclidean;
  EXPECT_EQ(engine.SubsequenceMinMetric(flat, mixed, zn),
            SubsequenceDistanceZNorm(flat, mixed));
  EXPECT_EQ(engine.SubsequenceMinMetric(mixed, flat, zn),
            SubsequenceDistanceZNorm(mixed, flat));
  EXPECT_EQ(engine.SubsequenceMinMetric(flat, flat, zn),
            SubsequenceDistanceZNorm(flat, flat));
}

// -------------------------------------------------------------------- batched

TEST(DistanceEngineTest, TransformBatchWithLongShapeletMatchesSerialLoop) {
  // A shapelet longer than every series: the engine swaps the roles, as
  // the serial kernels do.
  const Dataset train = SyntheticData("engine-min", 9, 80);
  Rng rng(23);
  Subsequence query;
  query.values = RandomSeries(rng, 120);
  DistanceEngine engine(2);
  const auto raw =
      engine.TransformBatch(train, {query}, MetricId::kRawSquaredEuclidean);
  const auto zn =
      engine.TransformBatch(train, {query}, MetricId::kZNormEuclidean);
  ASSERT_EQ(raw.size(), train.size());
  for (size_t i = 0; i < train.size(); ++i) {
    EXPECT_EQ(raw[i][0], SubsequenceDistance(query.view(), train[i].view()))
        << i;
    EXPECT_EQ(zn[i][0],
              SubsequenceDistanceZNorm(query.view(), train[i].view()))
        << i;
  }
}

TEST(DistanceEngineTest, PairwiseMatrixMatchesNestedLoops) {
  const Dataset train = SyntheticData("engine-pairwise", 6, 72);
  std::vector<Subsequence> cands;
  for (size_t i = 0; i < train.size(); ++i) {
    cands.push_back(ExtractSubsequence(train[i], i, 20 + (i % 3)));
  }
  const size_t n = cands.size();

  for (const size_t threads : {1u, 2u, 8u}) {
    DistanceEngine engine(threads);
    const std::vector<double> sym = engine.PairwiseSubsequenceMin(cands);
    const std::vector<double> naive =
        engine.PairwiseSubsequenceMin(cands, /*symmetric=*/false);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        const double expected =
            i == j ? 0.0
                   : SubsequenceDistance(cands[i].view(), cands[j].view());
        EXPECT_EQ(sym[i * n + j], expected) << i << "," << j;
        EXPECT_EQ(naive[i * n + j], expected) << i << "," << j;
      }
    }
  }
}

TEST(DistanceEngineTest, TransformBatchMatchesTransformSeriesBitwise) {
  const Dataset train = SyntheticData("engine-transform", 10, 64);
  std::vector<Subsequence> shapelets;
  for (size_t i = 0; i < 4; ++i) {
    shapelets.push_back(ExtractSubsequence(train[i], i, 12));
  }
  for (const MetricId metric :
       {MetricId::kRawSquaredEuclidean, MetricId::kZNormEuclidean,
        MetricId::kEuclidean, MetricId::kCosine}) {
    DistanceEngine engine(2);
    const auto rows = engine.TransformBatch(train, shapelets, metric);
    ASSERT_EQ(rows.size(), train.size());
    for (size_t i = 0; i < train.size(); ++i) {
      EXPECT_EQ(rows[i], TransformSeries(train[i], shapelets, metric)) << i;
    }
  }
}

TEST(DistanceEngineTest, BatchedResultsIdenticalAcrossThreadCounts) {
  const Dataset train = SyntheticData("engine-threads", 12, 100);
  std::vector<Subsequence> cands;
  for (size_t i = 0; i < train.size(); ++i) {
    cands.push_back(ExtractSubsequence(train[i], 2 * i, 16 + (i % 5)));
  }
  DistanceEngine serial(1);
  const auto pair_base = serial.PairwiseSubsequenceMin(cands);
  const auto rows_base =
      serial.TransformBatch(train, cands, MetricId::kZNormEuclidean);
  for (const size_t threads : {2u, 8u}) {
    DistanceEngine engine(threads);
    EXPECT_EQ(engine.PairwiseSubsequenceMin(cands), pair_base);
    EXPECT_EQ(engine.TransformBatch(train, cands, MetricId::kZNormEuclidean),
              rows_base);
  }
}

// ------------------------------------------------------------ instrumentation

TEST(DistanceEngineTest, CountersTrackProfilesAndCacheTraffic) {
  Rng rng(29);
  const std::vector<double> a = RandomSeries(rng, 16);
  const std::vector<double> b = RandomSeries(rng, 128);
  const std::vector<double> c = RandomSeries(rng, 128);
  const std::vector<std::span<const double>> views = {a, b, c};
  const std::vector<IndexPair> pairs = {{0, 1}, {0, 2}};
  DistanceEngine engine(1);
  const obs::MetricsSnapshot start = Now();
  EXPECT_EQ(CountsSince(start).profiles, 0u);

  // Single-pair calls cache nothing.
  engine.SubsequenceMinMetric(a, b, MetricId::kRawSquaredEuclidean);
  const EngineCounts single = CountsSince(start);
  EXPECT_EQ(single.profiles, 1u);
  EXPECT_EQ(single.cache_misses, 0u);
  EXPECT_EQ(single.cache_hits, 0u);

  // Within a batch call, the second pair reuses the query's artefacts.
  engine.MinForPairs(views, pairs);
  const EngineCounts first = CountsSince(start);
  EXPECT_EQ(first.profiles, 3u);
  EXPECT_GT(first.cache_misses, 0u);
  EXPECT_GT(first.cache_hits, 0u);

  // Nothing survives the call: a repeat recomputes exactly as much.
  engine.MinForPairs(views, pairs);
  const EngineCounts second = CountsSince(start);
  EXPECT_EQ(second.profiles, 5u);
  EXPECT_EQ(second.cache_misses, 2 * first.cache_misses);
  EXPECT_EQ(second.cache_hits, 2 * first.cache_hits);
}

// ------------------------------------------------------------ threaded stress

// Several threads hammer one shared engine with batched APIs while others
// run the raw kernels on the same data; every thread must observe results
// bitwise identical to the serial baselines. Run under
// -fsanitize=thread in CI (the IPS_SANITIZE build) to catch data races.
TEST(DistanceEngineStressTest, ConcurrentBatchesMatchSerialBitwise) {
  const Dataset train = SyntheticData("engine-stress", 10, 128);
  std::vector<Subsequence> cands;
  for (size_t i = 0; i < train.size(); ++i) {
    cands.push_back(ExtractSubsequence(train[i], i, 24));
  }

  DistanceEngine baseline(1);
  const auto pair_base = baseline.PairwiseSubsequenceMin(cands);
  const auto rows_base =
      baseline.TransformBatch(train, cands, MetricId::kRawSquaredEuclidean);
  Rng rng(31);
  const std::vector<double> query = RandomSeries(rng, 32);

  DistanceEngine shared(2);
  std::atomic<int> mismatches{0};
  auto check = [&](bool ok) {
    if (!ok) mismatches.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 4; ++iter) {
        check(shared.PairwiseSubsequenceMin(cands) == pair_base);
        check(shared.TransformBatch(train, cands, MetricId::kRawSquaredEuclidean) ==
              rows_base);
        check(shared.TransformOne(train[0].view(), cands,
                                  MetricId::kRawSquaredEuclidean) ==
              rows_base[0]);
      }
    });
  }
  // Raw-kernel threads sharing the same underlying buffers.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 4; ++iter) {
        for (size_t i = 0; i < cands.size(); ++i) {
          check(SubsequenceDistance(query, cands[i].view()) ==
                shared.SubsequenceMinMetric(query, cands[i].view(),
                                            MetricId::kRawSquaredEuclidean));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// MinForPairs keeps nothing between calls: views are often temporaries
// (pool.AllOfClass copies) whose storage the next call reuses at the same
// address and length. Rewriting the buffers in place between two calls
// on one engine must give the distances of the NEW values.
TEST(DistanceEngineStorageReuseTest, MinForPairsSeesRewrittenStorage) {
  Rng rng(97);
  std::vector<double> query(12);
  std::vector<double> series(70);
  const std::vector<std::span<const double>> views = {query, series};
  const std::vector<IndexPair> pairs = {{0, 1}, {1, 0}, {0, 0}, {1, 1}};
  for (size_t m = 0; m < kMetricCount; ++m) {
    const MetricId metric = static_cast<MetricId>(m);
    DistanceEngine engine(2);
    for (int round = 0; round < 3; ++round) {
      const std::vector<double> q = RandomSeries(rng, query.size());
      const std::vector<double> s = RandomSeries(rng, series.size());
      std::copy(q.begin(), q.end(), query.begin());
      std::copy(s.begin(), s.end(), series.begin());
      const std::vector<double> dists =
          engine.MinForPairs(views, pairs, metric);
      for (size_t t = 0; t < pairs.size(); ++t) {
        EXPECT_EQ(dists[t],
                  SubsequenceDistanceMetric(views[pairs[t].first],
                                            views[pairs[t].second], metric))
            << MetricName(metric) << " round " << round << " pair " << t;
      }
    }
  }
}

// A dataset view over caller-owned buffers, so a test can rewrite the
// values in place (same addresses, same lengths) between calls.
class BufferView final : public DatasetView {
 public:
  explicit BufferView(const std::vector<std::vector<double>>& buffers)
      : buffers_(buffers) {}
  size_t size() const override { return buffers_.size(); }
  SeriesView At(size_t i) const override {
    return SeriesView(buffers_[i], static_cast<int>(i % 2));
  }

 private:
  const std::vector<std::vector<double>>& buffers_;
};

// The transform keeps nothing between calls either: a caller-held engine
// transforming series and shapelet storage that is rewritten in place
// between calls must see the new values. Shapelet lengths cover the naive
// and the FFT sliding-dots regimes.
TEST(DistanceEngineStorageReuseTest, TransformSeesRewrittenStorage) {
  Rng rng(101);
  std::vector<std::vector<double>> series(4, std::vector<double>(1100));
  const BufferView data(series);
  std::vector<Subsequence> shapelets(3);
  shapelets[0].values.resize(9);
  shapelets[1].values.resize(24);
  shapelets[2].values.resize(600);
  for (size_t m = 0; m < kMetricCount; ++m) {
    const MetricId metric = static_cast<MetricId>(m);
    DistanceEngine engine(2);
    for (int round = 0; round < 2; ++round) {
      for (std::vector<double>& s : series) {
        const std::vector<double> v = RandomSeries(rng, s.size());
        std::copy(v.begin(), v.end(), s.begin());
      }
      for (Subsequence& s : shapelets) {
        const std::vector<double> v = RandomSeries(rng, s.length());
        std::copy(v.begin(), v.end(), s.values.begin());
      }
      const TransformedData batch =
          ShapeletTransform(data, shapelets, metric, 2, &engine);
      for (size_t i = 0; i < series.size(); ++i) {
        const std::vector<double> one =
            engine.TransformOne(series[i], shapelets, metric);
        for (size_t s = 0; s < shapelets.size(); ++s) {
          const double expected =
              SubsequenceDistanceMetric(series[i], shapelets[s].view(),
                                        metric);
          EXPECT_EQ(batch.features[i][s], expected)
              << MetricName(metric) << " round " << round << " series " << i
              << " shapelet " << s;
          EXPECT_EQ(one[s], expected)
              << MetricName(metric) << " round " << round << " series " << i
              << " shapelet " << s << " (TransformOne)";
        }
      }
    }
  }
}

}  // namespace
}  // namespace ips
