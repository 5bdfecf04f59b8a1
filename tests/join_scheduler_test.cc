// Bitwise-identity suite for the tiled all-pairs join scheduler
// (docs/memory.md): every combination of {tile width} x {thread count}
// must reproduce the reference EXACTLY -- the scheduler reorders work and
// reuses memory, it never changes arithmetic. The reference is the serial
// AbJoinProfile kernel in both directions for the z-normalised metric, and
// a 1-thread, untiled engine for the others (the serial kernels are
// z-normalised only). The CI fingerprint diff holds end-to-end discovery
// to the same bar; this suite pins the engine layer directly, including
// the FFT-seed regime and every registered metric.

#include "matrix_profile/mp_engine.h"

#include <cstdint>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/metric.h"
#include "core/rng.h"
#include "matrix_profile/matrix_profile.h"
#include "matrix_profile/stomp_common.h"

namespace ips {
namespace {

std::vector<double> RandomWalk(Rng& rng, size_t n) {
  std::vector<double> out(n);
  double x = 0.0;
  for (auto& v : out) {
    x += rng.Uniform() - 0.5;
    v = x;
  }
  return out;
}

std::vector<std::vector<double>> MakeSeries(uint64_t seed,
                                            std::vector<size_t> lengths) {
  Rng rng(seed);
  std::vector<std::vector<double>> series;
  for (size_t n : lengths) series.push_back(RandomWalk(rng, n));
  return series;
}

std::vector<std::span<const double>> ViewsOf(
    const std::vector<std::vector<double>>& series) {
  return {series.begin(), series.end()};
}

void ExpectJoinsBitwiseEqual(const std::vector<PairJoin>& expected,
                             const std::vector<PairJoin>& actual,
                             const std::string& config) {
  ASSERT_EQ(expected.size(), actual.size()) << config;
  for (size_t t = 0; t < expected.size(); ++t) {
    ASSERT_EQ(expected[t].a, actual[t].a) << config << " pair " << t;
    ASSERT_EQ(expected[t].b, actual[t].b) << config << " pair " << t;
    const auto check = [&](const MatrixProfile& e, const MatrixProfile& a,
                           const char* side) {
      ASSERT_EQ(e.values.size(), a.values.size()) << config;
      for (size_t i = 0; i < e.values.size(); ++i) {
        // Exact equality: scheduling and memory reuse must not perturb a
        // single bit. EXPECT_EQ on doubles is deliberate.
        ASSERT_EQ(e.values[i], a.values[i])
            << config << " pair " << t << " " << side << " value " << i;
        ASSERT_EQ(e.indices[i], a.indices[i])
            << config << " pair " << t << " " << side << " index " << i;
      }
    };
    check(expected[t].a_vs_b, actual[t].a_vs_b, "a_vs_b");
    check(expected[t].b_vs_a, actual[t].b_vs_a, "b_vs_a");
  }
}

std::vector<PairJoin> ReferenceJoins(
    const std::vector<std::span<const double>>& views, size_t window,
    MetricId metric) {
  if (metric != MetricId::kZNormEuclidean) {
    MatrixProfileEngine engine(1);
    engine.set_tile_size(1);
    return engine.JoinAllPairs(views, window, metric);
  }
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

void RunConfigMatrix(const std::vector<std::span<const double>>& views,
                     size_t window, MetricId metric) {
  const std::vector<PairJoin> expected =
      ReferenceJoins(views, window, metric);
  for (size_t tile : {size_t{1}, size_t{2}, size_t{3}, size_t{0}}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      MatrixProfileEngine engine(threads);
      engine.set_tile_size(tile);
      const std::vector<PairJoin> actual =
          engine.JoinAllPairs(views, window, metric);
      const std::string config = "tile=" + std::to_string(tile) +
                                 " threads=" + std::to_string(threads) +
                                 " metric=" + MetricName(metric);
      ExpectJoinsBitwiseEqual(expected, actual, config);
    }
  }
}

TEST(JoinSchedulerTest, ConfigMatrixIsBitwiseIdentical) {
  // Mixed lengths, n = 5 (odd vs every tile width tested above).
  const auto series = MakeSeries(11, {80, 64, 97, 80, 71});
  RunConfigMatrix(ViewsOf(series), /*window=*/12,
                  MetricId::kZNormEuclidean);
}

TEST(JoinSchedulerTest, ConfigMatrixHoldsForEveryRegisteredMetric) {
  const auto series = MakeSeries(13, {60, 72, 55, 66});
  const auto views = ViewsOf(series);
  for (size_t m = 0; m < kMetricCount; ++m) {
    RunConfigMatrix(views, /*window=*/9, static_cast<MetricId>(m));
  }
}

TEST(JoinSchedulerTest, ConfigMatrixHoldsInTheFftSeedRegime) {
  // Sizes past the FFT cost model's crossover (window >= kFftCutoff AND
  // window * len > 14 * padded * log2(padded)): the table build serves the
  // QT seed rows from forward FFTs (the fft_series/fft_query artifacts),
  // the one arithmetic path the short-series cases above never touch.
  ASSERT_TRUE(StompSeedUsesFft(512, 1040));
  const auto series = MakeSeries(17, {1024, 1040});
  RunConfigMatrix(ViewsOf(series), /*window=*/512,
                  MetricId::kZNormEuclidean);
}

TEST(JoinSchedulerTest, TileWiderThanBatchMatches) {
  const auto series = MakeSeries(19, {50, 50, 50});
  const auto views = ViewsOf(series);
  const std::vector<PairJoin> expected =
      ReferenceJoins(views, 8, MetricId::kZNormEuclidean);
  MatrixProfileEngine engine(2);
  engine.set_tile_size(64);  // > n: the tile covers the whole batch
  ExpectJoinsBitwiseEqual(expected, engine.JoinAllPairs(views, 8),
                          "tile=64 n=3");
}

TEST(JoinSchedulerTest, RepeatBatchesIntoSameVectorMatch) {
  const auto series = MakeSeries(23, {70, 85, 64, 90});
  const auto views = ViewsOf(series);
  const std::vector<PairJoin> expected =
      ReferenceJoins(views, 10, MetricId::kZNormEuclidean);

  MatrixProfileEngine engine(2);
  const ArtifactTable table = engine.PrepareAllPairs(views, 10);
  std::vector<PairJoin> joins;
  for (int rep = 0; rep < 3; ++rep) {
    // Capacity reuse across repeats (the serving-loop form) over one
    // caller-held artifact table must not change a bit.
    engine.JoinAllPairsInto(table, joins);
    ExpectJoinsBitwiseEqual(expected, joins,
                            "rep " + std::to_string(rep));
  }
  EXPECT_EQ(engine.counters().table_builds, 1u);
}

TEST(JoinSchedulerTest, PreparedTableIsReusedByTheJoin) {
  const auto series = MakeSeries(29, {60, 75, 80});
  const auto views = ViewsOf(series);
  MatrixProfileEngine engine(2);
  const ArtifactTable table = engine.PrepareAllPairs(views, 11);
  EXPECT_EQ(table.window, 11u);
  EXPECT_EQ(table.views.size(), views.size());
  EXPECT_GT(table.entry_count(), 0u);

  std::vector<PairJoin> joins;
  engine.JoinAllPairsInto(table, joins);
  EXPECT_EQ(engine.counters().table_builds, 1u);  // the explicit prepare
  ExpectJoinsBitwiseEqual(ReferenceJoins(views, 11,
                                         MetricId::kZNormEuclidean),
                          joins, "prepared");

  // A different window is a different table; the held one is untouched.
  const ArtifactTable other = engine.PrepareAllPairs(views, 8);
  EXPECT_EQ(engine.counters().table_builds, 2u);
  EXPECT_EQ(other.window, 8u);
  EXPECT_EQ(table.window, 11u);
  engine.JoinAllPairsInto(table, joins);
  ExpectJoinsBitwiseEqual(ReferenceJoins(views, 11,
                                         MetricId::kZNormEuclidean),
                          joins, "prepared again");
}

TEST(JoinSchedulerTest, SelfJoinAndAbJoinUnaffectedByKnobs) {
  // The ad-hoc entry points bypass the batch scheduler; its knobs must not
  // disturb them.
  const auto series = MakeSeries(31, {90, 76});
  const auto views = ViewsOf(series);
  const MatrixProfile self_e = SelfJoinProfile(views[0], 9, 0);
  const MatrixProfile ab_e = AbJoinProfile(views[0], views[1], 9);

  MatrixProfileEngine engine(2);
  engine.set_tile_size(3);
  engine.set_min_cells_per_chunk(1);
  const MatrixProfile self_a = engine.SelfJoin(views[0], 9, 0);
  const MatrixProfile ab_a = engine.AbJoin(views[0], views[1], 9);
  ASSERT_EQ(self_e.values.size(), self_a.values.size());
  for (size_t i = 0; i < self_e.values.size(); ++i) {
    ASSERT_EQ(self_e.values[i], self_a.values[i]);
    ASSERT_EQ(self_e.indices[i], self_a.indices[i]);
  }
  ASSERT_EQ(ab_e.values.size(), ab_a.values.size());
  for (size_t i = 0; i < ab_e.values.size(); ++i) {
    ASSERT_EQ(ab_e.values[i], ab_a.values[i]);
    ASSERT_EQ(ab_e.indices[i], ab_a.indices[i]);
  }
}

}  // namespace
}  // namespace ips
