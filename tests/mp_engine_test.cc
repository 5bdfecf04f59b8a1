// Bitwise-identity suite for the MatrixProfileEngine: every engine entry
// point must reproduce the serial AbJoinProfile / SelfJoinProfile kernels
// EXACTLY (EXPECT_EQ on doubles, no tolerance) at every thread count --
// that is the contract that lets the instance-profile stage shard pairs
// over cores without perturbing discovery results.

#include "matrix_profile/mp_engine.h"

#include <cstddef>

#include <algorithm>
#include <span>
#include <vector>

#include "core/metric.h"
#include "core/rng.h"
#include "core/time_series.h"
#include "data/generator.h"
#include "ips/candidate_gen.h"
#include "ips/config.h"
#include "ips/instance_profile.h"
#include "matrix_profile/matrix_profile.h"
#include "gtest/gtest.h"

namespace ips {
namespace {

std::vector<double> RandomWalk(Rng& rng, size_t n) {
  std::vector<double> v(n);
  double level = 0.0;
  for (auto& x : v) {
    level = 0.95 * level + rng.Gaussian(0.0, 1.0);
    x = level;
  }
  return v;
}

void ExpectProfilesIdentical(const MatrixProfile& expected,
                             const MatrixProfile& actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected.values[i], actual.values[i]) << what << " value " << i;
    EXPECT_EQ(expected.indices[i], actual.indices[i]) << what << " index " << i;
  }
}

constexpr size_t kThreadCounts[] = {1, 2, 8};

TEST(MpEngineSelfJoinTest, BitwiseIdenticalToSerialKernel) {
  Rng rng(7);
  const std::vector<double> series = RandomWalk(rng, 240);
  for (size_t window : {5u, 16u, 48u}) {
    const MatrixProfile expected = SelfJoinProfile(series, window);
    for (size_t threads : kThreadCounts) {
      MatrixProfileEngine engine(threads);
      ExpectProfilesIdentical(expected, engine.SelfJoin(series, window),
                              "self join");
      // Force fine-grained diagonal sharding (a join this small would
      // otherwise stay single-chunk on the row-order fast path).
      MatrixProfileEngine sharded(threads);
      sharded.set_min_cells_per_chunk(1);
      ExpectProfilesIdentical(expected, sharded.SelfJoin(series, window),
                              "sharded self join");
    }
  }
}

TEST(MpEngineSelfJoinTest, CustomExclusionZone) {
  Rng rng(11);
  const std::vector<double> series = RandomWalk(rng, 150);
  const size_t window = 12;
  for (size_t exclusion : {1u, 6u, 30u}) {
    const MatrixProfile expected = SelfJoinProfile(series, window, exclusion);
    for (size_t threads : kThreadCounts) {
      MatrixProfileEngine engine(threads);
      engine.set_min_cells_per_chunk(1);
      ExpectProfilesIdentical(
          expected, engine.SelfJoin(series, window, exclusion), "exclusion");
    }
  }
}

TEST(MpEngineSelfJoinTest, FlatRegionsMatch) {
  // Constant stretches exercise the flat-std branches of the distance.
  Rng rng(13);
  std::vector<double> series = RandomWalk(rng, 180);
  for (size_t i = 40; i < 70; ++i) series[i] = 2.5;
  for (size_t i = 120; i < 150; ++i) series[i] = 2.5;
  const size_t window = 10;
  const MatrixProfile expected = SelfJoinProfile(series, window);
  for (size_t threads : kThreadCounts) {
    MatrixProfileEngine engine(threads);
    engine.set_min_cells_per_chunk(1);
    ExpectProfilesIdentical(expected, engine.SelfJoin(series, window), "flat");
  }
}

TEST(MpEngineAbJoinTest, BothDirectionsBitwiseIdentical) {
  Rng rng(17);
  const std::vector<double> a = RandomWalk(rng, 200);
  const std::vector<double> b = RandomWalk(rng, 130);
  for (size_t window : {4u, 21u}) {
    const MatrixProfile ab = AbJoinProfile(a, b, window);
    const MatrixProfile ba = AbJoinProfile(b, a, window);
    for (size_t threads : kThreadCounts) {
      MatrixProfileEngine engine(threads);
      ExpectProfilesIdentical(ab, engine.AbJoin(a, b, window), "a vs b");
      ExpectProfilesIdentical(ba, engine.AbJoin(b, a, window), "b vs a");

      // One sweep, both sides.
      const PairJoin both = engine.AbJoinBoth(a, b, window);
      ExpectProfilesIdentical(ab, both.a_vs_b, "pair a side");
      ExpectProfilesIdentical(ba, both.b_vs_a, "pair b side");

      // Same, forced onto the fine-grained sharded diagonal path.
      MatrixProfileEngine sharded(threads);
      sharded.set_min_cells_per_chunk(1);
      const PairJoin sharded_both = sharded.AbJoinBoth(a, b, window);
      ExpectProfilesIdentical(ab, sharded_both.a_vs_b, "sharded a side");
      ExpectProfilesIdentical(ba, sharded_both.b_vs_a, "sharded b side");
    }
  }
}

TEST(MpEngineAbJoinTest, FftSeedPathBitwiseIdentical) {
  // Window long enough that the seed sliding-dot-products dispatch to the
  // FFT kernel (window >= kFftCutoff and the cost model prefers FFT).
  Rng rng(19);
  const std::vector<double> a = RandomWalk(rng, 2048);
  const std::vector<double> b = RandomWalk(rng, 1500);
  const size_t window = 512;
  const MatrixProfile ab = AbJoinProfile(a, b, window);
  const MatrixProfile ba = AbJoinProfile(b, a, window);
  const MatrixProfile self = SelfJoinProfile(a, window);
  for (size_t threads : {1u, 8u}) {
    MatrixProfileEngine engine(threads);
    const PairJoin both = engine.AbJoinBoth(a, b, window);
    ExpectProfilesIdentical(ab, both.a_vs_b, "fft a side");
    ExpectProfilesIdentical(ba, both.b_vs_a, "fft b side");
    ExpectProfilesIdentical(self, engine.SelfJoin(a, window), "fft self");
  }
}

TEST(MpEngineAbJoinTest, SingleWindowSeries) {
  // b has exactly one window (size == window): la x 1 sweep, lb = 1.
  Rng rng(23);
  const std::vector<double> a = RandomWalk(rng, 60);
  const std::vector<double> b = RandomWalk(rng, 9);
  const size_t window = 9;
  const MatrixProfile ab = AbJoinProfile(a, b, window);
  const MatrixProfile ba = AbJoinProfile(b, a, window);
  for (size_t threads : kThreadCounts) {
    MatrixProfileEngine engine(threads);
    const PairJoin both = engine.AbJoinBoth(a, b, window);
    ExpectProfilesIdentical(ab, both.a_vs_b, "one-window a side");
    ExpectProfilesIdentical(ba, both.b_vs_a, "one-window b side");
  }
}

TEST(MpEngineJoinAllPairsTest, EveryPairBothDirections) {
  Rng rng(29);
  std::vector<std::vector<double>> series;
  for (size_t n : {90u, 120u, 75u, 104u}) {
    series.push_back(RandomWalk(rng, n));
  }
  std::vector<std::span<const double>> views(series.begin(), series.end());
  const size_t window = 14;

  for (size_t threads : kThreadCounts) {
    MatrixProfileEngine engine(threads);
    engine.set_min_cells_per_chunk(1);
    const std::vector<PairJoin> joins = engine.JoinAllPairs(views, window);
    ASSERT_EQ(joins.size(), 6u);  // C(4, 2)
    size_t t = 0;
    for (size_t i = 0; i < views.size(); ++i) {
      for (size_t j = i + 1; j < views.size(); ++j, ++t) {
        ASSERT_EQ(joins[t].a, i);
        ASSERT_EQ(joins[t].b, j);
        ExpectProfilesIdentical(AbJoinProfile(views[i], views[j], window),
                                joins[t].a_vs_b, "batch a side");
        ExpectProfilesIdentical(AbJoinProfile(views[j], views[i], window),
                                joins[t].b_vs_a, "batch b side");
      }
    }
  }
}

TEST(MpEngineCountersTest, PairSymmetryHalvesJoins) {
  Rng rng(31);
  std::vector<std::vector<double>> series;
  for (size_t n : {80u, 80u, 80u}) series.push_back(RandomWalk(rng, n));
  std::vector<std::span<const double>> views(series.begin(), series.end());

  // The batch builds one immutable artifact table, and a repeat batch
  // builds its own (the engine keeps nothing between calls).
  MatrixProfileEngine tabled(2);
  tabled.JoinAllPairs(views, 10);
  const MpEngineCounters t1 = tabled.counters();
  // 3 unordered pairs serve all 6 directed joins of the historic code.
  EXPECT_EQ(t1.qt_sweeps, 3u);
  EXPECT_EQ(t1.joins_computed, 6u);
  EXPECT_EQ(t1.joins_halved, 3u);
  EXPECT_EQ(t1.table_builds, 1u);

  tabled.JoinAllPairs(views, 10);
  const MpEngineCounters t2 = tabled.counters();
  EXPECT_EQ(t2.qt_sweeps, 6u);
  EXPECT_EQ(t2.table_builds, 2u);

  // A caller-held table is built once and serves every join over it.
  const ArtifactTable table = tabled.PrepareAllPairs(views, 10);
  std::vector<PairJoin> joins;
  tabled.JoinAllPairsInto(table, joins);
  tabled.JoinAllPairsInto(table, joins);
  const MpEngineCounters t3 = tabled.counters();
  EXPECT_EQ(t3.qt_sweeps, 12u);
  EXPECT_EQ(t3.table_builds, 3u);

  tabled.ResetCounters();
  const MpEngineCounters zero = tabled.counters();
  EXPECT_EQ(zero.joins_computed, 0u);
  EXPECT_EQ(zero.table_builds, 0u);
}

TEST(MpEngineInstanceProfileTest, EngineMatchesSerialConstruction) {
  Rng rng(37);
  std::vector<TimeSeries> sample;
  for (size_t n : {70u, 95u, 4u, 82u}) {  // the length-4 instance is skipped
    TimeSeries t;
    t.values = RandomWalk(rng, n);
    sample.push_back(std::move(t));
  }
  const size_t window = 11;
  for (size_t neighbors : {1u, 2u}) {
    const InstanceProfile expected =
        ComputeInstanceProfile(sample, window, neighbors);
    for (size_t threads : kThreadCounts) {
      MatrixProfileEngine engine(threads);
      const InstanceProfile actual =
          ComputeInstanceProfile(sample, window, neighbors, &engine);
      ASSERT_EQ(expected.size(), actual.size());
      for (size_t e = 0; e < expected.size(); ++e) {
        EXPECT_EQ(expected.values[e], actual.values[e]) << "entry " << e;
        EXPECT_EQ(expected.instances[e], actual.instances[e]);
        EXPECT_EQ(expected.offsets[e], actual.offsets[e]);
      }
    }
  }
}

TEST(MpEngineCandidateGenTest, OutputIndependentOfThreadCount) {
  GeneratorSpec spec;
  spec.name = "mp-engine-candgen";
  spec.num_classes = 2;
  spec.train_size = 12;
  spec.test_size = 2;
  spec.length = 64;
  const Dataset train = GenerateDataset(spec).train;

  IpsOptions options;
  options.num_threads = 1;
  Rng rng_base(options.seed);
  const CandidatePool base = GenerateCandidates(train, options, rng_base);

  for (size_t threads : {2u, 5u, 8u}) {
    options.num_threads = threads;
    Rng rng(options.seed);
    const CandidatePool got = GenerateCandidates(train, options, rng);
    ASSERT_EQ(base.motifs.size(), got.motifs.size()) << threads;
    for (const auto& [label, pool] : base.motifs) {
      const auto& other = got.motifs.at(label);
      ASSERT_EQ(pool.size(), other.size()) << threads << " threads";
      for (size_t i = 0; i < pool.size(); ++i) {
        EXPECT_EQ(pool[i].values, other[i].values);
        EXPECT_EQ(pool[i].label, other[i].label);
      }
    }
    for (const auto& [label, pool] : base.discords) {
      const auto& other = got.discords.at(label);
      ASSERT_EQ(pool.size(), other.size()) << threads << " threads";
      for (size_t i = 0; i < pool.size(); ++i) {
        EXPECT_EQ(pool[i].values, other[i].values);
      }
    }
  }
}

// Ad-hoc joins retain nothing: rewriting a buffer in place between two
// joins on one engine must give the profile of the NEW values. Buffers
// keep their addresses and lengths, which is exactly what an
// address-keyed cache would mistake for the old contents.
TEST(MpEngineStorageReuseTest, AdHocJoinsSeeRewrittenStorage) {
  struct Shape {
    size_t len_a, len_b, window;
  };
  // Naive-seed and FFT-seed regimes.
  for (const Shape& shape : {Shape{120, 96, 12}, Shape{1040, 1024, 512}}) {
    std::vector<double> a(shape.len_a);
    std::vector<double> b(shape.len_b);
    Rng rng(shape.window);
    const auto refill = [&] {
      const std::vector<double> fresh_a = RandomWalk(rng, a.size());
      const std::vector<double> fresh_b = RandomWalk(rng, b.size());
      std::copy(fresh_a.begin(), fresh_a.end(), a.begin());
      std::copy(fresh_b.begin(), fresh_b.end(), b.begin());
    };
    const size_t w = shape.window;
    for (size_t m = 0; m < kMetricCount; ++m) {
      const MetricId metric = static_cast<MetricId>(m);
      MatrixProfileEngine engine(2);
      for (int round = 0; round < 2; ++round) {
        refill();
        const MatrixProfile self = engine.SelfJoin(a, w, 0, metric);
        const MatrixProfile ab = engine.AbJoin(a, b, w, metric);
        const PairJoin both = engine.AbJoinBoth(a, b, w, metric);
        // A fresh engine has never seen these buffers.
        MatrixProfileEngine fresh(1);
        ExpectProfilesIdentical(fresh.SelfJoin(a, w, 0, metric), self,
                                "self");
        ExpectProfilesIdentical(fresh.AbJoin(a, b, w, metric), ab, "ab");
        const PairJoin fresh_both = fresh.AbJoinBoth(a, b, w, metric);
        ExpectProfilesIdentical(fresh_both.a_vs_b, both.a_vs_b, "both a");
        ExpectProfilesIdentical(fresh_both.b_vs_a, both.b_vs_a, "both b");
        if (metric == MetricId::kZNormEuclidean) {
          ExpectProfilesIdentical(SelfJoinProfile(a, w), self, "self kernel");
          ExpectProfilesIdentical(AbJoinProfile(a, b, w), ab, "ab kernel");
          ExpectProfilesIdentical(AbJoinProfile(b, a, w), both.b_vs_a,
                                  "ba kernel");
        }
      }
    }
  }
}

// JoinAllPairs retains nothing either: a second batch over the same
// buffers, rewritten in place at the same window, must give the joins of
// the NEW values.
TEST(MpEngineStorageReuseTest, JoinAllPairsSeesRewrittenStorage) {
  struct Shape {
    std::vector<size_t> lens;
    size_t window;
  };
  // Naive-seed and FFT-seed regimes.
  for (const Shape& shape :
       {Shape{{120, 96, 110}, 12}, Shape{{1040, 1024}, 512}}) {
    std::vector<std::vector<double>> series;
    for (size_t len : shape.lens) series.emplace_back(len);
    const std::vector<std::span<const double>> views(series.begin(),
                                                     series.end());
    Rng rng(shape.window);
    const size_t w = shape.window;
    for (size_t m = 0; m < kMetricCount; ++m) {
      const MetricId metric = static_cast<MetricId>(m);
      MatrixProfileEngine engine(2);
      for (int round = 0; round < 2; ++round) {
        for (std::vector<double>& s : series) {
          const std::vector<double> fresh = RandomWalk(rng, s.size());
          std::copy(fresh.begin(), fresh.end(), s.begin());
        }
        const std::vector<PairJoin> joins =
            engine.JoinAllPairs(views, w, metric);
        MatrixProfileEngine fresh(1);
        for (const PairJoin& pj : joins) {
          const PairJoin expected =
              fresh.AbJoinBoth(views[pj.a], views[pj.b], w, metric);
          ExpectProfilesIdentical(expected.a_vs_b, pj.a_vs_b, "batch a");
          ExpectProfilesIdentical(expected.b_vs_a, pj.b_vs_a, "batch b");
        }
      }
    }
  }
}

// The ad-hoc joins build call-local tables: interleaving them with joins
// over a caller-held all-pairs table neither counts as an all-pairs build
// nor disturbs the held table.
TEST(MpEngineStorageReuseTest, AdHocJoinsLeaveCallerHeldTableAlone) {
  Rng rng(41);
  std::vector<std::vector<double>> series;
  for (size_t n : {70u, 80u, 90u}) series.push_back(RandomWalk(rng, n));
  std::vector<std::span<const double>> views(series.begin(), series.end());

  MatrixProfileEngine engine(2);
  const ArtifactTable table = engine.PrepareAllPairs(views, 10);
  std::vector<PairJoin> before;
  engine.JoinAllPairsInto(table, before);
  engine.SelfJoin(views[0], 10);
  engine.AbJoin(views[0], views[1], 10);
  engine.AbJoinBoth(views[1], views[2], 10);
  std::vector<PairJoin> after;
  engine.JoinAllPairsInto(table, after);
  EXPECT_EQ(engine.counters().table_builds, 1u);

  ASSERT_EQ(before.size(), 3u);
  ASSERT_EQ(after.size(), before.size());
  for (size_t t = 0; t < before.size(); ++t) {
    ExpectProfilesIdentical(before[t].a_vs_b, after[t].a_vs_b, "a side");
    ExpectProfilesIdentical(before[t].b_vs_a, after[t].b_vs_a, "b side");
    ExpectProfilesIdentical(
        AbJoinProfile(views[before[t].a], views[before[t].b], 10),
        after[t].a_vs_b, "a kernel");
  }
}

}  // namespace
}  // namespace ips
