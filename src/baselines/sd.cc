#include "baselines/sd.h"

#include <algorithm>
#include <map>
#include <span>

#include "baselines/shapelet_quality.h"
#include "core/distance_engine.h"
#include "ips/candidate_gen.h"
#include "transform/shapelet_transform.h"
#include "util/check.h"

namespace ips {

namespace {

// Data-derived pruning radius: a low percentile of the pairwise distances
// among the first accepted representatives of this length. The pairs run
// through the engine in the serial loops' upper-triangle order, so the
// percentile is identical.
double PruneRadius(const std::vector<Subsequence>& sample, double percentile,
                   DistanceEngine& engine) {
  std::vector<std::span<const double>> views;
  views.reserve(sample.size());
  for (const Subsequence& s : sample) views.push_back(s.view());
  std::vector<IndexPair> pairs;
  for (uint32_t i = 0; i < sample.size(); ++i) {
    for (uint32_t j = i + 1; j < sample.size(); ++j) pairs.push_back({i, j});
  }
  std::vector<double> dists = engine.MinForPairs(views, pairs);
  if (dists.empty()) return 0.0;
  std::sort(dists.begin(), dists.end());
  const size_t idx = std::min(
      dists.size() - 1,
      static_cast<size_t>(percentile * static_cast<double>(dists.size())));
  return dists[idx];
}

}  // namespace

std::vector<Subsequence> DiscoverSdShapelets(const DatasetView& train,
                                             const SdOptions& options,
                                             SdStats* stats) {
  IPS_CHECK(!train.empty());
  IPS_CHECK(options.stride >= 1);
  SdStats local;
  SdStats& s = stats != nullptr ? *stats : local;
  s = SdStats{};

  // One serial engine per run, shared by the radius estimates, the
  // redundancy scans and the split-quality scoring below.
  DistanceEngine engine(1);

  const std::vector<size_t> lengths =
      ResolveCandidateLengths(train.MinLength(), options.length_ratios);
  const int num_classes = train.NumClasses();

  struct Scored {
    Subsequence shapelet;
    double info_gain;
  };
  std::map<int, std::vector<Scored>> per_class;

  for (size_t window : lengths) {
    // Seed the radius estimate from one candidate per training series.
    std::vector<Subsequence> seeds;
    for (size_t i = 0; i < train.size() && seeds.size() < 20; ++i) {
      if (train.At(i).length() < window) continue;
      const SeriesView t = train.At(i);
      seeds.push_back(ExtractSubsequence(t, (t.length() - window) / 2, window,
                                         static_cast<int>(i)));
    }
    const double radius = PruneRadius(seeds, options.prune_percentile, engine);

    // Online clustering over the grid enumeration: accept a candidate only
    // when it is farther than `radius` from every accepted representative
    // of the same length.
    std::vector<Subsequence> representatives;
    for (size_t i = 0; i < train.size(); ++i) {
      const SeriesView t = train.At(i);
      if (t.length() < window) continue;
      for (size_t off = 0; off + window <= t.length();
           off += options.stride) {
        ++s.candidates_enumerated;
        Subsequence cand =
            ExtractSubsequence(t, off, window, static_cast<int>(i));
        const bool redundant = std::any_of(
            representatives.begin(), representatives.end(),
            [&](const Subsequence& rep) {
              return engine.SubsequenceMinMetric(
                         cand.view(), rep.view(),
                         MetricId::kRawSquaredEuclidean) <= radius;
            });
        if (redundant) continue;
        representatives.push_back(std::move(cand));
      }
    }
    s.cluster_representatives += representatives.size();

    // Score the representatives only.
    for (Subsequence& rep : representatives) {
      const double gain =
          EvaluateSplitQuality(rep, train, num_classes, &engine).info_gain;
      per_class[rep.label].push_back({std::move(rep), gain});
    }
  }

  std::vector<Subsequence> shapelets;
  for (auto& [label, scored] : per_class) {
    std::stable_sort(scored.begin(), scored.end(),
                     [](const Scored& a, const Scored& b) {
                       return a.info_gain > b.info_gain;
                     });
    const size_t take =
        std::min(options.shapelets_per_class, scored.size());
    for (size_t i = 0; i < take; ++i) {
      shapelets.push_back(std::move(scored[i].shapelet));
    }
  }
  return shapelets;
}

void SdClassifier::Fit(const DatasetView& train) {
  shapelets_ = DiscoverSdShapelets(train, options_, &stats_);
  IPS_CHECK_MSG(!shapelets_.empty(), "SD discovered no shapelets");
  const TransformedData transformed = ShapeletTransform(train, shapelets_);
  LabeledMatrix matrix;
  matrix.x = transformed.features;
  matrix.y = transformed.labels;
  svm_ = LinearSvm(options_.svm);
  svm_.Fit(matrix);
}

int SdClassifier::Predict(SeriesView series) const {
  IPS_CHECK(!shapelets_.empty());
  return svm_.Predict(TransformSeries(series, shapelets_));
}

}  // namespace ips
