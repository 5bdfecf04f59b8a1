// Nearest-neighbour time-series classifiers: 1NN-ED and 1NN-DTW (paper
// Table II and the DTW_Rn_1NN column of Table VI).
//
// 1NN-DTW uses a Sakoe-Chiba band expressed as a fraction of the series
// length, with LB_Keogh pruning when query and candidate lengths match.

#ifndef IPS_CLASSIFY_NN_H_
#define IPS_CLASSIFY_NN_H_

#include <utility>
#include <vector>

#include "classify/classifier.h"
#include "core/metric.h"
#include "core/time_series.h"

namespace ips {

/// 1-nearest-neighbour under a registered distance metric (core/metric.h),
/// whole-series Euclidean by default. Equal-length series compare with the
/// metric's pairwise distance; unequal lengths fall back to the sliding
/// subsequence minimum (DistanceEngine::SubsequenceMinMetric, with its
/// reusable per-thread scratch).
class OneNnEd final : public SeriesClassifier {
 public:
  /// `metric` selects the comparison distance. The default is the Def. 4
  /// length-normalised squared Euclidean the bake-off's ED_1NN uses
  /// (monotone in plain Euclidean, so the neighbour ranking is identical).
  explicit OneNnEd(MetricId metric = MetricId::kRawSquaredEuclidean);

  void Fit(const DatasetView& train) override;
  int Predict(SeriesView series) const override;

 private:
  MetricId metric_;
  Dataset train_;
};

/// 1-nearest-neighbour under DTW with a Sakoe-Chiba band.
class OneNnDtw final : public SeriesClassifier {
 public:
  /// `window_fraction` is the band half-width as a fraction of the series
  /// length; a negative value means unconstrained DTW. The UCR convention of
  /// 0.1 (10% warping window) is the default.
  explicit OneNnDtw(double window_fraction = 0.1)
      : window_fraction_(window_fraction) {}

  void Fit(const DatasetView& train) override;
  int Predict(SeriesView series) const override;

 private:
  double window_fraction_;
  Dataset train_;
};

/// The bake-off's DTW_Rn_1NN: 1NN-DTW whose warping-window fraction is
/// LEARNED by leave-one-out cross-validation on the training set over a
/// candidate grid, instead of being fixed.
class OneNnDtwCv final : public SeriesClassifier {
 public:
  /// `candidates` are the window fractions searched; defaults to
  /// {0, 0.01, ..., 0.1, 0.15, 0.2} when empty. Ties resolve to the
  /// smallest (cheapest) window.
  explicit OneNnDtwCv(std::vector<double> candidates = {})
      : candidates_(std::move(candidates)) {}

  void Fit(const DatasetView& train) override;
  int Predict(SeriesView series) const override;

  /// The window fraction chosen by cross-validation (valid after Fit()).
  double chosen_window_fraction() const { return chosen_; }

 private:
  std::vector<double> candidates_;
  double chosen_ = 0.1;
  OneNnDtw inner_{0.1};
};

}  // namespace ips

#endif  // IPS_CLASSIFY_NN_H_
