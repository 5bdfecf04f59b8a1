// Classic shapelet quality measurement (Ye & Keogh [35]): the information
// gain of the best binary split of the training instances by their distance
// to a candidate. Shared by the BSPCOVER and Fast Shapelets baselines.

#ifndef IPS_BASELINES_SHAPELET_QUALITY_H_
#define IPS_BASELINES_SHAPELET_QUALITY_H_

#include <cstddef>

#include <vector>

#include "core/time_series.h"

namespace ips {

class DistanceEngine;

/// Result of evaluating a candidate's best distance split.
struct SplitQuality {
  /// Information gain (nats) of the best threshold; 0 when no split helps.
  double info_gain = 0.0;
  /// The best threshold (midpoint between the straddling distances).
  double threshold = 0.0;
  /// Training-instance indices on the near side of the split that share the
  /// candidate's class -- the candidate's "coverage" (BSPCOVER's p-cover).
  std::vector<size_t> covered;
};

/// Shannon entropy (nats) of per-class counts summing to `total`.
double LabelEntropy(const std::vector<size_t>& counts, size_t total);

/// Evaluates `candidate` against every series of `train` with the Def. 4
/// distance, sorts, and returns the best information-gain split. Requires a
/// non-empty training set and labels dense in [0, num_classes).
///
/// The distances run through DistanceEngine::MinForPairs, which caches
/// artefacts for the duration of the call only. Pass `engine` to shard
/// them over its threads; a null engine uses a call-local serial one.
/// Results are bitwise identical either way.
SplitQuality EvaluateSplitQuality(const Subsequence& candidate,
                                  const DatasetView& train, int num_classes,
                                  DistanceEngine* engine = nullptr);

}  // namespace ips

#endif  // IPS_BASELINES_SHAPELET_QUALITY_H_
