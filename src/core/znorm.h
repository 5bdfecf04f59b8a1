// Z-normalisation and rolling (sliding-window) statistics.
//
// Z-normalised Euclidean distance is the metric underlying the matrix
// profile; the rolling mean/stddev vectors computed here feed both the MASS
// distance-profile kernel and the STOMP matrix-profile kernel.

#ifndef IPS_CORE_ZNORM_H_
#define IPS_CORE_ZNORM_H_

#include <span>
#include <vector>

namespace ips {

/// Mean of `x`. Requires non-empty input.
double Mean(std::span<const double> x);

/// Population standard deviation of `x` (divides by n). Requires non-empty.
double StdDev(std::span<const double> x);

/// Returns (x - mean) / stddev elementwise. A constant (stddev ~ 0) input
/// maps to all zeros, the convention used throughout the shapelet literature.
std::vector<double> ZNormalize(std::span<const double> x);

/// In-place variant of ZNormalize.
void ZNormalizeInPlace(std::vector<double>& x);

/// Rolling statistics of every length-`w` window of `x`.
/// means[i] / stds[i] describe the window starting at i; both have size
/// x.size() - w + 1. Windows with ~zero variance report std 0.
/// Uses cumulative sums: O(n) time, numerically stabilised by clamping
/// negative variances (cancellation) to zero.
struct RollingStats {
  std::vector<double> means;
  std::vector<double> stds;
};
RollingStats ComputeRollingStats(std::span<const double> x, size_t w);

/// Per-window energies: out[i] = sum_{j < w} x[i+j]^2, for every length-`w`
/// window of `x` (size x.size() - w + 1). Computed as differences of a
/// prefix-sums-of-squares table -- the same accumulation order as
/// DistanceProfileRaw's window energies, so values match that path bitwise.
/// The non-normalised metric policies (core/metric.h) feed on these the way
/// the z-normalised family feeds on RollingStats.
std::vector<double> ComputeWindowEnergies(std::span<const double> x, size_t w);

/// Threshold below which a window standard deviation is treated as zero
/// (constant window) by the normalised-distance kernels.
inline constexpr double kFlatStdEpsilon = 1e-8;

}  // namespace ips

#endif  // IPS_CORE_ZNORM_H_
