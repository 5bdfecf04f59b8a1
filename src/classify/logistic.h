// Multinomial-by-one-vs-rest logistic regression over feature vectors,
// trained by full-batch gradient descent with L2 regularisation. An
// alternative back-end for the shapelet transform (the LTS classifier uses
// the same head over learned features).

#ifndef IPS_CLASSIFY_LOGISTIC_H_
#define IPS_CLASSIFY_LOGISTIC_H_

#include <cmath>
#include <cstdint>

#include <vector>

#include "classify/classifier.h"

namespace ips {

/// The logistic function 1 / (1 + e^-x), branched so the exponential is
/// only ever taken of a non-positive argument and cannot overflow. Shared
/// by LogisticRegression and LTS.
inline double SigmoidStable(double x) {
  if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

/// Logistic-regression hyper-parameters.
struct LogisticOptions {
  double learning_rate = 0.5;
  double lambda = 1e-3;  ///< L2 regularisation on the weights.
  size_t max_iters = 500;
};

/// One-vs-rest logistic regression with internal feature standardisation.
class LogisticRegression final : public Classifier {
 public:
  explicit LogisticRegression(LogisticOptions options = {})
      : options_(options) {}

  void Fit(const LabeledMatrix& data) override;
  int Predict(std::span<const double> features) const override;

  int num_classes() const { return static_cast<int>(weights_.size()); }

 private:
  std::vector<double> Standardize(std::span<const double> features) const;

  LogisticOptions options_;
  std::vector<std::vector<double>> weights_;  // per class, incl. bias
  std::vector<double> feature_means_;
  std::vector<double> feature_stds_;
};

}  // namespace ips

#endif  // IPS_CLASSIFY_LOGISTIC_H_
