// Linear support vector machine trained by dual coordinate descent.
//
// The paper weighs join paths with an SVM with linear kernel (§3). For
// linear kernels the dual coordinate-descent solver of Hsieh et al. (ICML
// 2008) — the algorithm inside LIBLINEAR — reaches the same optimum as a
// kernel SVM at a fraction of the cost, so the library implements it
// directly instead of depending on libsvm.
//
// Solves:  min_w  1/2 ||w||^2 + C Σ_i max(0, 1 - y_i w·x_i)
// (L1 hinge loss, L2 regularization). The bias is handled by augmenting
// every example with a constant feature, which regularizes the bias — the
// standard LIBLINEAR treatment.

#ifndef DISTINCT_SVM_LINEAR_SVM_H_
#define DISTINCT_SVM_LINEAR_SVM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace distinct {

/// A labeled training set: dense feature rows and ±1 labels.
struct SvmProblem {
  std::vector<std::vector<double>> x;
  std::vector<int> y;  // each entry +1 or -1

  size_t num_examples() const { return x.size(); }
  size_t num_features() const { return x.empty() ? 0 : x.front().size(); }
};

/// Solver hyper-parameters.
struct SvmParams {
  double c = 1.0;            // misclassification cost
  int max_epochs = 1000;     // passes over the data
  double epsilon = 1e-4;     // stop when max projected-gradient violation < ε
  bool fit_bias = true;      // learn an intercept via feature augmentation
  uint64_t seed = 1;         // coordinate-permutation seed
};

/// The trained separating hyperplane.
class LinearSvmModel {
 public:
  LinearSvmModel() = default;
  LinearSvmModel(std::vector<double> weights, double bias)
      : weights_(std::move(weights)), bias_(bias) {}

  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

  /// w·x + b.
  double Decision(const std::vector<double>& x) const;

  /// +1 or -1 (ties go to +1).
  int Predict(const std::vector<double>& x) const;

  /// Fraction of `problem` classified correctly.
  double Accuracy(const SvmProblem& problem) const;

 private:
  std::vector<double> weights_;
  double bias_ = 0.0;
};

/// Trains on `problem`. Fails on empty input, inconsistent row widths,
/// labels outside {+1,-1}, or a single-class problem.
StatusOr<LinearSvmModel> TrainLinearSvm(const SvmProblem& problem,
                                        const SvmParams& params);

}  // namespace distinct

#endif  // DISTINCT_SVM_LINEAR_SVM_H_
