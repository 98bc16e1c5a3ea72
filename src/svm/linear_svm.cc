#include "svm/linear_svm.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace distinct {
namespace {

Status ValidateProblem(const SvmProblem& problem) {
  if (problem.x.empty()) {
    return InvalidArgumentError("SVM: empty training set");
  }
  if (problem.x.size() != problem.y.size()) {
    return InvalidArgumentError(StrFormat(
        "SVM: %zu feature rows but %zu labels", problem.x.size(),
        problem.y.size()));
  }
  const size_t width = problem.x.front().size();
  if (width == 0) {
    return InvalidArgumentError("SVM: zero-width feature rows");
  }
  bool has_positive = false;
  bool has_negative = false;
  for (size_t i = 0; i < problem.x.size(); ++i) {
    if (problem.x[i].size() != width) {
      return InvalidArgumentError(
          StrFormat("SVM: row %zu has width %zu, expected %zu", i,
                    problem.x[i].size(), width));
    }
    if (problem.y[i] == 1) {
      has_positive = true;
    } else if (problem.y[i] == -1) {
      has_negative = true;
    } else {
      return InvalidArgumentError(
          StrFormat("SVM: label %d at row %zu is not +1/-1", problem.y[i], i));
    }
  }
  if (!has_positive || !has_negative) {
    return InvalidArgumentError("SVM: training set has only one class");
  }
  return Status::Ok();
}

}  // namespace

double LinearSvmModel::Decision(const std::vector<double>& x) const {
  DISTINCT_CHECK(x.size() == weights_.size());
  double value = bias_;
  for (size_t i = 0; i < x.size(); ++i) {
    value += weights_[i] * x[i];
  }
  return value;
}

int LinearSvmModel::Predict(const std::vector<double>& x) const {
  return Decision(x) >= 0.0 ? 1 : -1;
}

double LinearSvmModel::Accuracy(const SvmProblem& problem) const {
  if (problem.x.empty()) {
    return 0.0;
  }
  int64_t correct = 0;
  for (size_t i = 0; i < problem.x.size(); ++i) {
    if (Predict(problem.x[i]) == problem.y[i]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) /
         static_cast<double>(problem.x.size());
}

StatusOr<LinearSvmModel> TrainLinearSvm(const SvmProblem& problem,
                                        const SvmParams& params) {
  DISTINCT_RETURN_IF_ERROR(ValidateProblem(problem));
  if (params.c <= 0.0) {
    return InvalidArgumentError("SVM: C must be positive");
  }

  Stopwatch watch;
  const size_t n = problem.num_examples();
  const size_t raw_dim = problem.num_features();
  const size_t dim = raw_dim + (params.fit_bias ? 1 : 0);

  // Augmented rows (bias feature == 1) and their squared norms Q_ii.
  auto feature = [&](size_t i, size_t f) -> double {
    return f < raw_dim ? problem.x[i][f] : 1.0;
  };
  std::vector<double> q_diag(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double q = 0.0;
    for (size_t f = 0; f < dim; ++f) {
      const double v = feature(i, f);
      q += v * v;
    }
    q_diag[i] = q;
  }

  std::vector<double> w(dim, 0.0);
  std::vector<double> alpha(n, 0.0);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  Rng rng(params.seed);

  int epochs_run = 0;
  bool converged = false;
  for (int epoch = 0; epoch < params.max_epochs; ++epoch) {
    ++epochs_run;
    rng.Shuffle(order);
    double max_violation = 0.0;

    for (const size_t i : order) {
      if (q_diag[i] <= 0.0) {
        continue;  // all-zero row carries no information
      }
      const double yi = static_cast<double>(problem.y[i]);
      double wx = 0.0;
      for (size_t f = 0; f < dim; ++f) {
        wx += w[f] * feature(i, f);
      }
      const double gradient = yi * wx - 1.0;

      // Projected gradient for the box constraint 0 <= alpha_i <= C.
      double projected = gradient;
      if (alpha[i] <= 0.0) {
        projected = std::min(gradient, 0.0);
      } else if (alpha[i] >= params.c) {
        projected = std::max(gradient, 0.0);
      }
      max_violation = std::max(max_violation, std::fabs(projected));
      if (std::fabs(projected) < 1e-12) {
        continue;
      }

      const double old_alpha = alpha[i];
      alpha[i] = std::clamp(old_alpha - gradient / q_diag[i], 0.0, params.c);
      const double delta = (alpha[i] - old_alpha) * yi;
      if (delta != 0.0) {
        for (size_t f = 0; f < dim; ++f) {
          w[f] += delta * feature(i, f);
        }
      }
    }

    if (max_violation < params.epsilon) {
      converged = true;
      break;
    }
  }
  DISTINCT_COUNTER_ADD("svm.trainings", 1);
  DISTINCT_COUNTER_ADD("svm.epochs", epochs_run);
  DISTINCT_COUNTER_ADD("svm.converged", converged ? 1 : 0);
  DISTINCT_HISTOGRAM_RECORD("svm.train_nanos", watch.ElapsedNanos());

  double bias = 0.0;
  if (params.fit_bias) {
    bias = w.back();
    w.pop_back();
  }
  return LinearSvmModel(std::move(w), bias);
}

}  // namespace distinct
