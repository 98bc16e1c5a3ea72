#include "svm/linear_svm.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace distinct {
namespace {

/// Linearly separable 2-D problem: y = +1 iff x0 + x1 > 1.
SvmProblem SeparableProblem(int n, uint64_t seed) {
  Rng rng(seed);
  SvmProblem problem;
  for (int i = 0; i < n; ++i) {
    const double x0 = rng.UniformDouble() * 2.0;
    const double x1 = rng.UniformDouble() * 2.0;
    const double margin = x0 + x1 - 1.0;
    if (std::fabs(margin) < 0.1) {
      --i;  // keep a clean margin band
      continue;
    }
    problem.x.push_back({x0, x1});
    problem.y.push_back(margin > 0 ? 1 : -1);
  }
  return problem;
}

TEST(LinearSvmTest, SeparableProblemIsLearnedPerfectly) {
  const SvmProblem problem = SeparableProblem(400, 11);
  auto model = TrainLinearSvm(problem, SvmParams{});
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->Accuracy(problem), 1.0);
}

TEST(LinearSvmTest, LearnedHyperplaneHasSensibleDirection) {
  const SvmProblem problem = SeparableProblem(400, 13);
  auto model = TrainLinearSvm(problem, SvmParams{});
  ASSERT_TRUE(model.ok());
  // True boundary x0 + x1 = 1: both weights positive, bias negative.
  EXPECT_GT(model->weights()[0], 0.0);
  EXPECT_GT(model->weights()[1], 0.0);
  EXPECT_LT(model->bias(), 0.0);
  // Weight ratio near 1 (the boundary is symmetric in x0, x1).
  EXPECT_NEAR(model->weights()[0] / model->weights()[1], 1.0, 0.3);
}

TEST(LinearSvmTest, DecisionIsAffine) {
  const LinearSvmModel model({2.0, -1.0}, 0.5);
  EXPECT_DOUBLE_EQ(model.Decision({1.0, 1.0}), 1.5);
  EXPECT_EQ(model.Predict({1.0, 1.0}), 1);
  EXPECT_EQ(model.Predict({0.0, 2.0}), -1);
}

TEST(LinearSvmTest, NoisyProblemStillMostlyCorrect) {
  Rng rng(5);
  SvmProblem problem = SeparableProblem(500, 17);
  // Flip 5% of labels.
  for (size_t i = 0; i < problem.y.size(); ++i) {
    if (rng.Bernoulli(0.05)) {
      problem.y[i] = -problem.y[i];
    }
  }
  auto model = TrainLinearSvm(problem, SvmParams{});
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->Accuracy(problem), 0.9);
}

TEST(LinearSvmTest, RejectsDegenerateInputs) {
  EXPECT_FALSE(TrainLinearSvm(SvmProblem{}, SvmParams{}).ok());

  SvmProblem one_class;
  one_class.x = {{1.0}, {2.0}};
  one_class.y = {1, 1};
  EXPECT_FALSE(TrainLinearSvm(one_class, SvmParams{}).ok());

  SvmProblem bad_label;
  bad_label.x = {{1.0}, {2.0}};
  bad_label.y = {1, 0};
  EXPECT_FALSE(TrainLinearSvm(bad_label, SvmParams{}).ok());

  SvmProblem ragged;
  ragged.x = {{1.0}, {2.0, 3.0}};
  ragged.y = {1, -1};
  EXPECT_FALSE(TrainLinearSvm(ragged, SvmParams{}).ok());

  SvmProblem mismatched;
  mismatched.x = {{1.0}};
  mismatched.y = {1, -1};
  EXPECT_FALSE(TrainLinearSvm(mismatched, SvmParams{}).ok());

  SvmProblem fine;
  fine.x = {{1.0}, {-1.0}};
  fine.y = {1, -1};
  SvmParams bad_c;
  bad_c.c = 0.0;
  EXPECT_FALSE(TrainLinearSvm(fine, bad_c).ok());
}

TEST(LinearSvmTest, DeterministicForFixedSeed) {
  const SvmProblem problem = SeparableProblem(200, 23);
  SvmParams params;
  params.seed = 77;
  auto a = TrainLinearSvm(problem, params);
  auto b = TrainLinearSvm(problem, params);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->weights().size(), b->weights().size());
  for (size_t f = 0; f < a->weights().size(); ++f) {
    EXPECT_DOUBLE_EQ(a->weights()[f], b->weights()[f]);
  }
  EXPECT_DOUBLE_EQ(a->bias(), b->bias());
}

TEST(LinearSvmTest, LargerCFitsTrainingDataHarder) {
  Rng rng(5);
  SvmProblem problem = SeparableProblem(300, 31);
  for (size_t i = 0; i < problem.y.size(); ++i) {
    if (rng.Bernoulli(0.1)) {
      problem.y[i] = -problem.y[i];
    }
  }
  SvmParams weak;
  weak.c = 1e-3;
  SvmParams strong;
  strong.c = 100.0;
  auto weak_model = TrainLinearSvm(problem, weak);
  auto strong_model = TrainLinearSvm(problem, strong);
  ASSERT_TRUE(weak_model.ok() && strong_model.ok());
  EXPECT_GE(strong_model->Accuracy(problem) + 1e-9,
            weak_model->Accuracy(problem));
}

TEST(LinearSvmTest, BiasDisabledStaysZero) {
  const SvmProblem problem = SeparableProblem(200, 37);
  SvmParams params;
  params.fit_bias = false;
  auto model = TrainLinearSvm(problem, params);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->bias(), 0.0);
}

/// Property sweep: the learned model beats chance across dimensions.
class SvmDimensionTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SvmDimensionTest, BeatsChanceOnRandomHyperplane) {
  const size_t dim = GetParam();
  Rng rng(dim * 1000 + 7);
  std::vector<double> true_w(dim);
  for (double& w : true_w) {
    w = rng.UniformDouble() * 2.0 - 1.0;
  }
  SvmProblem problem;
  for (int i = 0; i < 400; ++i) {
    std::vector<double> x(dim);
    double dot = 0.0;
    for (size_t f = 0; f < dim; ++f) {
      x[f] = rng.UniformDouble() * 2.0 - 1.0;
      dot += true_w[f] * x[f];
    }
    if (std::fabs(dot) < 0.05) {
      --i;
      continue;
    }
    problem.x.push_back(std::move(x));
    problem.y.push_back(dot > 0 ? 1 : -1);
  }
  auto model = TrainLinearSvm(problem, SvmParams{});
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->Accuracy(problem), 0.97);
}

INSTANTIATE_TEST_SUITE_P(Dimensions, SvmDimensionTest,
                         ::testing::Values(1, 2, 5, 18, 40));

}  // namespace
}  // namespace distinct
