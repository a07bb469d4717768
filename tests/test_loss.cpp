// Loss-function tests: values on known cases and analytic-vs-numerical
// gradient agreement for CE, BCE and the CLP/CLS penalties.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tests/test_util.hpp"

namespace zkg::nn {
namespace {

using testutil::expect_close;
using testutil::numerical_gradient;

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  const Tensor logits({2, 10});
  Tensor grad;
  EXPECT_NEAR(softmax_cross_entropy_into(logits, {3, 7}, grad),
              std::log(10.0f), 1e-5f);
}

TEST(SoftmaxCrossEntropy, PerfectPredictionNearZeroLoss) {
  Tensor logits({1, 3});
  logits.at(0, 1) = 50.0f;
  Tensor grad;
  EXPECT_LT(softmax_cross_entropy_into(logits, {1}, grad), 1e-4f);
}

TEST(SoftmaxCrossEntropy, GradientMatchesNumerical) {
  Rng rng(1);
  const Tensor logits = randn({4, 5}, rng);
  const std::vector<std::int64_t> labels{0, 2, 4, 1};
  Tensor grad;
  softmax_cross_entropy_into(logits, labels, grad);
  Tensor probe_grad;
  const Tensor numeric = numerical_gradient(
      [&](const Tensor& z) {
        return softmax_cross_entropy_into(z, labels, probe_grad);
      },
      logits);
  expect_close(grad, numeric);
}

TEST(SoftmaxCrossEntropy, GradientRowsSumToZero) {
  Rng rng(2);
  const Tensor logits = randn({3, 4}, rng);
  Tensor grad;
  softmax_cross_entropy_into(logits, {0, 1, 2}, grad);
  for (std::int64_t r = 0; r < 3; ++r) {
    double row = 0.0;
    for (std::int64_t c = 0; c < 4; ++c) row += grad.at(r, c);
    EXPECT_NEAR(row, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, Validation) {
  Tensor grad;
  EXPECT_THROW(softmax_cross_entropy_into(Tensor({2, 3}), {0}, grad),
               InvalidArgument);
  EXPECT_THROW(softmax_cross_entropy_into(Tensor({1, 3}), {5}, grad),
               InvalidArgument);
  EXPECT_THROW(softmax_cross_entropy_into(Tensor({3}), {0}, grad),
               InvalidArgument);
}

TEST(BceWithLogits, KnownValues) {
  // z = 0 -> loss = log 2 regardless of target.
  Tensor grad;
  EXPECT_NEAR(bce_with_logits_into(Tensor({2, 1}),
                                   Tensor({2, 1}, std::vector<float>{0, 1}),
                                   grad),
              std::log(2.0f), 1e-5f);
}

TEST(BceWithLogits, StableAtExtremeLogits) {
  const Tensor z({2, 1}, std::vector<float>{80.0f, -80.0f});
  const Tensor t({2, 1}, std::vector<float>{1.0f, 0.0f});
  Tensor grad;
  const float loss = bce_with_logits_into(z, t, grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0f, 1e-5f);
  // And the wrong-way extreme is large but finite.
  const Tensor flipped({2, 1}, std::vector<float>{0.0f, 1.0f});
  const float bad = bce_with_logits_into(z, flipped, grad);
  EXPECT_TRUE(std::isfinite(bad));
  EXPECT_NEAR(bad, 80.0f, 1e-3f);
}

TEST(BceWithLogits, GradientMatchesNumerical) {
  Rng rng(3);
  const Tensor z = randn({6, 1}, rng);
  Tensor t({6, 1});
  for (std::int64_t i = 0; i < 6; ++i) t[i] = i % 2 ? 1.0f : 0.0f;
  Tensor grad;
  bce_with_logits_into(z, t, grad);
  Tensor probe_grad;
  const Tensor numeric = numerical_gradient(
      [&](const Tensor& logits) {
        return bce_with_logits_into(logits, t, probe_grad);
      },
      z);
  expect_close(grad, numeric);
}

TEST(SigmoidHelper, MatchesDefinition) {
  const Tensor z({3}, std::vector<float>{0.0f, 2.0f, -2.0f});
  Tensor p;
  sigmoid_into(p, z);
  EXPECT_NEAR(p[0], 0.5f, 1e-6f);
  EXPECT_NEAR(p[1], 1.0f / (1.0f + std::exp(-2.0f)), 1e-6f);
  EXPECT_NEAR(p[1] + p[2], 1.0f, 1e-6f);  // sigmoid(-z) = 1 - sigmoid(z)
}

TEST(CleanLogitPairing, ZeroWhenIdentical) {
  Rng rng(4);
  const Tensor z = randn({3, 5}, rng);
  const PairPenaltyResult pair = clean_logit_pairing(z, z, 0.4f);
  EXPECT_FLOAT_EQ(pair.value, 0.0f);
  EXPECT_TRUE(pair.grad_a.equals(Tensor({3, 5})));
}

TEST(CleanLogitPairing, GradientsMatchNumerical) {
  Rng rng(5);
  const Tensor a = randn({3, 4}, rng);
  const Tensor b = randn({3, 4}, rng);
  const float lambda = 0.3f;
  const PairPenaltyResult pair = clean_logit_pairing(a, b, lambda);
  const Tensor numeric_a = numerical_gradient(
      [&b, lambda](const Tensor& z) {
        return clean_logit_pairing(z, b, lambda).value;
      },
      a);
  const Tensor numeric_b = numerical_gradient(
      [&a, lambda](const Tensor& z) {
        return clean_logit_pairing(a, z, lambda).value;
      },
      b);
  expect_close(pair.grad_a, numeric_a);
  expect_close(pair.grad_b, numeric_b);
  // Anti-symmetry of the pairing gradient.
  Tensor neg_grad_b;
  mul_into(neg_grad_b, pair.grad_b, -1.0f);
  expect_close(pair.grad_a, neg_grad_b, 1e-5f, 1e-6f);
}

TEST(CleanLogitSqueezing, PenalisesLargeLogits) {
  const Tensor small({1, 2}, std::vector<float>{0.1f, -0.1f});
  const Tensor large({1, 2}, std::vector<float>{10.0f, -10.0f});
  Tensor grad;
  EXPECT_LT(clean_logit_squeezing_into(small, 0.4f, grad),
            clean_logit_squeezing_into(large, 0.4f, grad));
}

TEST(CleanLogitSqueezing, GradientMatchesNumerical) {
  Rng rng(6);
  const Tensor z = randn({4, 3}, rng);
  Tensor grad;
  clean_logit_squeezing_into(z, 0.25f, grad);
  Tensor probe_grad;
  const Tensor numeric = numerical_gradient(
      [&](const Tensor& logits) {
        return clean_logit_squeezing_into(logits, 0.25f, probe_grad);
      },
      z);
  expect_close(grad, numeric);
}

TEST(CleanLogitSqueezing, LambdaScalesLinearly) {
  Rng rng(7);
  const Tensor z = randn({2, 3}, rng);
  Tensor grad;
  const float v1 = clean_logit_squeezing_into(z, 0.1f, grad);
  const float v4 = clean_logit_squeezing_into(z, 0.4f, grad);
  EXPECT_NEAR(v4, 4.0f * v1, 1e-5f);
}

}  // namespace
}  // namespace zkg::nn
