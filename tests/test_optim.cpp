// Optimizer tests: update rules on handcrafted gradients, convergence on a
// quadratic, gradient clipping and LR schedules.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "optim/adam.hpp"
#include "optim/schedule.hpp"
#include "optim/sgd.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace zkg::optim {
namespace {

nn::Parameter make_param(std::vector<float> values) {
  const auto n = static_cast<std::int64_t>(values.size());
  return nn::Parameter("p", Tensor({n}, std::move(values)));
}

TEST(Sgd, PlainStep) {
  nn::Parameter p = make_param({1.0f, 2.0f});
  p.accumulate_grad(Tensor({2}, std::vector<float>{0.5f, -1.0f}));
  Sgd sgd({&p}, {.learning_rate = 0.1f});
  sgd.step();
  EXPECT_TRUE(p.value().allclose(Tensor({2}, std::vector<float>{0.95f, 2.1f})));
}

TEST(Sgd, MomentumAccumulatesVelocity) {
  nn::Parameter p = make_param({0.0f});
  Sgd sgd({&p}, {.learning_rate = 1.0f, .momentum = 0.5f});
  // Two identical unit gradients: steps of 1 then 1.5.
  p.grad()[0] = 1.0f;
  sgd.step();
  EXPECT_NEAR(p.value()[0], -1.0f, 1e-6f);
  sgd.step();  // gradient still 1 (not zeroed)
  EXPECT_NEAR(p.value()[0], -2.5f, 1e-6f);
}

TEST(Sgd, WeightDecayPullsTowardZero) {
  nn::Parameter p = make_param({10.0f});
  Sgd sgd({&p}, {.learning_rate = 0.1f, .weight_decay = 0.5f});
  sgd.step();  // gradient 0, decay 0.5 * 10 = 5 -> step -0.5
  EXPECT_NEAR(p.value()[0], 9.5f, 1e-5f);
}

TEST(Sgd, RejectsBadConfig) {
  nn::Parameter p = make_param({1.0f});
  EXPECT_THROW(Sgd({&p}, {.learning_rate = 0.0f}), InvalidArgument);
  EXPECT_THROW(Sgd({&p}, {.learning_rate = 0.1f, .momentum = 1.0f}),
               InvalidArgument);
}

TEST(Adam, FirstStepHasLearningRateMagnitude) {
  nn::Parameter p = make_param({0.0f});
  Adam adam({&p}, {.learning_rate = 0.01f});
  p.grad()[0] = 123.0f;  // any positive gradient
  adam.step();
  // Bias-corrected first step is ~ -lr * sign(g).
  EXPECT_NEAR(p.value()[0], -0.01f, 1e-4f);
}

TEST(Adam, ConvergesOnQuadratic) {
  // minimize f(w) = ||w - target||^2.
  nn::Parameter w = make_param({5.0f, -3.0f, 8.0f});
  const Tensor target({3}, std::vector<float>{1.0f, 2.0f, -1.0f});
  Adam adam({&w}, {.learning_rate = 0.1f});
  for (int i = 0; i < 500; ++i) {
    w.zero_grad();
    Tensor grad;
    sub_into(grad, w.value(), target);
    mul_(grad, 2.0f);
    w.accumulate_grad(grad);
    adam.step();
  }
  EXPECT_TRUE(w.value().allclose(target, 1e-2f));
}

TEST(Adam, StepCountAdvances) {
  nn::Parameter p = make_param({1.0f});
  Adam adam({&p});
  EXPECT_EQ(adam.step_count(), 0);
  adam.step();
  adam.step();
  EXPECT_EQ(adam.step_count(), 2);
}

TEST(Adam, LearningRateMutable) {
  nn::Parameter p = make_param({1.0f});
  Adam adam({&p}, {.learning_rate = 0.5f});
  EXPECT_FLOAT_EQ(adam.learning_rate(), 0.5f);
  adam.set_learning_rate(0.25f);
  EXPECT_FLOAT_EQ(adam.learning_rate(), 0.25f);
}

TEST(ClipGradNorm, ScalesOnlyWhenAboveThreshold) {
  nn::Parameter p = make_param({3.0f, 4.0f});
  p.grad() = Tensor({2}, std::vector<float>{3.0f, 4.0f});  // norm 5
  const float before = clip_grad_norm({&p}, 10.0f);
  EXPECT_NEAR(before, 5.0f, 1e-5f);
  EXPECT_NEAR(l2_norm(p.grad()), 5.0f, 1e-5f);  // unchanged

  const float again = clip_grad_norm({&p}, 1.0f);
  EXPECT_NEAR(again, 5.0f, 1e-5f);
  EXPECT_NEAR(l2_norm(p.grad()), 1.0f, 1e-5f);  // clipped
  EXPECT_THROW(clip_grad_norm({&p}, 0.0f), InvalidArgument);
}

// --- Optimizer state round-trips (checkpoint/resume, DESIGN.md §11) ---

// Deterministic synthetic gradient for step `step`.
Tensor grad_for(std::int64_t step, std::int64_t n) {
  Tensor g({n});
  for (std::int64_t i = 0; i < n; ++i) {
    g[i] = 0.01f * static_cast<float>(step + 1) *
           (i % 2 == 0 ? 1.0f : -1.0f);
  }
  return g;
}

template <typename Opt>
void drive(Opt& opt, nn::Parameter& p, std::int64_t from, std::int64_t to) {
  for (std::int64_t s = from; s < to; ++s) {
    p.zero_grad();
    p.accumulate_grad(grad_for(s, p.numel()));
    opt.step();
  }
}

TEST(OptimizerState, AdamRoundTripIsBitIdentical) {
  nn::Parameter a = make_param({1.0f, -2.0f, 3.0f, 0.5f});
  Adam opt_a({&a}, {.learning_rate = 0.05f});
  drive(opt_a, a, 0, 5);

  // Clone the parameter values and restore the optimizer snapshot onto a
  // fresh Adam; both must step bit-identically from here on.
  const OptimizerState snapshot = opt_a.state();
  EXPECT_EQ(snapshot.kind, "adam");
  EXPECT_EQ(snapshot.step_count, 5);
  EXPECT_FLOAT_EQ(snapshot.learning_rate, 0.05f);
  ASSERT_EQ(snapshot.slots.size(), 2u);  // m and v for the one parameter

  nn::Parameter b("p", a.value());
  Adam opt_b({&b}, {.learning_rate = 0.9f});  // deliberately different lr
  opt_b.load_state(snapshot);
  EXPECT_FLOAT_EQ(opt_b.learning_rate(), 0.05f);
  EXPECT_EQ(opt_b.step_count(), 5);

  drive(opt_a, a, 5, 9);
  drive(opt_b, b, 5, 9);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a.value()[i], b.value()[i]) << "diverged at index " << i;
  }
}

TEST(OptimizerState, SgdMomentumRoundTripIsBitIdentical) {
  nn::Parameter a = make_param({4.0f, -1.0f});
  Sgd opt_a({&a}, {.learning_rate = 0.1f, .momentum = 0.9f});
  drive(opt_a, a, 0, 4);

  const OptimizerState snapshot = opt_a.state();
  EXPECT_EQ(snapshot.kind, "sgd");
  ASSERT_EQ(snapshot.slots.size(), 1u);  // velocity buffer

  nn::Parameter b("p", a.value());
  Sgd opt_b({&b}, {.learning_rate = 0.1f, .momentum = 0.9f});
  opt_b.load_state(snapshot);

  drive(opt_a, a, 4, 8);
  drive(opt_b, b, 4, 8);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a.value()[i], b.value()[i]) << "diverged at index " << i;
  }
}

TEST(OptimizerState, LoadRejectsMismatches) {
  nn::Parameter p = make_param({1.0f, 2.0f});
  Adam adam({&p});
  Sgd sgd({&p}, {.learning_rate = 0.1f, .momentum = 0.9f});

  // Wrong kind.
  EXPECT_THROW(sgd.load_state(adam.state()), SerializationError);
  EXPECT_THROW(adam.load_state(sgd.state()), SerializationError);

  // Wrong slot shape (snapshot from a differently-sized parameter set).
  nn::Parameter other = make_param({1.0f, 2.0f, 3.0f});
  Adam adam_other({&other});
  EXPECT_THROW(adam.load_state(adam_other.state()), SerializationError);

  // Corrupted slot count.
  OptimizerState broken = adam.state();
  broken.slots.pop_back();
  EXPECT_THROW(adam.load_state(broken), SerializationError);
}

TEST(Schedules, Constant) {
  const ConstantLr schedule;
  EXPECT_FLOAT_EQ(schedule.rate_for(0, 0.1f), 0.1f);
  EXPECT_FLOAT_EQ(schedule.rate_for(100, 0.1f), 0.1f);
}

TEST(Schedules, StepDecay) {
  const StepDecayLr schedule(10, 0.5f);
  EXPECT_FLOAT_EQ(schedule.rate_for(0, 1.0f), 1.0f);
  EXPECT_FLOAT_EQ(schedule.rate_for(9, 1.0f), 1.0f);
  EXPECT_FLOAT_EQ(schedule.rate_for(10, 1.0f), 0.5f);
  EXPECT_FLOAT_EQ(schedule.rate_for(25, 1.0f), 0.25f);
  EXPECT_THROW(StepDecayLr(0, 0.5f), InvalidArgument);
}

TEST(Schedules, CosineDecaysMonotonically) {
  const CosineLr schedule(20, 0.1f);
  float previous = schedule.rate_for(0, 1.0f);
  EXPECT_NEAR(previous, 1.0f, 1e-5f);
  for (int epoch = 1; epoch <= 20; ++epoch) {
    const float rate = schedule.rate_for(epoch, 1.0f);
    EXPECT_LE(rate, previous + 1e-6f);
    previous = rate;
  }
  EXPECT_NEAR(schedule.rate_for(20, 1.0f), 0.1f, 1e-5f);
  EXPECT_NEAR(schedule.rate_for(100, 1.0f), 0.1f, 1e-5f);  // clamped
}

TEST(Schedules, ApplyUpdatesOptimizer) {
  nn::Parameter p = make_param({1.0f});
  Adam adam({&p}, {.learning_rate = 1.0f});
  const StepDecayLr schedule(1, 0.1f);
  schedule.apply(adam, 2, 1.0f);
  EXPECT_NEAR(adam.learning_rate(), 0.01f, 1e-6f);
}

}  // namespace
}  // namespace zkg::optim
