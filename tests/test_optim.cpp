// Optimizer tests: Adam's update rule on handcrafted gradients, convergence
// on a quadratic, and state snapshots for checkpoint/resume.
#include <gtest/gtest.h>

#include "optim/adam.hpp"
#include "tensor/ops.hpp"

namespace zkg::optim {
namespace {

nn::Parameter make_param(std::vector<float> values) {
  const auto n = static_cast<std::int64_t>(values.size());
  return nn::Parameter("p", Tensor({n}, std::move(values)));
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

void drive(Adam& opt, nn::Parameter& p, std::int64_t from, std::int64_t to) {
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

TEST(OptimizerState, LoadRejectsMismatches) {
  nn::Parameter p = make_param({1.0f, 2.0f});
  Adam adam({&p});

  // Wrong kind.
  OptimizerState foreign = adam.state();
  foreign.kind = "sgd";
  EXPECT_THROW(adam.load_state(foreign), SerializationError);

  // Wrong slot shape (snapshot from a differently-sized parameter set).
  nn::Parameter other = make_param({1.0f, 2.0f, 3.0f});
  Adam adam_other({&other});
  EXPECT_THROW(adam.load_state(adam_other.state()), SerializationError);

  // Corrupted slot count.
  OptimizerState broken = adam.state();
  broken.slots.pop_back();
  EXPECT_THROW(adam.load_state(broken), SerializationError);
}

}  // namespace
}  // namespace zkg::optim
