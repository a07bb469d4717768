// Shared test helpers: numerical gradient checking and tensor matchers.
#pragma once

#include <cmath>
#include <cstring>
#include <functional>

#include <gtest/gtest.h>

#include "tensor/tensor.hpp"

namespace zkg::testutil {

/// Central-difference gradient of a scalar-valued function at `point`.
inline Tensor numerical_gradient(
    const std::function<float(const Tensor&)>& f, const Tensor& point,
    float eps = 1e-3f) {
  Tensor grad(point.shape());
  Tensor probe = point;
  for (std::int64_t i = 0; i < point.numel(); ++i) {
    const float original = probe[i];
    probe[i] = original + eps;
    const float plus = f(probe);
    probe[i] = original - eps;
    const float minus = f(probe);
    probe[i] = original;
    grad[i] = (plus - minus) / (2.0f * eps);
  }
  return grad;
}

/// Asserts |a-b| <= atol + rtol*|b| element-wise.
inline void expect_close(const Tensor& actual, const Tensor& expected,
                         float rtol = 1e-2f, float atol = 1e-3f) {
  ASSERT_EQ(actual.shape(), expected.shape());
  for (std::int64_t i = 0; i < actual.numel(); ++i) {
    const float tolerance = atol + rtol * std::fabs(expected[i]);
    EXPECT_NEAR(actual[i], expected[i], tolerance) << "at flat index " << i;
  }
}

/// True when both tensors have the same shape and identical bytes.
inline bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

}  // namespace zkg::testutil
