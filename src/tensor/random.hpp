// Random tensor constructors and fillers, all driven by an explicit Rng.
#pragma once

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace zkg {

/// i.i.d. N(mean, stddev^2).
Tensor randn(Shape shape, Rng& rng, float mean = 0.0f, float stddev = 1.0f);

/// i.i.d. U[lo, hi).
Tensor rand_uniform(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);

void fill_normal(Tensor& t, Rng& rng, float mean = 0.0f, float stddev = 1.0f);
void fill_uniform(Tensor& t, Rng& rng, float lo = 0.0f, float hi = 1.0f);

/// Fills `mask` with Bernoulli(keep_prob) draws scaled by 1/keep_prob (the
/// inverted dropout mask), in place; lets Dropout reuse one mask buffer
/// across training steps.
void fill_dropout_mask(Tensor& mask, Rng& rng, float keep_prob);

}  // namespace zkg
