#include "tensor/random.hpp"

#include <random>

#include "tensor/contracts.hpp"

namespace zkg {

Tensor randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  fill_normal(t, rng, mean, stddev);
  return t;
}

Tensor rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  fill_uniform(t, rng, lo, hi);
  return t;
}

void fill_normal(Tensor& t, Rng& rng, float mean, float stddev) {
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) p[i] = rng.normal(mean, stddev);
}

void fill_uniform(Tensor& t, Rng& rng, float lo, float hi) {
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) p[i] = rng.uniform(lo, hi);
}

void fill_dropout_mask(Tensor& mask, Rng& rng, float keep_prob) {
  ZKG_REQUIRE(keep_prob > 0.0f && keep_prob <= 1.0f)
      << " keep_prob " << keep_prob << " outside (0, 1]";
  const float scale = 1.0f / keep_prob;
  // One distribution for the whole mask: bernoulli_distribution keeps no
  // state between draws, so this is the stream of per-element
  // rng.bernoulli(keep_prob) calls.
  std::bernoulli_distribution keep(keep_prob);
  std::mt19937_64& engine = rng.engine();
  float* p = mask.data();
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    p[i] = keep(engine) ? scale : 0.0f;
  }
}

}  // namespace zkg
