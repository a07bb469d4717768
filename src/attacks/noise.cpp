#include "attacks/noise.hpp"

#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace zkg::attacks {

GaussianNoise::GaussianNoise(AttackBudget budget, float sigma, Rng& rng)
    : budget_(budget), sigma_(sigma), rng_(rng.fork()) {
  ZKG_CHECK(sigma >= 0.0f) << " GaussianNoise sigma " << sigma;
}

Tensor GaussianNoise::generate(models::Classifier& /*model*/,
                               const Tensor& images,
                               const std::vector<std::int64_t>& /*labels*/) {
  Tensor adv = randn(images.shape(), rng_, 0.0f, sigma_);
  add_(adv, images);
  project_linf_(adv, images,
                budget_.epsilon > 0.0f ? budget_.epsilon
                                       : 2.0f);  // 2 spans the full range
  return adv;
}

}  // namespace zkg::attacks
