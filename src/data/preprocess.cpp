#include "data/preprocess.hpp"

#include <numeric>
#include <random>

#include "tensor/ops.hpp"
#include "tensor/pool.hpp"
#include "tensor/random.hpp"

namespace zkg::data {

Tensor scale_pixels(const Tensor& raw) {
  // [0, 255] -> [-1, 1]. Pre-sized, so the dataset-sized result takes no
  // buffer from the pool.
  Tensor out(raw.shape());
  mul_into(out, raw, 2.0f / 255.0f);
  add_(out, -1.0f);
  return out;
}

Dataset scale_pixels(const Dataset& raw) {
  Dataset out = raw;
  out.images = scale_pixels(raw.images);
  return out;
}

Tensor unscale_pixels(const Tensor& scaled) {
  Tensor out(scaled.shape());  // pre-sized: see scale_pixels
  add_into(out, scaled, 1.0f);
  mul_(out, 255.0f / 2.0f);
  return out;
}

TrainTestSplit separate(const Dataset& full, std::int64_t test_count,
                        Rng& rng) {
  full.validate();
  ZKG_CHECK(test_count > 0 && test_count < full.size())
      << " test_count " << test_count << " of " << full.size();
  std::vector<std::int64_t> perm = rng.permutation(full.size());
  const std::vector<std::int64_t> test_idx(perm.begin(),
                                           perm.begin() + test_count);
  const std::vector<std::int64_t> train_idx(perm.begin() + test_count,
                                            perm.end());
  return {full.subset(train_idx), full.subset(test_idx)};
}

void gaussian_augment_into(Tensor& out, const Tensor& images, Rng& rng,
                           float sigma) {
  ZKG_CHECK(sigma >= 0.0f) << " sigma " << sigma;
  ensure_shape(out, images.shape());
  if (sigma == 0.0f) {
    // N(0, 0) is no distribution the standard library may construct.
    clamp_into(out, images, kPixelMin, kPixelMax);
    return;
  }
  const float* src = images.data();
  float* dst = out.data();
  // One distribution for the whole call, drawn serially in element order:
  // it hands out both values of each polar-method pair it generates.
  std::normal_distribution<float> noise(0.0f, sigma);
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    dst[i] = src[i] + noise(rng.engine());
  }
  clamp_(out, kPixelMin, kPixelMax);
}

Tensor project_valid(const Tensor& images) {
  Tensor out(images.shape());  // pre-sized: see scale_pixels
  clamp_into(out, images, kPixelMin, kPixelMax);
  return out;
}

}  // namespace zkg::data
