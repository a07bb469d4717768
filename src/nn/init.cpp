#include "nn/init.hpp"

#include <cmath>

#include "tensor/contracts.hpp"
#include "tensor/random.hpp"

namespace zkg::nn {

Tensor he_normal(Shape shape, std::int64_t fan_in, Rng& rng) {
  ZKG_REQUIRE(fan_in > 0) << " he_normal fan_in " << fan_in;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return randn(std::move(shape), rng, 0.0f, stddev);
}

}  // namespace zkg::nn
