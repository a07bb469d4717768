// Weight initialisation schemes.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "tensor/tensor.hpp"

namespace zkg::nn {

/// He (Kaiming) normal — recommended for ReLU layers.
Tensor he_normal(Shape shape, std::int64_t fan_in, Rng& rng);

}  // namespace zkg::nn
