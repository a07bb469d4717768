// The paper's Preprocessing module (§IV-B): Scaling, Separation and
// Augmentation.
#pragma once

#include "common/rng.hpp"
#include "data/dataset.hpp"

namespace zkg::data {

/// Valid pixel range after scaling. Attacks clip into this range (the
/// paper's regulation function F).
inline constexpr float kPixelMin = -1.0f;
inline constexpr float kPixelMax = 1.0f;

/// Scaling: maps raw pixels in [0, 255] to reals in [-1, 1].
Tensor scale_pixels(const Tensor& raw);
Dataset scale_pixels(const Dataset& raw);

/// Inverse of scale_pixels (for visualisation / round-trip tests).
Tensor unscale_pixels(const Tensor& scaled);

struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

/// Separation: randomly splits into train/test with `test_count` test rows.
TrainTestSplit separate(const Dataset& full, std::int64_t test_count, Rng& rng);

/// Augmentation: adds i.i.d. Gaussian noise N(0, sigma^2) and re-projects
/// into [-1, 1], writing into a caller-provided (reusable) tensor. The paper
/// (following Kannan et al.) uses mu=0, sigma=1. The noise comes from one
/// std::normal_distribution on rng.engine() per call, drawn in element
/// order, so each polar-method pair it generates yields two noise values.
/// sigma = 0 is a clamped copy of `images` that draws nothing from `rng`;
/// sigma < 0 throws InvalidArgument.
void gaussian_augment_into(Tensor& out, const Tensor& images, Rng& rng,
                           float sigma = 1.0f);

/// The regulation function F: projects pixel values back into [-1, 1].
Tensor project_valid(const Tensor& images);

}  // namespace zkg::data
