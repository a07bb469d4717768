#include "nn/batchnorm.hpp"

#include <cmath>
#include <sstream>

#include "common/parallel.hpp"
#include "tensor/contracts.hpp"
#include "tensor/pool.hpp"

namespace zkg::nn {
namespace {

// Views a [B, F] or [B, C, H, W] tensor as (rows x features x inner):
// rank 2 -> inner = 1; rank 4 -> inner = H*W.
struct Layout {
  std::int64_t rows;
  std::int64_t features;
  std::int64_t inner;
  std::int64_t count() const { return rows * inner; }  // samples per feature
};

Layout layout_of(const Shape& shape, std::int64_t features) {
  ZKG_REQUIRE(shape.size() == 2 || shape.size() == 4)
      << " BatchNorm wants rank 2 or 4, got " << shape_to_string(shape);
  ZKG_REQUIRE(shape[1] == features)
      << " BatchNorm over " << features << " features, input "
      << shape_to_string(shape);
  if (shape.size() == 2) return {shape[0], features, 1};
  return {shape[0], features, shape[2] * shape[3]};
}

inline std::int64_t index_of(const Layout& l, std::int64_t row,
                             std::int64_t feature, std::int64_t inner) {
  return (row * l.features + feature) * l.inner + inner;
}

}  // namespace

BatchNorm::BatchNorm(std::int64_t features, float momentum, float epsilon)
    : features_(features),
      momentum_(momentum),
      epsilon_(epsilon),
      gamma_("batchnorm.gamma", Tensor({features}, 1.0f)),
      beta_("batchnorm.beta", Tensor({features})),
      running_mean_({features}),
      running_var_({features}, 1.0f) {
  ZKG_REQUIRE(features > 0 && momentum > 0.0f && momentum <= 1.0f &&
              epsilon > 0.0f)
      << " BatchNorm(features=" << features << ", momentum=" << momentum
      << ", eps=" << epsilon << ")";
}

void BatchNorm::forward_into(const Tensor& input, Tensor& out,
                             bool training) {
  const Layout l = layout_of(input.shape(), features_);
  cached_input_shape_ = input.shape();
  cached_training_ = training;

  ensure_shape(mean_, {features_});
  ensure_shape(var_, {features_});
  Tensor& mean = mean_;
  Tensor& var = var_;
  if (training) {
    ZKG_REQUIRE(l.count() > 1) << " BatchNorm training needs > 1 sample";
    // Every feature's statistics (and running-stat update) are independent.
    parallel_for(features_, parallel_grain(2 * l.count()),
                 [&](std::int64_t f0, std::int64_t f1) {
      for (std::int64_t f = f0; f < f1; ++f) {
        double sum = 0.0;
        for (std::int64_t r = 0; r < l.rows; ++r) {
          for (std::int64_t i = 0; i < l.inner; ++i) {
            sum += input[index_of(l, r, f, i)];
          }
        }
        mean[f] = static_cast<float>(sum / l.count());
        double sq = 0.0;
        for (std::int64_t r = 0; r < l.rows; ++r) {
          for (std::int64_t i = 0; i < l.inner; ++i) {
            const double d = input[index_of(l, r, f, i)] - mean[f];
            sq += d * d;
          }
        }
        var[f] = static_cast<float>(sq / l.count());
        running_mean_[f] =
            (1.0f - momentum_) * running_mean_[f] + momentum_ * mean[f];
        running_var_[f] =
            (1.0f - momentum_) * running_var_[f] + momentum_ * var[f];
      }
    });
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  ensure_shape(cached_inv_std_, {features_});
  for (std::int64_t f = 0; f < features_; ++f) {
    cached_inv_std_[f] = 1.0f / std::sqrt(var[f] + epsilon_);
  }

  ensure_shape(out, input.shape());
  ensure_shape(cached_normalized_, input.shape());
  parallel_for(features_, parallel_grain(2 * l.count()),
               [&](std::int64_t f0, std::int64_t f1) {
    for (std::int64_t f = f0; f < f1; ++f) {
      const float inv_std = cached_inv_std_[f];
      const float g = gamma_.value()[f];
      const float b = beta_.value()[f];
      const float m = mean[f];
      for (std::int64_t r = 0; r < l.rows; ++r) {
        for (std::int64_t i = 0; i < l.inner; ++i) {
          const std::int64_t idx = index_of(l, r, f, i);
          const float x_hat = (input[idx] - m) * inv_std;
          cached_normalized_[idx] = x_hat;
          out[idx] = g * x_hat + b;
        }
      }
    }
  });
}

void BatchNorm::backward_into(const Tensor& grad_output, Tensor& grad_input) {
  ZKG_REQUIRE_SHAPE(grad_output, cached_input_shape_, "BatchNorm backward");
  const Layout l = layout_of(cached_input_shape_, features_);
  const auto n = static_cast<float>(l.count());

  ensure_shape(grad_input, cached_input_shape_);
  // The flag is thread-local: read it here, not inside the chunk body,
  // which runs on pool workers. Training-mode dx needs the sums anyway.
  const bool param_grads = param_grads_enabled();
  const bool need_sums = param_grads || cached_training_;
  // Per-feature gradients touch disjoint slices of grad_input and of the
  // gamma/beta gradient vectors.
  parallel_for(features_, parallel_grain(3 * l.count()),
               [&](std::int64_t f0, std::int64_t f1) {
    for (std::int64_t f = f0; f < f1; ++f) {
      // Parameter gradients.
      double d_gamma = 0.0;
      double d_beta = 0.0;
      if (need_sums) {
        for (std::int64_t r = 0; r < l.rows; ++r) {
          for (std::int64_t i = 0; i < l.inner; ++i) {
            const std::int64_t idx = index_of(l, r, f, i);
            d_gamma += grad_output[idx] * cached_normalized_[idx];
            d_beta += grad_output[idx];
          }
        }
      }
      if (param_grads) {
        gamma_.grad()[f] += static_cast<float>(d_gamma);
        beta_.grad()[f] += static_cast<float>(d_beta);
      }

      const float g = gamma_.value()[f];
      const float inv_std = cached_inv_std_[f];
      if (!cached_training_) {
        // Inference statistics are constants: dx = g * inv_std * dy.
        for (std::int64_t r = 0; r < l.rows; ++r) {
          for (std::int64_t i = 0; i < l.inner; ++i) {
            const std::int64_t idx = index_of(l, r, f, i);
            grad_input[idx] = grad_output[idx] * g * inv_std;
          }
        }
        continue;
      }
      // Training: mean/var depend on the batch.
      // dx = g*inv_std/n * (n*dy - sum(dy) - x_hat * sum(dy*x_hat)).
      const float sum_dy = static_cast<float>(d_beta);
      const float sum_dy_xhat = static_cast<float>(d_gamma);
      const float scale = g * inv_std / n;
      for (std::int64_t r = 0; r < l.rows; ++r) {
        for (std::int64_t i = 0; i < l.inner; ++i) {
          const std::int64_t idx = index_of(l, r, f, i);
          grad_input[idx] = scale * (n * grad_output[idx] - sum_dy -
                                     cached_normalized_[idx] * sum_dy_xhat);
        }
      }
    }
  });
}

std::string BatchNorm::name() const {
  std::ostringstream out;
  out << "BatchNorm(" << features_ << ")";
  return out.str();
}

}  // namespace zkg::nn
