#include "nn/loss.hpp"

#include <cmath>

#include "tensor/contracts.hpp"
#include "tensor/ops.hpp"
#include "tensor/pool.hpp"

namespace zkg::nn {

float softmax_cross_entropy_into(const Tensor& logits,
                                 const std::vector<std::int64_t>& labels,
                                 Tensor& grad) {
  ZKG_REQUIRE_RANK(logits, 2, "softmax_cross_entropy");
  const std::int64_t batch = logits.dim(0);
  const std::int64_t classes = logits.dim(1);
  ZKG_REQUIRE(static_cast<std::int64_t>(labels.size()) == batch)
      << " " << labels.size() << " labels for batch " << batch;
  ZKG_REQUIRE(batch > 0) << " empty batch";

  softmax_rows_into(grad, logits);
  double total = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (std::int64_t i = 0; i < batch; ++i) {
    const std::int64_t label = labels[static_cast<std::size_t>(i)];
    ZKG_REQUIRE_INDEX(label, classes, "softmax_cross_entropy")
        << " (label)";
    const float p = grad[i * classes + label];
    // softmax output is strictly positive, but guard against denormal drift.
    total += -std::log(static_cast<double>(p) + 1e-30);
    grad[i * classes + label] -= 1.0f;
  }
  mul_(grad, inv_batch);
  return static_cast<float>(total / static_cast<double>(batch));
}

float bce_with_logits_into(const Tensor& logits, const Tensor& targets,
                           Tensor& grad) {
  check_same_shape(logits, targets, "bce_with_logits");
  const std::int64_t n = logits.numel();
  ZKG_REQUIRE(n > 0) << " empty batch";
  ensure_shape(grad, logits.shape());
  double total = 0.0;
  const float inv = 1.0f / static_cast<float>(n);
  const float* z = logits.data();
  const float* t = targets.data();
  float* g = grad.data();
  for (std::int64_t i = 0; i < n; ++i) {
    // loss = max(z,0) - z t + log(1 + exp(-|z|)); grad = sigmoid(z) - t.
    const float zi = z[i];
    total += std::fmax(zi, 0.0f) - zi * t[i] +
             std::log1p(std::exp(-std::fabs(zi)));
    const float s = 1.0f / (1.0f + std::exp(-zi));
    g[i] = (s - t[i]) * inv;
  }
  return static_cast<float>(total / static_cast<double>(n));
}

void sigmoid_into(Tensor& out, const Tensor& logits) {
  ensure_shape(out, logits.shape());
  const float* z = logits.data();
  float* p = out.data();
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    p[i] = 1.0f / (1.0f + std::exp(-z[i]));
  }
}

PairPenaltyResult clean_logit_pairing(const Tensor& logits_a,
                                      const Tensor& logits_b, float lambda) {
  check_same_shape(logits_a, logits_b, "clean_logit_pairing");
  ZKG_REQUIRE_RANK(logits_a, 2, "clean_logit_pairing");
  const std::int64_t batch = logits_a.dim(0);
  ZKG_REQUIRE(batch > 0) << " empty batch";

  PairPenaltyResult result;
  Tensor diff(logits_a.shape());  // pre-sized: no pool buffer taken
  sub_into(diff, logits_a, logits_b);
  const std::int64_t cols = diff.dim(1);
  result.grad_a = Tensor(diff.shape());
  result.grad_b = Tensor(diff.shape());
  double total = 0.0;
  const float inv_batch = lambda / static_cast<float>(batch);
  for (std::int64_t i = 0; i < batch; ++i) {
    double norm2 = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float d = diff[i * cols + c];
      norm2 += static_cast<double>(d) * d;
    }
    total += norm2;
    // d/dz_a [ lambda/B * ||z_a - z_b||^2 ] = 2 lambda/B * (z_a - z_b).
    const float scale = 2.0f * inv_batch;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float g = diff[i * cols + c] * scale;
      result.grad_a[i * cols + c] = g;
      result.grad_b[i * cols + c] = -g;
    }
  }
  result.value = lambda * static_cast<float>(total) / static_cast<float>(batch);
  return result;
}

float clean_logit_squeezing_into(const Tensor& logits, float lambda,
                                 Tensor& grad) {
  ZKG_REQUIRE_RANK(logits, 2, "clean_logit_squeezing");
  const std::int64_t batch = logits.dim(0);
  ZKG_REQUIRE(batch > 0) << " empty batch";
  const std::int64_t cols = logits.dim(1);
  ensure_shape(grad, logits.shape());
  double total = 0.0;
  const float inv_batch = lambda / static_cast<float>(batch);
  for (std::int64_t i = 0; i < batch; ++i) {
    double norm2 = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float z = logits[i * cols + c];
      norm2 += static_cast<double>(z) * z;
    }
    total += norm2;
    const float scale = 2.0f * inv_batch;
    for (std::int64_t c = 0; c < cols; ++c) {
      grad[i * cols + c] = logits[i * cols + c] * scale;
    }
  }
  return lambda * static_cast<float>(total) / static_cast<float>(batch);
}

}  // namespace zkg::nn
