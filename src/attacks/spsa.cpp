#include "attacks/spsa.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/ops.hpp"
#include "tensor/pool.hpp"

namespace zkg::attacks {
namespace {

// Per-example margin loss from logits only (no gradients): the attacker
// maximises  max_{k != t} z_k - z_t.
void margin_loss_into(const Tensor& logits,
                      const std::vector<std::int64_t>& labels,
                      std::vector<float>& losses) {
  const std::int64_t batch = logits.dim(0);
  const std::int64_t classes = logits.dim(1);
  losses.resize(static_cast<std::size_t>(batch));
  for (std::int64_t i = 0; i < batch; ++i) {
    const std::int64_t label = labels[static_cast<std::size_t>(i)];
    float best_other = -std::numeric_limits<float>::infinity();
    for (std::int64_t c = 0; c < classes; ++c) {
      if (c == label) continue;
      best_other = std::max(best_other, logits[i * classes + c]);
    }
    losses[static_cast<std::size_t>(i)] =
        best_other - logits[i * classes + label];
  }
}

}  // namespace

Spsa::Spsa(AttackBudget budget, Rng& rng, float delta, std::int64_t samples)
    : budget_(budget), rng_(rng.fork()), delta_(delta), samples_(samples) {
  ZKG_CHECK(budget_.epsilon >= 0.0f && budget_.step_size > 0.0f &&
            budget_.iterations > 0 && delta > 0.0f && samples > 0)
      << " SPSA budget (eps=" << budget_.epsilon
      << ", step=" << budget_.step_size << ", iters=" << budget_.iterations
      << ", delta=" << delta << ", samples=" << samples << ")";
}

Tensor Spsa::generate(models::Classifier& model, const Tensor& images,
                      const std::vector<std::int64_t>& labels) {
  Tensor adv;
  generate_into(model, images, labels, adv);
  return adv;
}

void Spsa::generate_into(models::Classifier& model, const Tensor& images,
                         const std::vector<std::int64_t>& labels,
                         Tensor& adv) {
  const std::int64_t batch = images.dim(0);
  const std::int64_t stride = images.numel() / batch;
  // margin_loss_into indexes the logits by label.
  check_labels(labels, batch, model.spec().num_classes);

  ensure_shape(adv, images.shape());
  std::copy(images.data(), images.data() + images.numel(), adv.data());
  ensure_shape(direction_, images.shape());
  ensure_shape(probe_, images.shape());
  ensure_shape(grad_estimate_, images.shape());

  for (std::int64_t it = 0; it < budget_.iterations; ++it) {
    std::fill(grad_estimate_.data(),
              grad_estimate_.data() + grad_estimate_.numel(), 0.0f);
    for (std::int64_t s = 0; s < samples_; ++s) {
      // Rademacher probe direction.
      for (std::int64_t p = 0; p < direction_.numel(); ++p) {
        direction_[p] = rng_.bernoulli(0.5f) ? 1.0f : -1.0f;
      }
      // Query-only access: forward passes, no backward. One probe buffer
      // serves both sides of the finite difference.
      std::copy(adv.data(), adv.data() + adv.numel(), probe_.data());
      axpy_(probe_, delta_, direction_);
      model.forward_into(probe_, logits_, /*training=*/false);
      margin_loss_into(logits_, labels, loss_plus_);

      std::copy(adv.data(), adv.data() + adv.numel(), probe_.data());
      axpy_(probe_, -delta_, direction_);
      model.forward_into(probe_, logits_, /*training=*/false);
      margin_loss_into(logits_, labels, loss_minus_);

      for (std::int64_t i = 0; i < batch; ++i) {
        const float scale =
            (loss_plus_[static_cast<std::size_t>(i)] -
             loss_minus_[static_cast<std::size_t>(i)]) /
            (2.0f * delta_);
        float* g = grad_estimate_.data() + i * stride;
        const float* d = direction_.data() + i * stride;
        // d(loss)/dx_j ~= scale / d_j = scale * d_j (Rademacher: d_j = ±1).
        for (std::int64_t p = 0; p < stride; ++p) g[p] += scale * d[p];
      }
    }
    add_scaled_sign_(adv, budget_.step_size, grad_estimate_);
    project_linf_(adv, images, budget_.epsilon);
  }
}

}  // namespace zkg::attacks
