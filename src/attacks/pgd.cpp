#include "attacks/pgd.hpp"

#include <random>

#include "obs/telemetry.hpp"
#include "tensor/ops.hpp"
#include "tensor/pool.hpp"
#include "tensor/random.hpp"

namespace zkg::attacks {

Pgd::Pgd(AttackBudget budget, Rng& rng) : budget_(budget), rng_(rng.fork()) {
  ZKG_CHECK(budget_.epsilon >= 0.0f && budget_.step_size > 0.0f &&
            budget_.iterations > 0 && budget_.restarts > 0)
      << " PGD budget (eps=" << budget_.epsilon
      << ", step=" << budget_.step_size << ", iters=" << budget_.iterations
      << ", restarts=" << budget_.restarts << ")";
}

void Pgd::run_once(models::Classifier& model, const Tensor& images,
                   const std::vector<std::int64_t>& labels, Tensor& adv) {
  ensure_shape(adv, images.shape());
  // adv = images + U(-eps, eps), drawing noise in the same element order as
  // the rand_uniform + add formulation. uniform_real_distribution keeps no
  // state between draws, so one instance yields rng_.uniform's stream.
  std::uniform_real_distribution<float> noise(-budget_.epsilon,
                                              budget_.epsilon);
  std::mt19937_64& engine = rng_.engine();
  const float* src = images.data();
  float* dst = adv.data();
  for (std::int64_t i = 0; i < images.numel(); ++i) {
    dst[i] = src[i] + noise(engine);
  }
  project_linf_(adv, images, budget_.epsilon);
  for (std::int64_t it = 0; it < budget_.iterations; ++it) {
    ZKG_SPAN("attack.pgd_iter");
    ZKG_COUNT("attack.steps", 1);
    input_gradient_into(model, adv, labels, scratch_, grad_);
    add_scaled_sign_(adv, budget_.step_size, grad_);
    project_linf_(adv, images, budget_.epsilon);
  }
}

Tensor Pgd::generate(models::Classifier& model, const Tensor& images,
                     const std::vector<std::int64_t>& labels) {
  Tensor adv;
  generate_into(model, images, labels, adv);
  return adv;
}

void Pgd::generate_into(models::Classifier& model, const Tensor& images,
                        const std::vector<std::int64_t>& labels, Tensor& best) {
  run_once(model, images, labels, best);
  if (budget_.restarts == 1) return;

  per_example_loss_into(model, best, labels, scratch_, best_loss_);
  const std::int64_t batch = images.dim(0);
  const std::int64_t stride = images.numel() / batch;
  for (std::int64_t r = 1; r < budget_.restarts; ++r) {
    run_once(model, images, labels, candidate_);
    per_example_loss_into(model, candidate_, labels, scratch_, cand_loss_);
    for (std::int64_t i = 0; i < batch; ++i) {
      if (cand_loss_[static_cast<std::size_t>(i)] >
          best_loss_[static_cast<std::size_t>(i)]) {
        best_loss_[static_cast<std::size_t>(i)] =
            cand_loss_[static_cast<std::size_t>(i)];
        std::copy(candidate_.data() + i * stride,
                  candidate_.data() + (i + 1) * stride,
                  best.data() + i * stride);
      }
    }
  }
}

}  // namespace zkg::attacks
