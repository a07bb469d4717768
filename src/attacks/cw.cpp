#include "attacks/cw.hpp"

#include <cmath>

#include "nn/parameter.hpp"
#include "tensor/pool.hpp"

namespace zkg::attacks {

CarliniWagner::CarliniWagner(AttackBudget budget, float kappa, float adam_lr)
    : budget_(budget), kappa_(kappa), adam_lr_(adam_lr) {
  ZKG_CHECK(budget_.iterations > 0 && kappa >= 0.0f && adam_lr > 0.0f)
      << " CW budget (iters=" << budget_.iterations << ", kappa=" << kappa
      << ", lr=" << adam_lr << ")";
}

Tensor CarliniWagner::generate(models::Classifier& model, const Tensor& images,
                               const std::vector<std::int64_t>& labels) {
  const std::int64_t batch = images.dim(0);
  const std::int64_t classes = model.spec().num_classes;
  check_labels(labels, batch, classes);

  Tensor adv = images;
  // Adam state over the perturbation variable.
  Tensor m(images.shape());
  Tensor v(images.shape());
  const float beta1 = 0.9f;
  const float beta2 = 0.999f;
  const float eps_hat = 1e-8f;

  // The attack needs only input gradients; parameter gradients stay as the
  // caller left them.
  const nn::InputGradOnly input_grad_only;
  ensure_shape(seed_, {batch, classes});
  for (std::int64_t it = 1; it <= budget_.iterations; ++it) {
    model.forward_into(adv, logits_, /*training=*/false);

    // Seed gradient of the margin loss: +1 on the true class, -1 on the
    // strongest other class, but only while the margin exceeds -kappa.
    seed_.fill(0.0f);
    for (std::int64_t i = 0; i < batch; ++i) {
      const std::int64_t label = labels[static_cast<std::size_t>(i)];
      std::int64_t runner_up = label == 0 ? 1 : 0;
      for (std::int64_t c = 0; c < classes; ++c) {
        if (c == label) continue;
        if (logits_[i * classes + c] > logits_[i * classes + runner_up]) {
          runner_up = c;
        }
      }
      const float margin =
          logits_[i * classes + label] - logits_[i * classes + runner_up];
      if (margin > -kappa_) {
        seed_[i * classes + label] = 1.0f;
        seed_[i * classes + runner_up] = -1.0f;
      }
    }
    model.backward_into(seed_, grad_);

    // Adam step descending the margin (we minimise z_t - z_runner_up).
    const float bias1 = 1.0f - std::pow(beta1, static_cast<float>(it));
    const float bias2 = 1.0f - std::pow(beta2, static_cast<float>(it));
    float* pm = m.data();
    float* pv = v.data();
    float* pa = adv.data();
    const float* pg = grad_.data();
    for (std::int64_t p = 0; p < adv.numel(); ++p) {
      pm[p] = beta1 * pm[p] + (1.0f - beta1) * pg[p];
      pv[p] = beta2 * pv[p] + (1.0f - beta2) * pg[p] * pg[p];
      const float m_hat = pm[p] / bias1;
      const float v_hat = pv[p] / bias2;
      pa[p] -= adam_lr_ * m_hat / (std::sqrt(v_hat) + eps_hat);
    }
    project_linf_(adv, images, budget_.epsilon);
  }
  return adv;
}

}  // namespace zkg::attacks
