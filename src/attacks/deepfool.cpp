#include "attacks/deepfool.hpp"

#include <cmath>
#include <limits>

#include "nn/parameter.hpp"
#include "tensor/pool.hpp"

namespace zkg::attacks {

DeepFool::DeepFool(AttackBudget budget, float overshoot)
    : budget_(budget), overshoot_(overshoot) {
  ZKG_CHECK(budget_.iterations > 0 && overshoot >= 0.0f)
      << " DeepFool budget (iters=" << budget_.iterations
      << ", overshoot=" << overshoot << ")";
}

Tensor DeepFool::generate(models::Classifier& model, const Tensor& images,
                          const std::vector<std::int64_t>& labels) {
  const std::int64_t batch = images.dim(0);
  const std::int64_t stride = images.numel() / batch;
  const std::int64_t classes = model.spec().num_classes;
  check_labels(labels, batch, classes);

  Tensor adv = images;
  std::vector<bool> active(static_cast<std::size_t>(batch), true);

  // The attack needs only input gradients; parameter gradients stay as the
  // caller left them.
  const nn::InputGradOnly input_grad_only;
  ensure_shape(seed_, {batch, classes});
  class_grads_.resize(static_cast<std::size_t>(classes));
  for (std::int64_t it = 0; it < budget_.iterations; ++it) {
    model.forward_into(adv, logits_, /*training=*/false);

    // Per-class input gradients for the whole batch: one backward pass per
    // class with a one-hot seed (valid because layer caches persist until
    // the next forward).
    for (std::int64_t c = 0; c < classes; ++c) {
      seed_.fill(0.0f);
      for (std::int64_t i = 0; i < batch; ++i) seed_[i * classes + c] = 1.0f;
      model.backward_into(seed_, class_grads_[static_cast<std::size_t>(c)]);
    }

    bool any_active = false;
    for (std::int64_t i = 0; i < batch; ++i) {
      if (!active[static_cast<std::size_t>(i)]) continue;
      const std::int64_t label = labels[static_cast<std::size_t>(i)];

      // Stop once the example is already misclassified.
      std::int64_t pred = 0;
      for (std::int64_t c = 1; c < classes; ++c) {
        if (logits_[i * classes + c] > logits_[i * classes + pred]) pred = c;
      }
      if (pred != label) {
        active[static_cast<std::size_t>(i)] = false;
        continue;
      }
      any_active = true;

      // Closest linearised boundary: min over k != label of |f_k| / ||w_k||
      // with f_k = z_k - z_label, w_k = grad z_k - grad z_label.
      float best_ratio = std::numeric_limits<float>::infinity();
      std::int64_t best_k = -1;
      float best_fk = 0.0f;
      double best_wnorm2 = 0.0;
      for (std::int64_t k = 0; k < classes; ++k) {
        if (k == label) continue;
        const float fk =
            logits_[i * classes + k] - logits_[i * classes + label];
        double wnorm2 = 0.0;
        const float* gk = class_grads_[static_cast<std::size_t>(k)].data() +
                          i * stride;
        const float* gl = class_grads_[static_cast<std::size_t>(label)].data() +
                          i * stride;
        for (std::int64_t p = 0; p < stride; ++p) {
          const double w = static_cast<double>(gk[p]) - gl[p];
          wnorm2 += w * w;
        }
        if (wnorm2 < 1e-20) continue;
        const float ratio =
            std::fabs(fk) / static_cast<float>(std::sqrt(wnorm2));
        if (ratio < best_ratio) {
          best_ratio = ratio;
          best_k = k;
          best_fk = fk;
          best_wnorm2 = wnorm2;
        }
      }
      if (best_k < 0) continue;

      // r = |f_k| / ||w||^2 * w, inflated by (1 + overshoot).
      const float scale = (std::fabs(best_fk) + 1e-4f) /
                          static_cast<float>(best_wnorm2) *
                          (1.0f + overshoot_);
      const float* gk = class_grads_[static_cast<std::size_t>(best_k)].data() +
                        i * stride;
      const float* gl = class_grads_[static_cast<std::size_t>(label)].data() +
                        i * stride;
      float* pa = adv.data() + i * stride;
      for (std::int64_t p = 0; p < stride; ++p) {
        pa[p] += scale * (gk[p] - gl[p]);
      }
    }
    project_linf_(adv, images, budget_.epsilon);
    if (!any_active) break;
  }
  return adv;
}

}  // namespace zkg::attacks
