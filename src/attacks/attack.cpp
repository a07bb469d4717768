#include "attacks/attack.hpp"

#include <algorithm>
#include <cmath>

#include "common/parallel.hpp"
#include "data/preprocess.hpp"
#include "nn/loss.hpp"
#include "nn/parameter.hpp"
#include "obs/telemetry.hpp"
#include "tensor/ops.hpp"

namespace zkg::attacks {

float input_gradient_into(models::Classifier& model, const Tensor& images,
                          const std::vector<std::int64_t>& labels,
                          GradientScratch& scratch, Tensor& grad) {
  ZKG_COUNT("attack.grad_queries", 1);
  model.forward_into(images, scratch.logits, /*training=*/false);
  const float loss =
      nn::softmax_cross_entropy_into(scratch.logits, labels, scratch.loss_grad);
  const nn::InputGradOnly input_grad_only;
  model.backward_into(scratch.loss_grad, grad);
  return loss;
}

void per_example_loss_into(models::Classifier& model, const Tensor& images,
                           const std::vector<std::int64_t>& labels,
                           GradientScratch& scratch,
                           std::vector<float>& losses) {
  model.forward_into(images, scratch.logits, /*training=*/false);
  const Tensor& logits = scratch.logits;
  const std::int64_t batch = logits.dim(0);
  const std::int64_t classes = logits.dim(1);
  check_labels(labels, batch, classes);
  Tensor& probs = scratch.loss_grad;
  softmax_rows_into(probs, logits);
  losses.resize(static_cast<std::size_t>(batch));
  for (std::int64_t i = 0; i < batch; ++i) {
    const std::int64_t label = labels[static_cast<std::size_t>(i)];
    losses[static_cast<std::size_t>(i)] =
        -std::log(probs[i * classes + label] + 1e-30f);
  }
}

void check_labels(const std::vector<std::int64_t>& labels, std::int64_t batch,
                  std::int64_t num_classes) {
  ZKG_REQUIRE(static_cast<std::int64_t>(labels.size()) == batch)
      << " " << labels.size() << " labels for batch " << batch;
  for (const std::int64_t label : labels) {
    ZKG_REQUIRE(label >= 0 && label < num_classes)
        << " label " << label << " outside [0, " << num_classes << ")";
  }
}

void project_linf_(Tensor& adv, const Tensor& origin, float eps) {
  check_same_shape(adv, origin, "project_linf_");
  ZKG_CHECK(eps >= 0.0f) << " eps " << eps;
  float* pa = adv.data();
  const float* po = origin.data();
  parallel_for_elements(adv.numel(), [&](std::int64_t begin,
                                         std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      const float lo = std::max(po[i] - eps, data::kPixelMin);
      const float hi = std::min(po[i] + eps, data::kPixelMax);
      pa[i] = std::clamp(pa[i], lo, hi);
    }
  });
}

}  // namespace zkg::attacks
