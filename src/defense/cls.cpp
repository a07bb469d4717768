#include "defense/cls.hpp"

#include "data/preprocess.hpp"
#include "nn/loss.hpp"
#include "obs/telemetry.hpp"
#include "tensor/ops.hpp"

namespace zkg::defense {

BatchStats ClsTrainer::train_batch(const data::Batch& batch) {
  {
    ZKG_SPAN("train.augment");
    data::gaussian_augment_into(perturbed_, batch.images, noise_rng_,
                                config_.sigma);
  }

  float ce_loss;
  float squeeze_loss;
  {
    ZKG_SPAN("train.forward_backward");
    model_.zero_grad();
    model_.forward_into(perturbed_, logits_, /*training=*/true);
    ce_loss = nn::softmax_cross_entropy_into(logits_, batch.labels, grad_);
    squeeze_loss =
        nn::clean_logit_squeezing_into(logits_, config_.lambda, squeeze_grad_);

    add_(grad_, squeeze_grad_);

    model_.backward_params(grad_);
  }
  {
    ZKG_SPAN("train.optimizer");
    optimizer_->step();
    model_.zero_grad();
  }
  return {ce_loss + squeeze_loss, 0.0f};
}

}  // namespace zkg::defense
