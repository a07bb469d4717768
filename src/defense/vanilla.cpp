#include "defense/vanilla.hpp"

#include "nn/loss.hpp"
#include "obs/telemetry.hpp"

namespace zkg::defense {

BatchStats VanillaTrainer::train_batch(const data::Batch& batch) {
  float loss;
  {
    ZKG_SPAN("train.forward_backward");
    model_.zero_grad();
    model_.forward_into(batch.images, logits_, /*training=*/true);
    loss = nn::softmax_cross_entropy_into(logits_, batch.labels, grad_);
    model_.backward_params(grad_);
  }
  {
    ZKG_SPAN("train.optimizer");
    optimizer_->step();
    model_.zero_grad();
  }
  return {loss, 0.0f};
}

}  // namespace zkg::defense
