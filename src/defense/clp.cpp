#include "defense/clp.hpp"

#include "data/preprocess.hpp"
#include "nn/loss.hpp"
#include "obs/telemetry.hpp"
#include "tensor/ops.hpp"

namespace zkg::defense {

BatchStats ClpTrainer::train_batch(const data::Batch& batch) {
  const std::int64_t half = batch.size() / 2;
  if (half == 0) return {0.0f, 0.0f};  // cannot pair a single example

  // Both pair members are Gaussian-perturbed examples (CLP never sees clean
  // inputs — a root cause of its CIFAR10 convergence failure, §V-D).
  {
    ZKG_SPAN("train.augment");
    data::gaussian_augment_into(perturbed_, batch.images, noise_rng_,
                                config_.sigma);
  }

  float ce_loss;
  float pair_value;
  {
    ZKG_SPAN("train.forward_backward");
    model_.zero_grad();
    model_.forward_into(perturbed_.slice_rows(0, 2 * half), logits_,
                        /*training=*/true);
    const std::vector<std::int64_t> labels(batch.labels.begin(),
                                           batch.labels.begin() + 2 * half);

    ce_loss = nn::softmax_cross_entropy_into(logits_, labels, grad_);
    const Tensor z1 = logits_.slice_rows(0, half);
    const Tensor z2 = logits_.slice_rows(half, 2 * half);
    const nn::PairPenaltyResult pair =
        nn::clean_logit_pairing(z1, z2, config_.lambda);
    pair_value = pair.value;

    concat_rows_into(pair_grad_, pair.grad_a, pair.grad_b);
    add_(grad_, pair_grad_);

    model_.backward_params(grad_);
  }
  {
    ZKG_SPAN("train.optimizer");
    optimizer_->step();
    model_.zero_grad();
  }
  return {ce_loss + pair_value, 0.0f};
}

}  // namespace zkg::defense
