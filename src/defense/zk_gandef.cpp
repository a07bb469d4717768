#include "defense/zk_gandef.hpp"

#include <cmath>

#include "data/preprocess.hpp"
#include "nn/loss.hpp"
#include "nn/parameter.hpp"
#include "obs/telemetry.hpp"
#include "tensor/ops.hpp"
#include "tensor/pool.hpp"

namespace zkg::defense {

GanDefTrainerBase::GanDefTrainerBase(models::Classifier& model,
                                     TrainConfig config)
    : Trainer(model, config),
      discriminator_(model.spec().num_classes, rng_) {
  // gamma / disc_steps ranges are enforced by TrainConfig::validate(),
  // which the Trainer base constructor runs before we get here.
  disc_optimizer_ = std::make_unique<optim::Adam>(
      discriminator_.parameters(),
      optim::AdamConfig{.learning_rate = config_.disc_learning_rate});
  // Checkpointed as optimizers[1] and the "discriminator" tensor group;
  // the rollback LR decay applies to both players of the minimax game.
  add_optimizer(*disc_optimizer_);
  add_network("discriminator", discriminator_.net());
  add_rngs("discriminator.rng.", discriminator_);
}

float GanDefTrainerBase::update_discriminator(const Tensor& class_logits,
                                              const Tensor& source_flags) {
  discriminator_.zero_grad();
  discriminator_.forward_into(class_logits, d_logits_, /*training=*/true);
  const float bce_loss =
      nn::bce_with_logits_into(d_logits_, source_flags, d_grad_);
  discriminator_.backward_params(d_grad_);
  disc_optimizer_->step();
  discriminator_.zero_grad();

  // Diagnostic accuracy of the source predictions (same sigmoid formula as
  // nn::sigmoid_into, computed pointwise to avoid a probability buffer).
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < d_logits_.numel(); ++i) {
    const float prob = 1.0f / (1.0f + std::exp(-d_logits_[i]));
    const bool said_perturbed = prob > 0.5f;
    const bool is_perturbed = source_flags[i] > 0.5f;
    if (said_perturbed == is_perturbed) ++correct;
  }
  last_disc_accuracy_ =
      static_cast<float>(correct) / static_cast<float>(d_logits_.numel());
  return bce_loss;
}

float GanDefTrainerBase::update_classifier(
    const Tensor& logits, const std::vector<std::int64_t>& labels,
    const Tensor& source_flags) {
  model_.zero_grad();
  const float ce_loss =
      nn::softmax_cross_entropy_into(logits, labels, grad_);

  // Gradient of the (frozen) discriminator's BCE w.r.t. the logits. The
  // backward runs under InputGradOnly, so D's parameter gradients are never
  // computed: "fix Omega_D" in Algorithm 1, done literally.
  discriminator_.forward_into(logits, d_logits_, /*training=*/true);
  nn::bce_with_logits_into(d_logits_, source_flags, d_grad_);
  {
    const nn::InputGradOnly frozen_discriminator;
    discriminator_.backward_into(d_grad_, bce_grad_wrt_logits_);
  }

  // min_C  CE - gamma * BCE  =>  dL/dz = dCE/dz - gamma * dBCE/dz.
  axpy_(grad_, -config_.gamma, bce_grad_wrt_logits_);

  model_.backward_params(grad_);
  optimizer_->step();
  model_.zero_grad();
  return ce_loss;
}

BatchStats GanDefTrainerBase::train_batch(const data::Batch& batch) {
  // Evenly sampled clean and perturbed halves (Algorithm 1 lines 4/9). The
  // whole batch contributes in both roles: clean copies first, perturbed
  // copies second.
  {
    ZKG_SPAN("train.attack_gen");
    make_perturbed_into(batch.images, batch.labels, perturbed_);
  }
  concat_rows_into(combined_, batch.images, perturbed_);
  combined_labels_.assign(batch.labels.begin(), batch.labels.end());
  combined_labels_.insert(combined_labels_.end(), batch.labels.begin(),
                          batch.labels.end());

  ensure_shape(source_flags_, {2 * batch.size(), 1});
  for (std::int64_t i = 0; i < batch.size(); ++i) {
    source_flags_[i] = 0.0f;  // 0 = clean
  }
  for (std::int64_t i = batch.size(); i < 2 * batch.size(); ++i) {
    source_flags_[i] = 1.0f;  // 1 = perturbed
  }

  // One training forward per batch, since C is frozen while D trains: its
  // logits feed every D step, and update_classifier back-propagates through
  // the layer caches it leaves (D's passes touch only D's caches).
  model_.forward_into(combined_, logits_, /*training=*/true);

  // Discriminator iterations (classifier frozen).
  float disc_loss = 0.0f;
  {
    ZKG_SPAN("train.disc_step");
    for (std::int64_t step = 0; step < config_.disc_steps; ++step) {
      disc_loss = update_discriminator(logits_, source_flags_);
    }
  }

  // One classifier update (discriminator frozen).
  ZKG_SPAN("train.classifier_step");
  const float ce = update_classifier(logits_, combined_labels_,
                                     source_flags_);
  return {ce, disc_loss};
}

void ZkGanDefTrainer::make_perturbed_into(
    const Tensor& images, const std::vector<std::int64_t>& /*labels*/,
    Tensor& out) {
  data::gaussian_augment_into(out, images, noise_rng_, config_.sigma);
}

}  // namespace zkg::defense
