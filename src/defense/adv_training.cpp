#include "defense/adv_training.hpp"

#include "attacks/fgsm.hpp"
#include "attacks/pgd.hpp"
#include "nn/loss.hpp"
#include "obs/telemetry.hpp"
#include "tensor/ops.hpp"

namespace zkg::defense {

AdversarialTrainer::AdversarialTrainer(models::Classifier& model,
                                       TrainConfig config,
                                       attacks::AttackPtr attack,
                                       std::string display_name)
    : Trainer(model, config),
      attack_(std::move(attack)),
      display_name_(std::move(display_name)) {
  ZKG_CHECK(attack_ != nullptr) << " AdversarialTrainer without attack";
  add_rngs("attack.rng.", *attack_);
}

BatchStats AdversarialTrainer::train_batch(const data::Batch& batch) {
  {
    ZKG_SPAN("train.attack_gen");
    attack_->generate_into(model_, batch.images, batch.labels, adversarial_);
  }

  concat_rows_into(combined_, batch.images, adversarial_);
  std::vector<std::int64_t> labels = batch.labels;
  labels.insert(labels.end(), batch.labels.begin(), batch.labels.end());

  float loss;
  {
    ZKG_SPAN("train.forward_backward");
    model_.zero_grad();
    model_.forward_into(combined_, logits_, /*training=*/true);
    loss = nn::softmax_cross_entropy_into(logits_, labels, grad_);
    model_.backward_params(grad_);
  }
  {
    ZKG_SPAN("train.optimizer");
    optimizer_->step();
    model_.zero_grad();
  }
  return {loss, 0.0f};
}

TrainerPtr make_fgsm_adv(models::Classifier& model, TrainConfig config) {
  return std::make_unique<AdversarialTrainer>(
      model, config, std::make_unique<attacks::Fgsm>(config.attack),
      "FGSM-Adv");
}

TrainerPtr make_pgd_adv(models::Classifier& model, TrainConfig config) {
  Rng attack_rng(config.seed ^ 0xadf00dULL);
  return std::make_unique<AdversarialTrainer>(
      model, config,
      std::make_unique<attacks::Pgd>(config.attack, attack_rng), "PGD-Adv");
}

}  // namespace zkg::defense
