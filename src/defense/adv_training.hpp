// Full-knowledge adversarial training (Goodfellow et al. 2015; Madry et al.
// 2017): each batch is extended with adversarial counterparts generated by a
// live attack against the current model, and the classifier minimises
// cross-entropy over the clean+adversarial union.
//
// FGSM-Adv and PGD-Adv are this trainer parameterised by the attack.
#pragma once

#include "attacks/attack.hpp"
#include "defense/trainer.hpp"

namespace zkg::defense {

class AdversarialTrainer : public Trainer {
 public:
  /// `attack` generates the training adversarial examples (the expensive
  /// step that Figure 5 charges to the full-knowledge defenses).
  AdversarialTrainer(models::Classifier& model, TrainConfig config,
                     attacks::AttackPtr attack, std::string display_name);

  std::string name() const override { return display_name_; }

 protected:
  BatchStats train_batch(const data::Batch& batch) override;

 private:
  attacks::AttackPtr attack_;
  std::string display_name_;
  // Per-batch temporaries reused across steps.
  Tensor adversarial_;
  Tensor combined_;
  Tensor logits_;
  Tensor grad_;
};

/// FGSM-Adv with the budget in `config.attack`.
TrainerPtr make_fgsm_adv(models::Classifier& model, TrainConfig config);

/// PGD-Adv with the budget in `config.attack`.
TrainerPtr make_pgd_adv(models::Classifier& model, TrainConfig config);

}  // namespace zkg::defense
