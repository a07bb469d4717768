// Clean Logit Squeezing (Kannan et al., 2018; paper Figure 2b).
//
// Trains only on Gaussian-perturbed examples with an l2 penalty on the raw
// logits:  CE(z, t) + lambda * mean ||z||^2.
#pragma once

#include "defense/trainer.hpp"

namespace zkg::defense {

class ClsTrainer : public Trainer {
 public:
  ClsTrainer(models::Classifier& model, TrainConfig config)
      : Trainer(model, config), noise_rng_(rng_.fork()) {
    add_rng("noise", noise_rng_);
  }

  std::string name() const override { return "CLS"; }

 protected:
  BatchStats train_batch(const data::Batch& batch) override;

 private:
  Rng noise_rng_;
  // Per-batch temporaries reused across steps.
  Tensor perturbed_;
  Tensor logits_;
  Tensor grad_;
  Tensor squeeze_grad_;
};

}  // namespace zkg::defense
