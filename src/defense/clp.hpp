// Clean Logit Pairing (Kannan et al., 2018; paper Figure 2a).
//
// Trains only on Gaussian-perturbed examples; the batch is split into two
// halves whose logits are paired, and the total loss is
//   CE(z1, t1) + CE(z2, t2) + lambda * mean ||z1 - z2||^2.
#pragma once

#include "defense/trainer.hpp"

namespace zkg::defense {

class ClpTrainer : public Trainer {
 public:
  ClpTrainer(models::Classifier& model, TrainConfig config)
      : Trainer(model, config), noise_rng_(rng_.fork()) {
    add_rng("noise", noise_rng_);
  }

  std::string name() const override { return "CLP"; }

 protected:
  BatchStats train_batch(const data::Batch& batch) override;

 private:
  Rng noise_rng_;
  // Per-batch temporaries reused across steps.
  Tensor perturbed_;
  Tensor logits_;
  Tensor grad_;
  Tensor pair_grad_;
};

}  // namespace zkg::defense
