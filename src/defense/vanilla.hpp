// Vanilla training: plain cross-entropy on clean examples — the paper's
// undefended baseline classifier.
#pragma once

#include "defense/trainer.hpp"

namespace zkg::defense {

class VanillaTrainer : public Trainer {
 public:
  VanillaTrainer(models::Classifier& model, TrainConfig config)
      : Trainer(model, config) {}

  std::string name() const override { return "Vanilla"; }

 protected:
  BatchStats train_batch(const data::Batch& batch) override;

 private:
  // Per-batch temporaries reused across steps.
  Tensor logits_;
  Tensor grad_;
};

}  // namespace zkg::defense
