// DeepFool (Moosavi-Dezfooli et al., CVPR 2016): iteratively steps toward the
// nearest linearised decision boundary. Produces minimal-norm perturbations
// whose pattern differs markedly from signed-gradient attacks — the paper
// uses it (Table IV) to test ZK-GanDef's generalisability beyond
// Gaussian-like noise.
//
// The final perturbation is projected onto the same epsilon ball as PGD,
// matching the paper's "same hyper-parameter setting" protocol.
#pragma once

#include "attacks/attack.hpp"

namespace zkg::attacks {

class DeepFool : public Attack {
 public:
  /// `overshoot` inflates each boundary step (paper value 0.02).
  DeepFool(AttackBudget budget, float overshoot = 0.02f);

  std::string name() const override { return "DeepFool"; }
  Tensor generate(models::Classifier& model, const Tensor& images,
                  const std::vector<std::int64_t>& labels) override;

 private:
  AttackBudget budget_;
  float overshoot_;
  // Per-iteration temporaries reused across calls (pool-miss-free at steady
  // state): the logits, the one-hot backward seed and one input gradient
  // per class.
  Tensor logits_;
  Tensor seed_;
  std::vector<Tensor> class_grads_;
};

}  // namespace zkg::attacks
