// Carlini & Wagner style margin attack (Carlini & Wagner, S&P 2017).
//
// Optimises the CW margin objective  f(x') = max(z_t - max_{k!=t} z_k, -kappa)
// with Adam over the perturbation, projecting onto the epsilon l_inf ball
// each step (the paper evaluates CW under the same budget as PGD). The Adam
// direction and margin objective give perturbation patterns clearly distinct
// from signed-CE-gradient attacks, which is what Table IV exercises.
#pragma once

#include "attacks/attack.hpp"

namespace zkg::attacks {

class CarliniWagner : public Attack {
 public:
  /// `kappa` is the confidence margin (0 = just cross the boundary),
  /// `adam_lr` the optimiser step size on the perturbation.
  CarliniWagner(AttackBudget budget, float kappa = 0.0f, float adam_lr = 0.01f);

  std::string name() const override { return "CW"; }
  Tensor generate(models::Classifier& model, const Tensor& images,
                  const std::vector<std::int64_t>& labels) override;

 private:
  AttackBudget budget_;
  float kappa_;
  float adam_lr_;
  // Per-iteration temporaries reused across calls (pool-miss-free at steady
  // state).
  Tensor logits_;
  Tensor seed_;
  Tensor grad_;
};

}  // namespace zkg::attacks
