// ZK-GanDef — the paper's primary contribution (§III).
//
// A classifier C and a discriminator D (paper Table II) play the minimax
// game
//     min_C max_D  E[-log qC(z|x)] - gamma * E[-log qD(s|z = C(x))]
// where x is drawn evenly from clean and perturbed examples and s flags the
// source. Algorithm 1: per global iteration, `disc_steps` discriminator
// updates with C frozen, then one classifier update with D frozen; the
// classifier's logit gradient is  dCE/dz - gamma * dBCE/dz,  the second term
// back-propagated through D. Because C is frozen while D trains, each
// iteration runs one training forward of C: its logits feed every D update
// and the classifier update back-propagates through its layer caches.
//
// GanDefTrainerBase implements the game; the subclasses differ only in how
// the perturbed half of each batch is produced:
//   ZkGanDefTrainer  — Gaussian noise (zero knowledge),
//   PgdGanDefTrainer — PGD adversarial examples (full knowledge), declared
//                      in pgd_gandef.hpp.
#pragma once

#include "defense/trainer.hpp"
#include "models/discriminator.hpp"

namespace zkg::defense {

class GanDefTrainerBase : public Trainer {
 public:
  GanDefTrainerBase(models::Classifier& model, TrainConfig config);

  models::Discriminator& discriminator() { return discriminator_; }

  /// Mean discriminator accuracy on the last trained batch (diagnostic: at
  /// the game's equilibrium this decays toward 0.5).
  float last_discriminator_accuracy() const { return last_disc_accuracy_; }

 protected:
  BatchStats train_batch(const data::Batch& batch) override;

  /// Produces the perturbed counterpart of `images` into `out`, which is a
  /// buffer the base class reuses across steps (defense-specific).
  virtual void make_perturbed_into(const Tensor& images,
                                   const std::vector<std::int64_t>& labels,
                                   Tensor& out) = 0;

  /// One classifier update with frozen discriminator: D's parameters and
  /// their gradients are left untouched. `logits` must be the output of the
  /// classifier's last training forward; the update back-propagates through
  /// the layer caches that forward left and runs no forward of its own.
  /// Returns CE.
  float update_classifier(const Tensor& logits,
                          const std::vector<std::int64_t>& labels,
                          const Tensor& source_flags);

 private:
  /// One discriminator update on frozen classifier logits. Returns BCE.
  float update_discriminator(const Tensor& class_logits,
                             const Tensor& source_flags);

  models::Discriminator discriminator_;
  std::unique_ptr<optim::Adam> disc_optimizer_;
  float last_disc_accuracy_ = 0.0f;

  // Per-batch temporaries reused across steps.
  Tensor perturbed_;
  Tensor combined_;
  Tensor source_flags_;
  Tensor logits_;
  Tensor grad_;
  Tensor d_logits_;
  Tensor d_grad_;
  Tensor bce_grad_wrt_logits_;
  std::vector<std::int64_t> combined_labels_;
};

class ZkGanDefTrainer : public GanDefTrainerBase {
 public:
  ZkGanDefTrainer(models::Classifier& model, TrainConfig config)
      : GanDefTrainerBase(model, config), noise_rng_(rng_.fork()) {
    add_rng("noise", noise_rng_);
  }

  std::string name() const override { return "ZK-GanDef"; }

 protected:
  void make_perturbed_into(const Tensor& images,
                           const std::vector<std::int64_t>& labels,
                           Tensor& out) override;

 private:
  Rng noise_rng_;
};

}  // namespace zkg::defense
