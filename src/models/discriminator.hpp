// The ZK-GanDef discriminator (paper Table II): a 4-layer MLP that reads the
// classifier's pre-softmax logits and predicts whether the classified input
// was clean or perturbed. The structure is dataset-independent.
//
// Table II ends with a Sigmoid; we keep the final Dense output as a raw
// logit and pair it with bce_with_logits_into, the numerically stable
// formulation of exactly the same model.
#pragma once

#include "common/rng.hpp"
#include "nn/sequential.hpp"

namespace zkg::models {

class Discriminator {
 public:
  /// `num_classes` is the width of the classifier's logit vector.
  Discriminator(std::int64_t num_classes, Rng& rng);

  Discriminator(Discriminator&&) = default;
  Discriminator& operator=(Discriminator&&) = default;

  /// Raw source logit [B, 1] for classifier logits [B, num_classes].
  void forward_into(const Tensor& class_logits, Tensor& out, bool training);

  /// Back-propagates to the classifier logits (the GAN coupling path).
  void backward_into(const Tensor& grad_output, Tensor& grad_logits);

  /// D's own training backward: its parameter gradients only, with no
  /// gradient w.r.t. the classifier logits (nn::Sequential::backward_params).
  void backward_params(const Tensor& grad_output) {
    net_.backward_params(grad_output);
  }

  /// P(input was perturbed) in [0, 1], shape [B, 1], written into pooled
  /// caller scratch (steady-state free). Inference only.
  void probability_into(const Tensor& class_logits, Tensor& out);

  std::vector<nn::Parameter*> parameters() { return net_.parameters(); }
  void zero_grad() { net_.zero_grad(); }
  /// Internal random streams (dropout masks, ...) for checkpoint capture.
  void collect_rngs(std::vector<Rng*>& out) { net_.collect_rngs(out); }
  nn::Sequential& net() { return net_; }

 private:
  std::int64_t num_classes_;
  nn::Sequential net_;
  Tensor prob_logits_;  // probability_into scratch (pooled, reused)
};

}  // namespace zkg::models
