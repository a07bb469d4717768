// Loss functions. Each returns the scalar loss and writes the gradient with
// respect to the logits into a caller-provided (reusable) tensor, so
// trainers can seed backpropagation directly. The CLP pair penalty returns
// both of its gradients in a PairPenaltyResult.
//
// Includes the CLP / CLS logit penalties of Kannan et al. ("Adversarial
// Logit Pairing", 2018), which the paper evaluates as the zero-knowledge
// baselines.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace zkg::nn {

/// Mean softmax cross-entropy over integer class labels.
/// logits: [B, C]; labels: B entries in [0, C).
float softmax_cross_entropy_into(const Tensor& logits,
                                 const std::vector<std::int64_t>& labels,
                                 Tensor& grad);

/// Mean binary cross-entropy on raw logits (numerically stable formulation:
/// max(z,0) - z*t + log(1 + exp(-|z|))). logits/targets: [B] or [B, 1].
float bce_with_logits_into(const Tensor& logits, const Tensor& targets,
                           Tensor& grad);

/// Element-wise sigmoid (probability view of a discriminator's raw logits).
void sigmoid_into(Tensor& out, const Tensor& logits);

struct PairPenaltyResult {
  float value = 0.0f;
  Tensor grad_a;  // d/d(logits_a)
  Tensor grad_b;  // d/d(logits_b)
};

/// CLP penalty: lambda * mean_i ||z_a(i) - z_b(i)||_2^2 over logit pairs
/// (the squared-norm reading of the paper's l2(.) term, as in Kannan et
/// al.'s reference implementation; the unsquared norm's constant pull to
/// zero logits collapses training at small scale).
PairPenaltyResult clean_logit_pairing(const Tensor& logits_a,
                                      const Tensor& logits_b, float lambda);

/// CLS penalty: lambda * mean_i ||z(i)||_2^2.
float clean_logit_squeezing_into(const Tensor& logits, float lambda,
                                 Tensor& grad);

}  // namespace zkg::nn
