// Classification and robustness metrics (paper §IV-E).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace zkg::eval {

/// Fraction of positions where predictions == labels.
double accuracy(const std::vector<std::int64_t>& predictions,
                const std::vector<std::int64_t>& labels);

/// Perturbation statistics of an adversarial batch vs. its originals.
struct PerturbationStats {
  float mean_linf = 0.0f;  // mean over examples of max-abs pixel delta
  float max_linf = 0.0f;
  float mean_l2 = 0.0f;    // mean over examples of per-example l2 delta
};
PerturbationStats perturbation_stats(const Tensor& original,
                                     const Tensor& adversarial);

/// Fraction of examples whose prediction flipped away from the label after
/// the attack, among those originally classified correctly.
double attack_success_rate(const std::vector<std::int64_t>& labels,
                           const std::vector<std::int64_t>& clean_predictions,
                           const std::vector<std::int64_t>& adv_predictions);

}  // namespace zkg::eval
