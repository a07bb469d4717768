// Evaluator: batched test-accuracy measurement of a classifier on clean and
// attacked examples (the paper's test-accuracy metric, §IV-E).
#pragma once

#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "data/dataset.hpp"
#include "eval/metrics.hpp"

namespace zkg::eval {

struct AttackEvaluation {
  std::string attack_name;
  double test_accuracy = 0.0;
  double success_rate = 0.0;  // among originally-correct examples
  PerturbationStats perturbation;
};

struct Evaluation {
  double clean_accuracy = 0.0;
  std::vector<AttackEvaluation> attacks;

  /// Accuracy entry for `attack_name`; throws if absent.
  const AttackEvaluation& attack(const std::string& attack_name) const;
};

class Evaluator {
 public:
  /// Evaluation batches of `batch_size` bound the peak memory of attack
  /// generation.
  explicit Evaluator(std::int64_t batch_size = 100);

  /// Clean accuracy plus one entry per attack (an empty list measures
  /// clean accuracy only). Attacks see the true labels (white-box,
  /// untargeted).
  Evaluation evaluate(models::Classifier& model, const data::Dataset& test,
                      const std::vector<attacks::Attack*>& attack_list) const;

 private:
  std::int64_t batch_size_;
};

}  // namespace zkg::eval
