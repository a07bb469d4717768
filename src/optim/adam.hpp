// Adam (Kingma & Ba, ICLR 2015) — the optimizer the paper uses for both the
// classifier and the Table II discriminator (lr = 1e-3). An Adam is bound to
// a parameter set at construction and updates it from the accumulated
// gradients on step().
#pragma once

#include <string>
#include <vector>

#include "nn/parameter.hpp"
#include "tensor/tensor.hpp"

namespace zkg::optim {

/// Snapshot of an optimizer's mutable state, captured for training
/// checkpoints (DESIGN.md §11). `slots` holds the per-parameter buffers in
/// the optimizer's own order (Adam: all first moments, then all second
/// moments).
struct OptimizerState {
  std::string kind;  // "adam"; load_state() cross-checks it
  std::int64_t step_count = 0;
  float learning_rate = 0.0f;
  std::vector<Tensor> slots;
};

struct AdamConfig {
  float learning_rate = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float epsilon = 1e-8f;
  float weight_decay = 0.0f;
};

class Adam {
 public:
  Adam(std::vector<nn::Parameter*> params, AdamConfig config = {});

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update using the gradients currently stored on the
  /// parameters, then leaves the gradients untouched (call zero_grad()
  /// on the model between steps).
  void step();

  float learning_rate() const { return config_.learning_rate; }
  void set_learning_rate(float lr) { config_.learning_rate = lr; }

  /// Copies the mutable update state (moments, step count, LR). A clone
  /// restored via load_state() steps bit-identically from here on.
  OptimizerState state() const;
  /// Restores a snapshot captured by state() on an Adam bound to the same
  /// parameter set. Throws zkg::SerializationError when the kind, slot
  /// count or slot shapes do not match.
  void load_state(const OptimizerState& state);

  std::int64_t step_count() const { return step_count_; }

 private:
  std::vector<nn::Parameter*> params_;
  AdamConfig config_;
  std::vector<Tensor> m_;  // first-moment estimates
  std::vector<Tensor> v_;  // second-moment estimates
  std::int64_t step_count_ = 0;
};

}  // namespace zkg::optim
