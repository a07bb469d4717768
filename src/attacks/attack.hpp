// Attack interface and shared white-box gradient machinery.
//
// All attacks are white-box: they query the target classifier's own input
// gradients (paper §II-A). Perturbations live in an l_inf ball of radius
// `epsilon` around the original image and the result is always projected
// back into the valid pixel range [-1, 1] (the paper's regulation function
// F).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "models/classifier.hpp"
#include "tensor/tensor.hpp"

namespace zkg::attacks {

/// Hyper-parameters shared by the gradient attacks. Defaults correspond to
/// the paper's MNIST setting on the [-1, 1] pixel scale.
struct AttackBudget {
  float epsilon = 0.6f;         // l_inf radius
  float step_size = 0.02f;      // per-iteration step (iterative attacks)
  std::int64_t iterations = 40; // iterative attacks
  std::int64_t restarts = 1;    // PGD random restarts
};

class Attack {
 public:
  virtual ~Attack() = default;
  virtual std::string name() const = 0;

  /// Returns adversarial versions of `images` ([B, C, H, W], range [-1, 1])
  /// targeting misclassification away from `labels`. Leaves the model's
  /// parameter gradients untouched (backwards run under nn::InputGradOnly).
  virtual Tensor generate(models::Classifier& model, const Tensor& images,
                          const std::vector<std::int64_t>& labels) = 0;

  /// Writes the adversarial batch into `adv` (resized in place), letting
  /// trainers reuse one buffer across steps. The gradient attacks override
  /// this with a fully in-place path; the default delegates to generate().
  virtual void generate_into(models::Classifier& model, const Tensor& images,
                             const std::vector<std::int64_t>& labels,
                             Tensor& adv) {
    adv = generate(model, images, labels);
  }

  /// Appends the attack's internal random streams (PGD random starts, ...)
  /// so training checkpoints can capture and restore them; deterministic
  /// attacks append nothing.
  virtual void collect_rngs([[maybe_unused]] std::vector<Rng*>& out) {}
};

using AttackPtr = std::unique_ptr<Attack>;

/// Reusable temporaries for input_gradient_into and per_example_loss_into;
/// keeping one per attack instance makes repeated queries allocation-free.
struct GradientScratch {
  Tensor logits;
  Tensor loss_grad;
};

/// Gradient of the mean cross-entropy loss w.r.t. the input pixels, written
/// into `grad`, with intermediates routed through `scratch`. Returns the
/// loss. Runs the model in inference mode and back-propagates under
/// nn::InputGradOnly, so parameter gradients are neither computed nor
/// touched and attack passes never leak into training updates.
float input_gradient_into(models::Classifier& model, const Tensor& images,
                          const std::vector<std::int64_t>& labels,
                          GradientScratch& scratch, Tensor& grad);

/// Per-example cross-entropy losses (used by PGD restart selection),
/// written into `losses`; logits and probabilities go through `scratch`.
void per_example_loss_into(models::Classifier& model, const Tensor& images,
                           const std::vector<std::int64_t>& labels,
                           GradientScratch& scratch,
                           std::vector<float>& losses);

/// Throws zkg::InvalidArgument unless `labels` holds exactly `batch`
/// labels, each in [0, num_classes). Attacks that index logits or per-class
/// gradients by label call this before their first query.
void check_labels(const std::vector<std::int64_t>& labels, std::int64_t batch,
                  std::int64_t num_classes);

/// Projects `adv` onto the l_inf ball of radius eps around `origin`, then
/// into the valid pixel range. Mutates `adv`.
void project_linf_(Tensor& adv, const Tensor& origin, float eps);

}  // namespace zkg::attacks
