#include "models/discriminator.hpp"

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"

namespace zkg::models {

Discriminator::Discriminator(std::int64_t num_classes, Rng& rng)
    : num_classes_(num_classes) {
  ZKG_CHECK(num_classes > 1) << " Discriminator over " << num_classes
                             << " logits";
  // Table II: Dense 32 / Dense 64 / Dense 32 (ReLU) / Dense 1.
  net_.emplace<nn::Dense>(num_classes, 32, rng);
  net_.emplace<nn::ReLU>();
  net_.emplace<nn::Dense>(32, 64, rng);
  net_.emplace<nn::ReLU>();
  net_.emplace<nn::Dense>(64, 32, rng);
  net_.emplace<nn::ReLU>();
  net_.emplace<nn::Dense>(32, 1, rng);
}

void Discriminator::forward_into(const Tensor& class_logits, Tensor& out,
                                 bool training) {
  ZKG_CHECK(class_logits.ndim() == 2 && class_logits.dim(1) == num_classes_)
      << " Discriminator expects [B, " << num_classes_ << "], got "
      << shape_to_string(class_logits.shape());
  net_.forward_into(class_logits, out, training);
}

void Discriminator::backward_into(const Tensor& grad_output,
                                  Tensor& grad_logits) {
  net_.backward_into(grad_output, grad_logits);
}

void Discriminator::probability_into(const Tensor& class_logits, Tensor& out) {
  forward_into(class_logits, prob_logits_, /*training=*/false);
  nn::sigmoid_into(out, prob_logits_);
}

}  // namespace zkg::models
