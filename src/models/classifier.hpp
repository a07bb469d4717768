// Classifier: a Sequential network plus the metadata every other subsystem
// needs — input geometry, class count, and a human-readable name. Attacks
// use the input spec to validate shapes; trainers use it to size batches;
// checkpoints carry net().state() in a ZKGC snapshot (ckpt/train_state.hpp).
#pragma once

#include <string>

#include "nn/sequential.hpp"

namespace zkg::models {

/// Geometry of the classifier's input images and label space.
struct InputSpec {
  std::int64_t channels = 1;
  std::int64_t height = 28;
  std::int64_t width = 28;
  std::int64_t num_classes = 10;

  Shape batch_shape(std::int64_t batch) const {
    return {batch, channels, height, width};
  }
  std::int64_t pixels() const { return channels * height * width; }
};

/// Model size presets: kBench shrinks channel widths so experiments finish
/// on a small CPU; kPaper keeps the published architecture shapes.
enum class Preset { kBench, kPaper };

class Classifier {
 public:
  Classifier(std::string name, InputSpec spec, nn::Sequential net);

  Classifier(Classifier&&) = default;
  Classifier& operator=(Classifier&&) = default;

  /// Pre-softmax logits [B, num_classes] for images [B, C, H, W], written
  /// into a caller-provided (reusable) tensor.
  void forward_into(const Tensor& images, Tensor& logits, bool training);

  /// Back-propagates a logit gradient into the image gradient (attacks).
  void backward_into(const Tensor& grad_logits, Tensor& grad_images);

  /// The training backward: accumulates the parameter gradients of
  /// backward_into() bit for bit and computes no image gradient
  /// (nn::Sequential::backward_params).
  void backward_params(const Tensor& grad_logits) {
    net_.backward_params(grad_logits);
  }

  std::vector<nn::Parameter*> parameters() { return net_.parameters(); }
  void zero_grad() { net_.zero_grad(); }

  /// Internal random streams (dropout masks, ...) for checkpoint capture.
  void collect_rngs(std::vector<Rng*>& out) { net_.collect_rngs(out); }

  const std::string& name() const { return name_; }
  const InputSpec& spec() const { return spec_; }
  nn::Sequential& net() { return net_; }

 private:
  std::string name_;
  InputSpec spec_;
  nn::Sequential net_;
};

}  // namespace zkg::models
