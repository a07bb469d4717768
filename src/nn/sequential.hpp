// Sequential: an ordered stack of modules; the library's network container.
#pragma once

#include <memory>
#include <utility>

#include "nn/module.hpp"

namespace zkg::nn {

class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for fluent building.
  Sequential& add(ModulePtr layer);

  /// Constructs the layer in place: net.emplace<Dense>(784, 10, rng).
  template <typename LayerT, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<LayerT>(std::forward<Args>(args)...));
  }

  void forward_into(const Tensor& input, Tensor& out, bool training) override;
  void backward_into(const Tensor& grad_output, Tensor& grad_input) override;

  /// The training backward: accumulates every parameter gradient exactly
  /// as backward_into() would, bit for bit, but computes no gradient w.r.t.
  /// the network input. Layers above the first layer with parameters run
  /// as in backward_into(); that layer runs under nn::ParamGradOnly, and the
  /// parameter-free layers below it are not called. Requires at least one
  /// layer with parameters, each such layer a leaf (Conv2d or Dense), not a
  /// nested Sequential.
  void backward_params(const Tensor& grad_output);
  std::vector<Parameter*> parameters() override;
  std::string name() const override;
  void collect_rngs(std::vector<Rng*>& out) override;

  std::size_t num_layers() const { return layers_.size(); }
  Module& layer(std::size_t i) { return *layers_.at(i); }

  /// Total trainable scalar count.
  std::int64_t num_parameters();

  /// Multi-line structural summary for logs.
  std::string summary();

  /// Copies of all parameter values, in layer order (for checkpoints).
  std::vector<Tensor> state() ;
  /// Restores parameter values captured by state(); shapes must match.
  void load_state(const std::vector<Tensor>& state);

 private:
  std::vector<ModulePtr> layers_;
};

}  // namespace zkg::nn
