// Module: the layer interface.
//
// The library uses layer-wise backpropagation rather than a taped autograd:
// forward_into() caches whatever the layer needs, backward_into() consumes
// the cache, accumulates parameter gradients and returns the gradient w.r.t.
// the input. The input gradient is for attacks: white-box attacks (FGSM,
// BIM, PGD, DeepFool, CW) are driven by it. Training does not read it and
// calls Sequential::backward_params() instead, which leaves the parameter
// gradients bit-identical and skips the network's input gradient. Under an
// nn::InputGradOnly scope (nn/parameter.hpp) on the calling thread, layers
// skip the parameter-gradient work and leave every Parameter::grad()
// untouched; the input gradient is bit-identical either way. Under the
// mirror scope nn::ParamGradOnly, which only backward_params() opens around
// one layer, Conv2d and Dense skip the input-gradient kernel and leave
// `grad_input` unwritten.
//
// The _into forms are the only interface: they write into caller-provided
// destination tensors resized via ensure_shape(), so a layer driven with the
// same destinations every step runs allocation-free at steady state.
//
// Contract: backward_into(g, ...) must follow the forward_into(x, ...) whose
// activations it differentiates. Sequential enforces this ordering for whole
// networks. Destinations must not alias the corresponding source tensor.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/parameter.hpp"
#include "tensor/tensor.hpp"

namespace zkg::nn {

class Module {
 public:
  virtual ~Module() = default;

  /// Computes the layer output into `out`. `training` toggles train-time
  /// behaviour (dropout masks); inference passes must use training == false.
  virtual void forward_into(const Tensor& input, Tensor& out,
                            bool training) = 0;

  /// Back-propagates `grad_output` (gradient of the loss w.r.t. this
  /// layer's output), accumulating parameter gradients as a side effect
  /// unless nn::InputGradOnly is active on this thread. Writes the gradient
  /// w.r.t. this layer's input into `grad_input`; under nn::ParamGradOnly,
  /// Conv2d and Dense leave it unwritten.
  virtual void backward_into(const Tensor& grad_output,
                             Tensor& grad_input) = 0;

  /// Trainable parameters owned by this layer (empty for stateless layers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Appends every internal random stream this layer draws from during
  /// training (dropout masks, ...), in a deterministic order. Checkpoints
  /// serialize the collected streams so a resumed run samples identically.
  virtual void collect_rngs([[maybe_unused]] std::vector<Rng*>& out) {}

  /// Short layer description for logging / model summaries.
  virtual std::string name() const = 0;

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace zkg::nn
