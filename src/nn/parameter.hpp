// Trainable parameter: a value tensor plus its accumulated gradient.
#pragma once

#include <string>

#include "tensor/tensor.hpp"

namespace zkg::nn {

class Parameter {
 public:
  Parameter() = default;
  Parameter(std::string name, Tensor value);

  const std::string& name() const { return name_; }
  Tensor& value() { return value_; }
  const Tensor& value() const { return value_; }
  Tensor& grad() { return grad_; }
  const Tensor& grad() const { return grad_; }

  std::int64_t numel() const { return value_.numel(); }

  /// Resets the gradient accumulator to zero.
  void zero_grad();

  /// Adds `delta` into the gradient accumulator (shape-checked).
  void accumulate_grad(const Tensor& delta);

 private:
  std::string name_;
  Tensor value_;
  Tensor grad_;
};

/// RAII scope under which backward passes on the calling thread compute
/// only the gradient w.r.t. their input: Conv2d and Dense skip their
/// parameter-gradient work and leave every Parameter::grad() untouched.
/// Attacks and the backward through a frozen network run under it. The flag
/// is thread-local, so models trained on other threads keep accumulating;
/// scopes nest and restore the previous state on exit.
class InputGradOnly {
 public:
  InputGradOnly();
  ~InputGradOnly();
  InputGradOnly(const InputGradOnly&) = delete;
  InputGradOnly& operator=(const InputGradOnly&) = delete;

 private:
  bool previous_;
};

/// The mirror of InputGradOnly: under it, Conv2d and Dense backward passes
/// on the calling thread accumulate their parameter gradients but skip the
/// input-gradient kernel and leave `grad_input` unwritten. Only
/// Sequential::backward_params opens it, around the one layer whose input
/// gradient nothing reads. Thread-local; scopes nest and restore the
/// previous state on exit.
class ParamGradOnly {
 public:
  ParamGradOnly();
  ~ParamGradOnly();
  ParamGradOnly(const ParamGradOnly&) = delete;
  ParamGradOnly& operator=(const ParamGradOnly&) = delete;

 private:
  bool previous_;
};

/// False while an InputGradOnly scope is active on the calling thread.
/// Layers read it once per backward, on the calling thread, before any
/// parallel_for.
bool param_grads_enabled();

/// False while a ParamGradOnly scope is active on the calling thread; read
/// like param_grads_enabled().
bool input_grads_enabled();

}  // namespace zkg::nn
