// The pointwise activation layer.
#pragma once

#include "nn/module.hpp"

namespace zkg::nn {

class ReLU : public Module {
 public:
  void forward_into(const Tensor& input, Tensor& out, bool training) override;
  void backward_into(const Tensor& grad_output, Tensor& grad_input) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

}  // namespace zkg::nn
