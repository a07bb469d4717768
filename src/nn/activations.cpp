#include "nn/activations.hpp"

#include <cmath>
#include <sstream>

#include "tensor/backend/backend.hpp"
#include "tensor/contracts.hpp"
#include "tensor/ops.hpp"
#include "tensor/pool.hpp"

namespace zkg::nn {

// ReLU/LeakyReLU dominate activation time in the conv stacks, so they
// dispatch through the kernel backend; Sigmoid/Tanh are transcendental-
// bound and keep plain loops.

void ReLU::forward_into(const Tensor& input, Tensor& out, bool /*training*/) {
  copy_into(cached_input_, input);
  ensure_shape(out, input.shape());
  backend::active().relu(out.data(), cached_input_.data(), out.numel());
}

void ReLU::backward_into(const Tensor& grad_output, Tensor& grad_input) {
  check_same_shape(grad_output, cached_input_, "ReLU::backward");
  ensure_shape(grad_input, grad_output.shape());
  backend::active().relu_backward(grad_input.data(), cached_input_.data(),
                                  grad_output.data(), grad_input.numel());
}

LeakyReLU::LeakyReLU(float negative_slope) : slope_(negative_slope) {
  ZKG_REQUIRE(negative_slope >= 0.0f)
      << " LeakyReLU slope " << negative_slope;
}

void LeakyReLU::forward_into(const Tensor& input, Tensor& out,
                             bool /*training*/) {
  copy_into(cached_input_, input);
  ensure_shape(out, input.shape());
  backend::active().leaky_relu(out.data(), cached_input_.data(), slope_,
                               out.numel());
}

void LeakyReLU::backward_into(const Tensor& grad_output, Tensor& grad_input) {
  check_same_shape(grad_output, cached_input_, "LeakyReLU::backward");
  ensure_shape(grad_input, grad_output.shape());
  backend::active().leaky_relu_backward(grad_input.data(),
                                        cached_input_.data(),
                                        grad_output.data(), slope_,
                                        grad_input.numel());
}

std::string LeakyReLU::name() const {
  std::ostringstream out;
  out << "LeakyReLU(" << slope_ << ")";
  return out.str();
}

void Sigmoid::forward_into(const Tensor& input, Tensor& out,
                           bool /*training*/) {
  ensure_shape(out, input.shape());
  const float* in = input.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    po[i] = 1.0f / (1.0f + std::exp(-in[i]));
  }
  cached_output_ = out;
}

void Sigmoid::backward_into(const Tensor& grad_output, Tensor& grad_input) {
  check_same_shape(grad_output, cached_output_, "Sigmoid::backward");
  ensure_shape(grad_input, grad_output.shape());
  const float* y = cached_output_.data();
  const float* go = grad_output.data();
  float* g = grad_input.data();
  for (std::int64_t i = 0; i < grad_input.numel(); ++i) {
    g[i] = go[i] * y[i] * (1.0f - y[i]);
  }
}

void Tanh::forward_into(const Tensor& input, Tensor& out, bool /*training*/) {
  ensure_shape(out, input.shape());
  const float* in = input.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) po[i] = std::tanh(in[i]);
  cached_output_ = out;
}

void Tanh::backward_into(const Tensor& grad_output, Tensor& grad_input) {
  check_same_shape(grad_output, cached_output_, "Tanh::backward");
  ensure_shape(grad_input, grad_output.shape());
  const float* y = cached_output_.data();
  const float* go = grad_output.data();
  float* g = grad_input.data();
  for (std::int64_t i = 0; i < grad_input.numel(); ++i) {
    g[i] = go[i] * (1.0f - y[i] * y[i]);
  }
}

}  // namespace zkg::nn
