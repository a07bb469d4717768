#include "nn/activations.hpp"

#include "tensor/backend/backend.hpp"
#include "tensor/contracts.hpp"
#include "tensor/ops.hpp"
#include "tensor/pool.hpp"

namespace zkg::nn {

// ReLU dominates activation time in the conv stacks, so it dispatches
// through the kernel backend.

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

}  // namespace zkg::nn
