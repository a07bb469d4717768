#include "nn/dropout.hpp"

#include <sstream>

#include "tensor/contracts.hpp"
#include "tensor/ops.hpp"
#include "tensor/pool.hpp"
#include "tensor/random.hpp"

namespace zkg::nn {

Dropout::Dropout(float rate, Rng& rng) : rate_(rate), rng_(rng.fork()) {
  ZKG_REQUIRE(rate >= 0.0f && rate < 1.0f) << " Dropout rate " << rate;
}

void Dropout::forward_into(const Tensor& input, Tensor& out, bool training) {
  if (!training || rate_ == 0.0f) {
    mask_active_ = false;
    // Sized through the pool like every layer output: `out` is usually a
    // Workspace buffer, and one sized outside the pool would be parked on
    // the free list at scope exit, a fresh one every eval pass.
    ensure_shape(out, input.shape());
    copy_into(out, input);
    return;
  }
  ensure_shape(mask_, input.shape());
  fill_dropout_mask(mask_, rng_, 1.0f - rate_);
  mask_active_ = true;
  mul_into(out, input, mask_);
}

void Dropout::backward_into(const Tensor& grad_output, Tensor& grad_input) {
  if (!mask_active_) {  // inference pass-through
    ensure_shape(grad_input, grad_output.shape());
    copy_into(grad_input, grad_output);
    return;
  }
  mul_into(grad_input, grad_output, mask_);
}

std::string Dropout::name() const {
  std::ostringstream out;
  out << "Dropout(" << rate_ << ")";
  return out.str();
}

}  // namespace zkg::nn
