#include "nn/dense.hpp"

#include <sstream>

#include "nn/init.hpp"
#include "tensor/contracts.hpp"
#include "tensor/linalg.hpp"
#include "tensor/ops.hpp"

namespace zkg::nn {

Dense::Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_("dense.weight",
              he_normal({out_features, in_features}, in_features, rng)),
      bias_("dense.bias", Tensor({out_features})) {
  ZKG_REQUIRE(in_features > 0 && out_features > 0)
      << " Dense(" << in_features << ", " << out_features << ")";
}

void Dense::forward_into(const Tensor& input, Tensor& out, bool /*training*/) {
  ZKG_REQUIRE(input.ndim() == 2 && input.dim(1) == in_features_)
      << " Dense expects [B, " << in_features_ << "], got "
      << shape_to_string(input.shape());
  copy_into(cached_input_, input);
  matmul_nt_into(out, input, weight_.value());  // [B, out]
  add_row_bias_(out, bias_.value());
}

void Dense::backward_into(const Tensor& grad_output, Tensor& grad_input) {
  ZKG_REQUIRE(grad_output.ndim() == 2 && grad_output.dim(1) == out_features_)
      << " Dense backward expects [B, " << out_features_ << "], got "
      << shape_to_string(grad_output.shape());
  ZKG_REQUIRE(!cached_input_.empty()) << " Dense backward before forward";
  // dW = g^T x, db = sum_rows(g), dx = g W.
  if (param_grads_enabled()) {
    matmul_tn_into(grad_w_scratch_, grad_output, cached_input_);
    weight_.accumulate_grad(grad_w_scratch_);
    col_sum_into(grad_b_scratch_, grad_output);
    bias_.accumulate_grad(grad_b_scratch_);
  }
  if (input_grads_enabled()) {
    matmul_into(grad_input, grad_output, weight_.value());
  }
}

std::string Dense::name() const {
  std::ostringstream out;
  out << "Dense(" << in_features_ << " -> " << out_features_ << ")";
  return out.str();
}

}  // namespace zkg::nn
