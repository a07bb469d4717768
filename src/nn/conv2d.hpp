// 2-D convolution over [B, C, H, W] tensors, run as an implicit GEMM: the
// kernel backend gathers each patch straight from the NCHW input through a
// per-image offset table and writes the NCHW output directly.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "nn/module.hpp"
#include "tensor/backend/backend.hpp"

namespace zkg::nn {

struct Conv2dConfig {
  std::int64_t in_channels = 1;
  std::int64_t out_channels = 1;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t padding = 0;
};

class Conv2d : public Module {
 public:
  Conv2d(Conv2dConfig cfg, Rng& rng);

  void forward_into(const Tensor& input, Tensor& out, bool training) override;
  void backward_into(const Tensor& grad_output, Tensor& grad_input) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override;

  const Conv2dConfig& config() const { return cfg_; }
  /// Output spatial size for an input of height/width `in`.
  std::int64_t out_size(std::int64_t in) const;
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

  /// The backend view of a convolution over `input_shape` [B, C, H, W].
  /// The patch offset tables are rebuilt only when H or W change, so a new
  /// batch size costs nothing; `offsets` and `depth_offsets` stay valid
  /// until a call with another spatial size.
  backend::ConvShape conv_shape(const Shape& input_shape);

 private:
  Conv2dConfig cfg_;
  Parameter weight_;  // [OC, C*K*K]
  Parameter bias_;    // [OC]
  Tensor cached_input_;  // the last forward input, read by backward
  // [OH*OW, C*K*K] patch offsets for inputs of offsets_h_ x offsets_w_,
  // and the same table depth-major, [C*K*K, OH*OW].
  std::vector<std::int32_t> offsets_;
  std::vector<std::int32_t> depth_offsets_;
  std::int64_t offsets_h_ = 0;
  std::int64_t offsets_w_ = 0;
  // Persistent gradient scratch, so backward runs allocation-free at
  // steady state.
  Tensor grad_w_scratch_;
  Tensor grad_b_scratch_;
};

}  // namespace zkg::nn
