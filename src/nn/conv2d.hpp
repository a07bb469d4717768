// 2-D convolution over [B, C, H, W] tensors, implemented via im2col + GEMM.
#pragma once

#include "common/rng.hpp"
#include "nn/module.hpp"

namespace zkg::nn {

struct Conv2dConfig {
  std::int64_t in_channels = 1;
  std::int64_t out_channels = 1;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t padding = 0;
};

/// Lowers `input` [B,C,H,W] into patch-matrix [B*OH*OW, C*K*K].
void im2col_into(Tensor& cols, const Tensor& input, const Conv2dConfig& cfg);

/// Adjoint of im2col: scatters `cols` back into an image-shaped gradient.
void col2im_into(Tensor& image, const Tensor& cols, const Shape& input_shape,
                 const Conv2dConfig& cfg);

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

 private:
  Conv2dConfig cfg_;
  Parameter weight_;  // [OC, C*K*K]
  Parameter bias_;    // [OC]
  Tensor cached_cols_;
  Shape cached_input_shape_;
  // Persistent scratch reused across steps so the im2col/GEMM pipeline runs
  // allocation-free at steady state.
  Tensor flat_;
  Tensor grad_flat_;
  Tensor grad_cols_;
  Tensor grad_w_scratch_;
  Tensor grad_b_scratch_;
};

}  // namespace zkg::nn
