// Shared test helpers: numerical gradient checking, tensor matchers and the
// patch-matrix convolution reference.
#pragma once

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "nn/conv2d.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/linalg.hpp"
#include "tensor/pool.hpp"
#include "tensor/tensor.hpp"

namespace zkg::testutil {

/// Every kernel backend available on this machine, for backend sweeps.
inline std::vector<const backend::KernelBackend*> available_backends() {
  std::vector<const backend::KernelBackend*> out{&backend::scalar_backend()};
  if (const backend::KernelBackend* avx2 =
          backend::avx2_backend_if_supported()) {
    out.push_back(avx2);
  }
  if (const backend::KernelBackend* avx512 =
          backend::avx512_backend_if_supported()) {
    out.push_back(avx512);
  }
  return out;
}

/// Central-difference gradient of a scalar-valued function at `point`.
inline Tensor numerical_gradient(
    const std::function<float(const Tensor&)>& f, const Tensor& point,
    float eps = 1e-3f) {
  Tensor grad(point.shape());
  Tensor probe = point;
  for (std::int64_t i = 0; i < point.numel(); ++i) {
    const float original = probe[i];
    probe[i] = original + eps;
    const float plus = f(probe);
    probe[i] = original - eps;
    const float minus = f(probe);
    probe[i] = original;
    grad[i] = (plus - minus) / (2.0f * eps);
  }
  return grad;
}

/// Asserts |a-b| <= atol + rtol*|b| element-wise.
inline void expect_close(const Tensor& actual, const Tensor& expected,
                         float rtol = 1e-2f, float atol = 1e-3f) {
  ASSERT_EQ(actual.shape(), expected.shape());
  for (std::int64_t i = 0; i < actual.numel(); ++i) {
    const float tolerance = atol + rtol * std::fabs(expected[i]);
    EXPECT_NEAR(actual[i], expected[i], tolerance) << "at flat index " << i;
  }
}

/// True when both tensors have the same shape and identical bytes.
inline bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

// ---------------------------------------- patch-matrix conv reference
//
// The convolution as a GEMM over an explicit patch matrix: lower the
// [B, C, H, W] input to cols [B*S, C*k*k] (S = OH*OW), then run public
// GEMM kernels on the active backend. nn::Conv2d's implicit-GEMM passes
// must reproduce it bit for bit on every backend.

/// Output height/width of `cfg` over an input of height/width `in`.
inline std::int64_t conv_out(std::int64_t in, const nn::Conv2dConfig& cfg) {
  return (in + 2 * cfg.padding - cfg.kernel) / cfg.stride + 1;
}

/// cols[(b*OH + oy)*OW + ox, (ci*k + ky)*k + kx] = input pixel, or 0 in
/// the padding.
inline void lower_patches(Tensor& cols, const Tensor& input,
                          const nn::Conv2dConfig& cfg) {
  const std::int64_t b = input.dim(0);
  const std::int64_t c = cfg.in_channels;
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t oh = conv_out(h, cfg);
  const std::int64_t ow = conv_out(w, cfg);
  const std::int64_t k = cfg.kernel;
  const std::int64_t patch = c * k * k;
  ensure_shape(cols, {b * oh * ow, patch});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float* row = cols.data() + ((bi * oh + oy) * ow + ox) * patch;
        for (std::int64_t ci = 0; ci < c; ++ci) {
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t y = oy * cfg.stride - cfg.padding + ky;
              const std::int64_t x = ox * cfg.stride - cfg.padding + kx;
              const bool inside = y >= 0 && y < h && x >= 0 && x < w;
              row[(ci * k + ky) * k + kx] =
                  inside ? input.at(bi, ci, y, x) : 0.0f;
            }
          }
        }
      }
    }
  }
}

/// Adjoint of lower_patches: image starts at zero and accumulates every
/// in-image cols entry in (row, column) order.
inline void scatter_patches(Tensor& image, const Tensor& cols,
                            const Shape& input_shape,
                            const nn::Conv2dConfig& cfg) {
  const std::int64_t b = input_shape[0];
  const std::int64_t c = input_shape[1];
  const std::int64_t h = input_shape[2];
  const std::int64_t w = input_shape[3];
  const std::int64_t oh = conv_out(h, cfg);
  const std::int64_t ow = conv_out(w, cfg);
  const std::int64_t k = cfg.kernel;
  const std::int64_t patch = c * k * k;
  ensure_shape(image, input_shape);
  image.fill(0.0f);
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const float* row = cols.data() + ((bi * oh + oy) * ow + ox) * patch;
        for (std::int64_t ci = 0; ci < c; ++ci) {
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t y = oy * cfg.stride - cfg.padding + ky;
              const std::int64_t x = ox * cfg.stride - cfg.padding + kx;
              if (y < 0 || y >= h || x < 0 || x >= w) continue;
              image.at(bi, ci, y, x) += row[(ci * k + ky) * k + kx];
            }
          }
        }
      }
    }
  }
}

/// y = cols * W^T + bias ([B*S, OC]), reordered to [B, OC, OH, OW].
inline Tensor reference_conv_forward(const Tensor& x, const Tensor& weight,
                                     const Tensor& bias,
                                     const nn::Conv2dConfig& cfg) {
  Tensor cols;
  lower_patches(cols, x, cfg);
  Tensor flat;
  matmul_nt_into(flat, cols, weight);
  add_row_bias_(flat, bias);
  const std::int64_t b = x.dim(0);
  const std::int64_t oc = cfg.out_channels;
  const std::int64_t oh = conv_out(x.dim(2), cfg);
  const std::int64_t ow = conv_out(x.dim(3), cfg);
  const std::int64_t s = oh * ow;
  Tensor y({b, oc, oh, ow});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t pos = 0; pos < s; ++pos) {
      for (std::int64_t o = 0; o < oc; ++o) {
        y[(bi * oc + o) * s + pos] = flat[(bi * s + pos) * oc + o];
      }
    }
  }
  return y;
}

struct ConvGradients {
  Tensor dx;  // [B, C, H, W]
  Tensor dw;  // [OC, C*k*k]
  Tensor db;  // [OC]
};

/// dY reordered to [B*S, OC]; dx = scatter(dY * W), dw = dY^T * cols,
/// db = column sums of dY.
inline ConvGradients reference_conv_backward(const Tensor& x,
                                             const Tensor& weight,
                                             const Tensor& grad_y,
                                             const nn::Conv2dConfig& cfg) {
  const std::int64_t b = grad_y.dim(0);
  const std::int64_t oc = grad_y.dim(1);
  const std::int64_t s = grad_y.dim(2) * grad_y.dim(3);
  Tensor flat({b * s, oc});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t o = 0; o < oc; ++o) {
      for (std::int64_t pos = 0; pos < s; ++pos) {
        flat[(bi * s + pos) * oc + o] = grad_y[(bi * oc + o) * s + pos];
      }
    }
  }
  Tensor cols;
  lower_patches(cols, x, cfg);
  ConvGradients grads;
  matmul_tn_into(grads.dw, flat, cols);
  col_sum_into(grads.db, flat);
  Tensor grad_cols;
  matmul_into(grad_cols, flat, weight);
  scatter_patches(grads.dx, grad_cols, x.shape(), cfg);
  return grads;
}

}  // namespace zkg::testutil
