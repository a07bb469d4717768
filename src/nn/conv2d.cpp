#include "nn/conv2d.hpp"

#include <algorithm>
#include <sstream>

#include "common/parallel.hpp"
#include "nn/init.hpp"
#include "tensor/contracts.hpp"
#include "tensor/linalg.hpp"
#include "tensor/pool.hpp"

namespace zkg::nn {
namespace {

std::int64_t conv_out_size(std::int64_t in, const Conv2dConfig& cfg) {
  const std::int64_t padded = in + 2 * cfg.padding;
  ZKG_REQUIRE(padded >= cfg.kernel)
      << " conv input " << in << " smaller than kernel " << cfg.kernel;
  return (padded - cfg.kernel) / cfg.stride + 1;
}

void check_config(const Conv2dConfig& cfg) {
  ZKG_REQUIRE(cfg.in_channels > 0 && cfg.out_channels > 0 && cfg.kernel > 0 &&
              cfg.stride > 0 && cfg.padding >= 0)
      << " bad Conv2dConfig(c_in=" << cfg.in_channels
      << ", c_out=" << cfg.out_channels << ", k=" << cfg.kernel
      << ", s=" << cfg.stride << ", p=" << cfg.padding << ")";
}

}  // namespace

void im2col_into(Tensor& cols, const Tensor& input, const Conv2dConfig& cfg) {
  check_config(cfg);
  ZKG_REQUIRE(input.ndim() == 4 && input.dim(1) == cfg.in_channels)
      << " im2col expects [B, " << cfg.in_channels << ", H, W], got "
      << shape_to_string(input.shape());
  const std::int64_t b = input.dim(0);
  const std::int64_t c = cfg.in_channels;
  const std::int64_t h = input.dim(2);
  const std::int64_t w = input.dim(3);
  const std::int64_t oh = conv_out_size(h, cfg);
  const std::int64_t ow = conv_out_size(w, cfg);
  const std::int64_t k = cfg.kernel;
  const std::int64_t patch = c * k * k;

  ZKG_REQUIRE_NOT_ALIASED(cols, input, "im2col_into");
  ensure_shape(cols, {b * oh * ow, patch});
  const float* in = input.data();
  float* out = cols.data();
  // Each (bi, oy) output row strip is independent; flattening over b*oh
  // scales past tiny batch sizes.
  parallel_for(b * oh, parallel_grain(ow * patch),
               [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const std::int64_t bi = r / oh;
      const std::int64_t oy = r % oh;
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float* row = out + ((bi * oh + oy) * ow + ox) * patch;
        const std::int64_t y0 = oy * cfg.stride - cfg.padding;
        const std::int64_t x0 = ox * cfg.stride - cfg.padding;
        for (std::int64_t ci = 0; ci < c; ++ci) {
          const float* plane = in + (bi * c + ci) * h * w;
          for (std::int64_t ky = 0; ky < k; ++ky) {
            const std::int64_t y = y0 + ky;
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t x = x0 + kx;
              const bool inside = y >= 0 && y < h && x >= 0 && x < w;
              row[(ci * k + ky) * k + kx] = inside ? plane[y * w + x] : 0.0f;
            }
          }
        }
      }
    }
  });
}

void col2im_into(Tensor& image, const Tensor& cols, const Shape& input_shape,
                 const Conv2dConfig& cfg) {
  check_config(cfg);
  ZKG_REQUIRE(input_shape.size() == 4)
      << " col2im wants a rank-4 input shape";
  const std::int64_t b = input_shape[0];
  const std::int64_t c = input_shape[1];
  const std::int64_t h = input_shape[2];
  const std::int64_t w = input_shape[3];
  const std::int64_t oh = conv_out_size(h, cfg);
  const std::int64_t ow = conv_out_size(w, cfg);
  const std::int64_t k = cfg.kernel;
  const std::int64_t patch = c * k * k;
  ZKG_REQUIRE(cols.ndim() == 2 && cols.dim(0) == b * oh * ow &&
              cols.dim(1) == patch)
      << " col2im cols shape " << shape_to_string(cols.shape());

  ZKG_REQUIRE_NOT_ALIASED(image, cols, "col2im_into");
  ensure_shape(image, input_shape);
  image.fill(0.0f);  // the scatter below accumulates into the image
  const float* in = cols.data();
  float* out = image.data();
  // Patches overlap, so the scatter accumulates; parallelism stays over the
  // batch dimension only, which keeps writes disjoint.
  parallel_for(b, parallel_grain(oh * ow * patch),
               [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t bi = b0; bi < b1; ++bi) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const float* row = in + ((bi * oh + oy) * ow + ox) * patch;
          const std::int64_t y0 = oy * cfg.stride - cfg.padding;
          const std::int64_t x0 = ox * cfg.stride - cfg.padding;
          for (std::int64_t ci = 0; ci < c; ++ci) {
            float* plane = out + (bi * c + ci) * h * w;
            for (std::int64_t ky = 0; ky < k; ++ky) {
              const std::int64_t y = y0 + ky;
              if (y < 0 || y >= h) continue;
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t x = x0 + kx;
                if (x < 0 || x >= w) continue;
                plane[y * w + x] += row[(ci * k + ky) * k + kx];
              }
            }
          }
        }
      }
    }
  });
}

Conv2d::Conv2d(Conv2dConfig cfg, Rng& rng)
    : cfg_(cfg),
      weight_("conv.weight",
              he_normal({cfg.out_channels,
                         cfg.in_channels * cfg.kernel * cfg.kernel},
                        cfg.in_channels * cfg.kernel * cfg.kernel, rng)),
      bias_("conv.bias", Tensor({cfg.out_channels})) {
  check_config(cfg_);
}

std::int64_t Conv2d::out_size(std::int64_t in) const {
  return conv_out_size(in, cfg_);
}

void Conv2d::forward_into(const Tensor& input, Tensor& out,
                          bool /*training*/) {
  const std::int64_t b = input.dim(0);
  const std::int64_t oh = conv_out_size(input.dim(2), cfg_);
  const std::int64_t ow = conv_out_size(input.dim(3), cfg_);
  cached_input_shape_ = input.shape();
  im2col_into(cached_cols_, input, cfg_);

  // [B*OH*OW, patch] x [OC, patch]^T -> [B*OH*OW, OC]
  matmul_nt_into(flat_, cached_cols_, weight_.value());
  add_row_bias_(flat_, bias_.value());

  // Reorder [B*OH*OW, OC] -> [B, OC, OH, OW]; batch images are disjoint.
  ensure_shape(out, {b, cfg_.out_channels, oh, ow});
  const std::int64_t spatial = oh * ow;
  const float* src = flat_.data();
  float* dst = out.data();
  parallel_for(b, parallel_grain(spatial * cfg_.out_channels),
               [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t bi = b0; bi < b1; ++bi) {
      for (std::int64_t s = 0; s < spatial; ++s) {
        const float* row = src + (bi * spatial + s) * cfg_.out_channels;
        for (std::int64_t oc = 0; oc < cfg_.out_channels; ++oc) {
          dst[(bi * cfg_.out_channels + oc) * spatial + s] = row[oc];
        }
      }
    }
  });
}

void Conv2d::backward_into(const Tensor& grad_output, Tensor& grad_input) {
  ZKG_REQUIRE(!cached_cols_.empty()) << " Conv2d backward before forward";
  const std::int64_t b = cached_input_shape_[0];
  const std::int64_t oh = conv_out_size(cached_input_shape_[2], cfg_);
  const std::int64_t ow = conv_out_size(cached_input_shape_[3], cfg_);
  ZKG_REQUIRE_SHAPE(grad_output, Shape({b, cfg_.out_channels, oh, ow}),
                    "Conv2d backward");

  // Reorder [B, OC, OH, OW] -> [B*OH*OW, OC]; batch images are disjoint.
  const std::int64_t spatial = oh * ow;
  ensure_shape(grad_flat_, {b * spatial, cfg_.out_channels});
  const float* src = grad_output.data();
  float* dst = grad_flat_.data();
  parallel_for(b, parallel_grain(spatial * cfg_.out_channels),
               [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t bi = b0; bi < b1; ++bi) {
      for (std::int64_t oc = 0; oc < cfg_.out_channels; ++oc) {
        const float* plane = src + (bi * cfg_.out_channels + oc) * spatial;
        for (std::int64_t s = 0; s < spatial; ++s) {
          dst[(bi * spatial + s) * cfg_.out_channels + oc] = plane[s];
        }
      }
    }
  });

  if (param_grads_enabled()) {
    matmul_tn_into(grad_w_scratch_, grad_flat_, cached_cols_);
    weight_.accumulate_grad(grad_w_scratch_);
    col_sum_into(grad_b_scratch_, grad_flat_);
    bias_.accumulate_grad(grad_b_scratch_);
  }

  matmul_into(grad_cols_, grad_flat_, weight_.value());
  col2im_into(grad_input, grad_cols_, cached_input_shape_, cfg_);
}

std::string Conv2d::name() const {
  std::ostringstream out;
  out << "Conv2d(" << cfg_.in_channels << " -> " << cfg_.out_channels
      << ", k=" << cfg_.kernel << ", s=" << cfg_.stride
      << ", p=" << cfg_.padding << ")";
  return out.str();
}

}  // namespace zkg::nn
