#include "nn/conv2d.hpp"

#include <limits>
#include <sstream>

#include "nn/init.hpp"
#include "tensor/contracts.hpp"
#include "tensor/ops.hpp"
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

backend::ConvShape Conv2d::conv_shape(const Shape& input_shape) {
  ZKG_REQUIRE(input_shape.size() == 4 && input_shape[1] == cfg_.in_channels)
      << " Conv2d expects [B, " << cfg_.in_channels << ", H, W], got "
      << shape_to_string(input_shape);
  const std::int64_t c = cfg_.in_channels;
  const std::int64_t h = input_shape[2];
  const std::int64_t w = input_shape[3];
  const std::int64_t oh = conv_out_size(h, cfg_);
  const std::int64_t ow = conv_out_size(w, cfg_);
  const std::int64_t k = cfg_.kernel;
  const std::int64_t patch = c * k * k;
  ZKG_REQUIRE(c * h * w <= std::numeric_limits<std::int32_t>::max())
      << " Conv2d input image of " << c * h * w << " floats";
  if (h != offsets_h_ || w != offsets_w_) {
    // Patch element (ci, ky, kx) of output position (oy, ox) reads input
    // (ci, oy*s - p + ky, ox*s - p + kx), or padding off the image.
    offsets_.resize(static_cast<std::size_t>(oh * ow * patch));
    std::int32_t* entry = offsets_.data();
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const std::int64_t y0 = oy * cfg_.stride - cfg_.padding;
        const std::int64_t x0 = ox * cfg_.stride - cfg_.padding;
        for (std::int64_t ci = 0; ci < c; ++ci) {
          for (std::int64_t ky = 0; ky < k; ++ky) {
            const std::int64_t y = y0 + ky;
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t x = x0 + kx;
              const bool inside = y >= 0 && y < h && x >= 0 && x < w;
              *entry++ = inside ? static_cast<std::int32_t>(
                                      (ci * h + y) * w + x)
                                : -1;
            }
          }
        }
      }
    }
    const std::int64_t spatial = oh * ow;
    depth_offsets_.resize(offsets_.size());
    for (std::int64_t pos = 0; pos < spatial; ++pos) {
      for (std::int64_t kk = 0; kk < patch; ++kk) {
        depth_offsets_[static_cast<std::size_t>(kk * spatial + pos)] =
            offsets_[static_cast<std::size_t>(pos * patch + kk)];
      }
    }
    offsets_h_ = h;
    offsets_w_ = w;
  }
  backend::ConvShape shape;
  shape.batch = input_shape[0];
  shape.in_image = c * h * w;
  shape.out_channels = cfg_.out_channels;
  shape.spatial = oh * ow;
  shape.patch = patch;
  shape.offsets = offsets_.data();
  shape.depth_offsets = depth_offsets_.data();
  return shape;
}

void Conv2d::forward_into(const Tensor& input, Tensor& out,
                          bool /*training*/) {
  const backend::ConvShape shape = conv_shape(input.shape());
  copy_into(cached_input_, input);  // the pass reads the copy: `out` may alias
  ensure_shape(out, {shape.batch, cfg_.out_channels,
                     out_size(input.dim(2)), out_size(input.dim(3))});
  backend::active().conv_forward(out.data(), cached_input_.data(),
                                 weight_.value().data(), bias_.value().data(),
                                 shape);
}

void Conv2d::backward_into(const Tensor& grad_output, Tensor& grad_input) {
  ZKG_REQUIRE(!cached_input_.empty()) << " Conv2d backward before forward";
  const Shape& input_shape = cached_input_.shape();
  const backend::ConvShape shape = conv_shape(input_shape);
  ZKG_REQUIRE_SHAPE(grad_output,
                    Shape({shape.batch, cfg_.out_channels,
                           out_size(input_shape[2]), out_size(input_shape[3])}),
                    "Conv2d backward");
  ZKG_REQUIRE_NOT_ALIASED(grad_input, grad_output, "Conv2d backward");

  if (param_grads_enabled()) {
    ensure_shape(grad_w_scratch_, weight_.value().shape());
    ensure_shape(grad_b_scratch_, bias_.value().shape());
    backend::active().conv_backward_params(
        grad_w_scratch_.data(), grad_b_scratch_.data(), grad_output.data(),
        cached_input_.data(), shape);
    weight_.accumulate_grad(grad_w_scratch_);
    bias_.accumulate_grad(grad_b_scratch_);
  }

  if (input_grads_enabled()) {
    ensure_shape(grad_input, input_shape);
    backend::active().conv_backward_input(
        grad_input.data(), grad_output.data(), weight_.value().data(), shape);
  }
}

std::string Conv2d::name() const {
  std::ostringstream out;
  out << "Conv2d(" << cfg_.in_channels << " -> " << cfg_.out_channels
      << ", k=" << cfg_.kernel << ", s=" << cfg_.stride
      << ", p=" << cfg_.padding << ")";
  return out.str();
}

}  // namespace zkg::nn
