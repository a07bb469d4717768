#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/parallel.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/contracts.hpp"
#include "tensor/pool.hpp"

namespace zkg {
namespace {

// The binary/scalar/clamp kernels dispatch through the active kernel
// backend (tensor/backend/backend.hpp); backend elementwise kernels
// tolerate out aliasing either input, which the in-place forms rely on.
// Reductions below keep plain loops — they are not in any training hot
// path and gain nothing from SIMD dispatch.
using BinaryKernel = void (*)(float*, const float*, const float*,
                              std::int64_t);

void binary_dispatch_into(Tensor& out, const Tensor& a, const Tensor& b,
                          const char* name,
                          BinaryKernel backend::KernelBackend::* kernel) {
  ZKG_REQUIRE_SAME_SHAPE(a, b, name);
  ensure_shape(out, a.shape());
  (backend::active().*kernel)(out.data(), a.data(), b.data(), a.numel());
}

/// dst[0, n) = src[0, n), chunked like the elementwise kernels.
void copy_floats(float* dst, const float* src, std::int64_t n) {
  parallel_for_elements(n, [&](std::int64_t begin, std::int64_t end) {
    std::copy(src + begin, src + end, dst + begin);
  });
}

}  // namespace

void copy_into(Tensor& out, const Tensor& a) {
  if (&out == &a) return;
  if (out.shape() != a.shape()) {
    const auto numel = static_cast<std::size_t>(a.numel());
    FloatBuffer storage = std::move(out.storage());
    if (storage.capacity() < numel) FloatBuffer().swap(storage);
    resize_uninitialised(storage, numel);
    out = Tensor(a.shape(), std::move(storage));
  }
  copy_floats(out.data(), a.data(), a.numel());
}

void add_(Tensor& a, const Tensor& b) {
  ZKG_REQUIRE_SAME_SHAPE(a, b, "add_");
  backend::active().add(a.data(), a.data(), b.data(), a.numel());
}
void mul_(Tensor& a, const Tensor& b) {
  ZKG_REQUIRE_SAME_SHAPE(a, b, "mul_");
  backend::active().mul(a.data(), a.data(), b.data(), a.numel());
}

void add_into(Tensor& out, const Tensor& a, const Tensor& b) {
  binary_dispatch_into(out, a, b, "add_into", &backend::KernelBackend::add);
}
void sub_into(Tensor& out, const Tensor& a, const Tensor& b) {
  binary_dispatch_into(out, a, b, "sub_into", &backend::KernelBackend::sub);
}
void mul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  binary_dispatch_into(out, a, b, "mul_into", &backend::KernelBackend::mul);
}

void add_(Tensor& a, float s) {
  backend::active().add_scalar(a.data(), a.data(), s, a.numel());
}
void mul_(Tensor& a, float s) {
  backend::active().mul_scalar(a.data(), a.data(), s, a.numel());
}
void add_into(Tensor& out, const Tensor& a, float s) {
  ensure_shape(out, a.shape());
  backend::active().add_scalar(out.data(), a.data(), s, a.numel());
}
void mul_into(Tensor& out, const Tensor& a, float s) {
  ensure_shape(out, a.shape());
  backend::active().mul_scalar(out.data(), a.data(), s, a.numel());
}

void axpy_(Tensor& y, float alpha, const Tensor& x) {
  ZKG_REQUIRE_SAME_SHAPE(y, x, "axpy_");
  backend::active().axpy(y.data(), alpha, x.data(), y.numel());
}

void add_scaled_sign_(Tensor& y, float alpha, const Tensor& x) {
  ZKG_REQUIRE_SAME_SHAPE(y, x, "add_scaled_sign_");
  // Every backend computes alpha * (+-1.0f | 0.0f) exactly, so this stays
  // bit-identical to an axpy_ of the materialised sign tensor.
  backend::active().add_scaled_sign(y.data(), alpha, x.data(), y.numel());
}

void clamp_(Tensor& a, float lo, float hi) {
  ZKG_REQUIRE(lo <= hi) << " clamp bounds inverted: " << lo << " > " << hi;
  backend::active().clamp(a.data(), a.data(), lo, hi, a.numel());
}
void clamp_into(Tensor& out, const Tensor& a, float lo, float hi) {
  ZKG_REQUIRE(lo <= hi) << " clamp bounds inverted: " << lo << " > " << hi;
  ensure_shape(out, a.shape());
  backend::active().clamp(out.data(), a.data(), lo, hi, a.numel());
}

float sum(const Tensor& a) {
  double total = 0.0;  // double accumulator avoids float drift on big tensors
  const float* pa = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) total += pa[i];
  return static_cast<float>(total);
}

float mean(const Tensor& a) {
  ZKG_REQUIRE_NONEMPTY(a, "mean");
  return sum(a) / static_cast<float>(a.numel());
}

float max_value(const Tensor& a) {
  ZKG_REQUIRE_NONEMPTY(a, "max_value");
  return *std::max_element(a.storage().begin(), a.storage().end());
}

float min_value(const Tensor& a) {
  ZKG_REQUIRE_NONEMPTY(a, "min_value");
  return *std::min_element(a.storage().begin(), a.storage().end());
}

float max_abs(const Tensor& a) {
  float best = 0.0f;
  const float* pa = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    best = std::max(best, std::fabs(pa[i]));
  }
  return best;
}

float l2_norm(const Tensor& a) {
  double total = 0.0;
  const float* pa = a.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    total += static_cast<double>(pa[i]) * pa[i];
  }
  return static_cast<float>(std::sqrt(total));
}

float dot(const Tensor& a, const Tensor& b) {
  ZKG_REQUIRE_SAME_SHAPE(a, b, "dot");
  double total = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    total += static_cast<double>(pa[i]) * pb[i];
  }
  return static_cast<float>(total);
}

void argmax_rows_into(std::vector<std::int64_t>& out, const Tensor& a) {
  ZKG_REQUIRE_RANK(a, 2, "argmax_rows");
  ZKG_REQUIRE(a.dim(1) > 0) << " argmax_rows of zero-width tensor";
  const std::int64_t rows = a.dim(0);
  const std::int64_t cols = a.dim(1);
  out.resize(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < cols; ++c) {
      if (a[r * cols + c] > a[r * cols + best]) best = c;
    }
    out[static_cast<std::size_t>(r)] = best;
  }
}

void softmax_rows_into(Tensor& out, const Tensor& logits) {
  ZKG_REQUIRE_RANK(logits, 2, "softmax_rows");
  ZKG_REQUIRE(logits.dim(1) > 0) << " softmax_rows of zero-width tensor";
  ZKG_REQUIRE_NOT_ALIASED(out, logits, "softmax_rows_into");
  ensure_shape(out, logits.shape());
  backend::active().softmax_rows(out.data(), logits.data(), logits.dim(0),
                                 logits.dim(1));
}

void concat_rows_into(Tensor& out, const Tensor& a, const Tensor& b) {
  ZKG_REQUIRE(a.ndim() == b.ndim() && a.ndim() >= 1)
      << " concat_rows rank mismatch: " << shape_to_string(a.shape())
      << " vs " << shape_to_string(b.shape());
  for (std::int64_t i = 1; i < a.ndim(); ++i) {
    ZKG_REQUIRE(a.dim(i) == b.dim(i))
        << " concat_rows inner-shape mismatch on axis " << i;
  }
  ZKG_REQUIRE_NOT_ALIASED(out, a, "concat_rows_into");
  ZKG_REQUIRE_NOT_ALIASED(out, b, "concat_rows_into");
  Shape out_shape = a.shape();
  out_shape[0] = a.dim(0) + b.dim(0);
  ensure_shape(out, out_shape);
  copy_floats(out.data(), a.data(), a.numel());
  copy_floats(out.data() + a.numel(), b.data(), b.numel());
}

void gather_rows_into(Tensor& out, const Tensor& a,
                      const std::vector<std::int64_t>& indices) {
  ZKG_REQUIRE(a.ndim() >= 1) << " gather_rows on rank-0 tensor";
  ZKG_REQUIRE_NOT_ALIASED(out, a, "gather_rows_into");
  const std::int64_t rows = a.dim(0);
  std::int64_t stride = 1;
  for (std::int64_t i = 1; i < a.ndim(); ++i) stride *= a.dim(i);
  Shape out_shape = a.shape();
  out_shape[0] = static_cast<std::int64_t>(indices.size());
  ensure_shape(out, out_shape);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::int64_t r = indices[i];
    ZKG_REQUIRE_INDEX(r, rows, "gather_rows");
    std::copy(a.data() + r * stride, a.data() + (r + 1) * stride,
              out.data() + static_cast<std::int64_t>(i) * stride);
  }
}

}  // namespace zkg
