// Element-wise and reduction kernels over Tensor.
//
// Naming: `add_(a, b)` mutates its first argument in place; `add_into(out,
// a, b)` writes into a caller-provided destination (resized via
// ensure_shape; must not alias an input). These are the only forms: reusing
// the destination across steps keeps the hot path allocation-free. A caller
// whose result escapes constructs the destination at its final shape first,
// so ensure_shape does nothing and no buffer is taken from the pool.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace zkg {

// ---- copy ----
/// out = a, shape and values, copied over parallel_for_elements chunks.
/// Unlike the other `_into` forms, `out` is sized as copy assignment sizes
/// it: in place when its capacity suffices, else in a new buffer outside
/// the pool. The layer caches read by backward copy through it, so a
/// cache never holds a pooled buffer; a destination that should be pooled
/// is sized with ensure_shape first.
void copy_into(Tensor& out, const Tensor& a);

// ---- element-wise binary (same shape) ----
void add_(Tensor& a, const Tensor& b);
void mul_(Tensor& a, const Tensor& b);
void add_into(Tensor& out, const Tensor& a, const Tensor& b);
void sub_into(Tensor& out, const Tensor& a, const Tensor& b);
void mul_into(Tensor& out, const Tensor& a, const Tensor& b);

// ---- scalar forms ----
void add_(Tensor& a, float s);
void mul_(Tensor& a, float s);
void add_into(Tensor& out, const Tensor& a, float s);
void mul_into(Tensor& out, const Tensor& a, float s);

/// y += alpha * x (BLAS axpy); shapes must match.
void axpy_(Tensor& y, float alpha, const Tensor& x);

/// y += alpha * sign(x), sign(0) == 0: the fused FGSM/BIM/PGD ascent step.
/// Bit-identical to adding alpha times a materialised sign tensor, with no
/// temporary.
void add_scaled_sign_(Tensor& y, float alpha, const Tensor& x);

// ---- element-wise clamp ----
void clamp_(Tensor& a, float lo, float hi);
void clamp_into(Tensor& out, const Tensor& a, float lo, float hi);

// ---- reductions ----
float sum(const Tensor& a);
float mean(const Tensor& a);
float max_value(const Tensor& a);
float min_value(const Tensor& a);
float max_abs(const Tensor& a);
float l2_norm(const Tensor& a);
float dot(const Tensor& a, const Tensor& b);

/// Row-wise argmax of a [rows, cols] tensor, reusing `out`'s capacity (no
/// allocation once it has seen the batch size) — the argmax half of
/// InferenceSession::predict.
void argmax_rows_into(std::vector<std::int64_t>& out, const Tensor& a);

/// Row-wise softmax of a [rows, cols] tensor (numerically stabilised).
void softmax_rows_into(Tensor& out, const Tensor& logits);

/// Concatenates along axis 0; inner shapes must match.
void concat_rows_into(Tensor& out, const Tensor& a, const Tensor& b);

/// Rows of `a` selected by `indices` (axis 0), in order.
void gather_rows_into(Tensor& out, const Tensor& a,
                      const std::vector<std::int64_t>& indices);

}  // namespace zkg
