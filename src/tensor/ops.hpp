// Element-wise and reduction kernels over Tensor.
//
// Naming: `add(a, b)` returns a new tensor; `add_(a, b)` mutates its first
// argument in place. In-place forms are preferred in training inner loops.
//
// Every value-returning kernel has an `_into` counterpart that writes into
// a caller-provided destination (resized via ensure_shape; must not alias
// an input). Reusing the destination across steps keeps the hot path
// allocation-free; results are bit-identical between the two forms. This
// pairing is a repo invariant enforced by tools/analyze.py (into-counterpart).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace zkg {

// ---- element-wise binary (same shape) ----
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
void add_(Tensor& a, const Tensor& b);
void sub_(Tensor& a, const Tensor& b);
void mul_(Tensor& a, const Tensor& b);
void add_into(Tensor& out, const Tensor& a, const Tensor& b);
void sub_into(Tensor& out, const Tensor& a, const Tensor& b);
void mul_into(Tensor& out, const Tensor& a, const Tensor& b);
void div_into(Tensor& out, const Tensor& a, const Tensor& b);

// ---- scalar forms ----
Tensor add(const Tensor& a, float s);
Tensor mul(const Tensor& a, float s);
void add_(Tensor& a, float s);
void mul_(Tensor& a, float s);
void add_into(Tensor& out, const Tensor& a, float s);
void mul_into(Tensor& out, const Tensor& a, float s);

/// y += alpha * x (BLAS axpy); shapes must match.
void axpy_(Tensor& y, float alpha, const Tensor& x);

/// y += alpha * sign(x): the fused FGSM/BIM/PGD ascent step. Equivalent to
/// axpy_(y, alpha, sign(x)) — bit-identical, but with no sign(x) temporary.
void add_scaled_sign_(Tensor& y, float alpha, const Tensor& x);

// ---- element-wise unary ----
Tensor neg(const Tensor& a);
Tensor abs(const Tensor& a);
/// sign(0) == 0.
Tensor sign(const Tensor& a);
/// In-place sign: a[i] <- sign(a[i]).
void sign_(Tensor& a);
Tensor clamp(const Tensor& a, float lo, float hi);
void clamp_(Tensor& a, float lo, float hi);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor square(const Tensor& a);
void neg_into(Tensor& out, const Tensor& a);
void abs_into(Tensor& out, const Tensor& a);
void sign_into(Tensor& out, const Tensor& a);
void clamp_into(Tensor& out, const Tensor& a, float lo, float hi);
void exp_into(Tensor& out, const Tensor& a);
void log_into(Tensor& out, const Tensor& a);
void sqrt_into(Tensor& out, const Tensor& a);
void square_into(Tensor& out, const Tensor& a);

// ---- reductions ----
float sum(const Tensor& a);
float mean(const Tensor& a);
float max_value(const Tensor& a);
float min_value(const Tensor& a);
float max_abs(const Tensor& a);
float l2_norm(const Tensor& a);
float dot(const Tensor& a, const Tensor& b);

/// Per-row reductions over a [rows, cols] tensor.
Tensor row_sum(const Tensor& a);                 // -> [rows]
Tensor row_max(const Tensor& a);                 // -> [rows]
void row_sum_into(Tensor& out, const Tensor& a);
void row_max_into(Tensor& out, const Tensor& a);
std::vector<std::int64_t> argmax_rows(const Tensor& a);  // -> rows indices
/// As argmax_rows, reusing `out`'s capacity (no allocation once it has
/// seen the batch size) — the argmax half of Classifier::predict_into.
void argmax_rows_into(std::vector<std::int64_t>& out, const Tensor& a);

/// Row-wise softmax of a [rows, cols] tensor (numerically stabilised).
Tensor softmax_rows(const Tensor& logits);
void softmax_rows_into(Tensor& out, const Tensor& logits);

/// One-hot encodes labels into a [labels.size(), num_classes] tensor.
Tensor one_hot(const std::vector<std::int64_t>& labels,
               std::int64_t num_classes);
void one_hot_into(Tensor& out, const std::vector<std::int64_t>& labels,
                  std::int64_t num_classes);

/// Concatenates along axis 0; inner shapes must match.
Tensor concat_rows(const Tensor& a, const Tensor& b);
void concat_rows_into(Tensor& out, const Tensor& a, const Tensor& b);

/// Rows of `a` selected by `indices` (axis 0), in order.
Tensor gather_rows(const Tensor& a, const std::vector<std::int64_t>& indices);
void gather_rows_into(Tensor& out, const Tensor& a,
                      const std::vector<std::int64_t>& indices);

}  // namespace zkg
