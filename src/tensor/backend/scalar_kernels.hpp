// The portable scalar kernels, exposed so other backends can share them.
//
// These are the exact loops the library shipped before the backend split
// (cache-blocked, parallelised over zkg::parallel_for, deterministic).
// scalar.cpp assembles them into the scalar KernelBackend table; the AVX2
// backend reuses the ones where explicit vectorization buys nothing
// (col_sum) or where determinism demands the double-accumulator form.
#pragma once

#include <cstdint>

namespace zkg::backend::scalar {

void matmul(float* c, const float* a, const float* b, std::int64_t m,
            std::int64_t k, std::int64_t n);
void matmul_nt(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t k, std::int64_t n);
void matmul_tn(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t k, std::int64_t n);
void col_sum(float* out, const float* a, std::int64_t m, std::int64_t n);
void add_row_bias(float* a, const float* bias, std::int64_t m,
                  std::int64_t n);

void add(float* out, const float* a, const float* b, std::int64_t n);
void sub(float* out, const float* a, const float* b, std::int64_t n);
void mul(float* out, const float* a, const float* b, std::int64_t n);
void add_scalar(float* out, const float* a, float s, std::int64_t n);
void mul_scalar(float* out, const float* a, float s, std::int64_t n);
void axpy(float* y, float alpha, const float* x, std::int64_t n);
void add_scaled_sign(float* y, float alpha, const float* x, std::int64_t n);
void clamp(float* out, const float* a, float lo, float hi, std::int64_t n);

void relu(float* out, const float* a, std::int64_t n);
void relu_backward(float* g, const float* in, const float* go,
                   std::int64_t n);
void leaky_relu(float* out, const float* a, float slope, std::int64_t n);
void leaky_relu_backward(float* g, const float* in, const float* go,
                         float slope, std::int64_t n);

void softmax_rows(float* out, const float* logits, std::int64_t rows,
                  std::int64_t cols);

}  // namespace zkg::backend::scalar
