// The portable scalar kernels, exposed so other backends can share them.
//
// These are the exact loops the library shipped before the backend split
// (cache-blocked, parallelised over zkg::parallel_for, deterministic).
// scalar.cpp assembles them into the scalar KernelBackend table; the AVX2
// backend reuses the ones where explicit vectorization buys nothing
// (col_sum, the conv bias gradient) or where determinism demands the
// double-accumulator form.
//
// It also holds Chunked, the one wrapper both tables put around their
// serial elementwise loops to run them over parallel_for_elements.
#pragma once

#include <cstdint>
#include <tuple>

#include "common/parallel.hpp"
#include "tensor/backend/backend.hpp"

namespace zkg::backend {
namespace chunk_detail {

// One kernel argument narrowed to the chunk [begin, end): buffers advance
// to `begin`, the trailing element count becomes end - begin, and scalar
// parameters (alpha, slope, clamp bounds) pass through.
inline float* narrow(float* p, std::int64_t begin, std::int64_t) {
  return p + begin;
}
inline const float* narrow(const float* p, std::int64_t begin,
                           std::int64_t) {
  return p + begin;
}
inline float narrow(float v, std::int64_t, std::int64_t) { return v; }
inline std::int64_t narrow(std::int64_t, std::int64_t begin,
                           std::int64_t end) {
  return end - begin;
}

}  // namespace chunk_detail

/// Chunked<Kernel>::run has Kernel's signature — buffers and scalars, then
/// the element count n last — and runs Kernel over parallel_for_elements
/// chunks of [0, n). Elements are independent, so the result is
/// bit-identical to one serial call for any chunking, and a destination
/// aliasing an input stays safe (each chunk reads and writes the same
/// range).
template <auto Kernel>
struct Chunked;

template <typename... Args, void (*Kernel)(Args...)>
struct Chunked<Kernel> {
  static void run(Args... args) {
    const std::int64_t n = std::get<sizeof...(Args) - 1>(std::tie(args...));
    parallel_for_elements(n, [&](std::int64_t begin, std::int64_t end) {
      Kernel(chunk_detail::narrow(args, begin, end)...);
    });
  }
};

}  // namespace zkg::backend

namespace zkg::backend::scalar {

/// a[0,k) . b[0,k) as matmul_nt and conv_forward compute it: four
/// interleaved float accumulators, combined pairwise, then the tail.
inline float dot(const float* a, const float* b, std::int64_t k) {
  // Four independent float accumulators let the compiler vectorise; float
  // precision is ample for the k <= few-thousand dot products that occur
  // in this library.
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  std::int64_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    acc0 += a[kk] * b[kk];
    acc1 += a[kk + 1] * b[kk + 1];
    acc2 += a[kk + 2] * b[kk + 2];
    acc3 += a[kk + 3] * b[kk + 3];
  }
  float acc = (acc0 + acc1) + (acc2 + acc3);
  for (; kk < k; ++kk) acc += a[kk] * b[kk];
  return acc;
}

void matmul(float* c, const float* a, const float* b, std::int64_t m,
            std::int64_t k, std::int64_t n);
void matmul_nt(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t k, std::int64_t n);
void matmul_tn(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t k, std::int64_t n);
void col_sum(float* out, const float* a, std::int64_t m, std::int64_t n);
void add_row_bias(float* a, const float* bias, std::int64_t m,
                  std::int64_t n);

void conv_forward(float* y, const float* x, const float* w, const float* bias,
                  const ConvShape& shape);
void conv_backward_input(float* dx, const float* dy, const float* w,
                         const ConvShape& shape);
void conv_backward_params(float* dw, float* db, const float* dy,
                          const float* x, const ConvShape& shape);
/// db[OC] = dY[B, OC, S] summed over (b, s) ascending from zero: the
/// order col_sum gives the [B*S, OC] matrix.
void conv_bias_grad(float* db, const float* dy, const ConvShape& shape);

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

void softmax_rows(float* out, const float* logits, std::int64_t rows,
                  std::int64_t cols);

}  // namespace zkg::backend::scalar
