// AVX2/FMA kernel backend.
//
// GEMM and convolution run the shared packed drivers (packed_gemm.hpp) on
// a 6x16 register tile of 12 YMM accumulators. Every C element accumulates
// its k terms in one fixed order, so results are bit-identical run-to-run
// regardless of thread count, and bit-identical to the avx512 table's 8x16
// tile; only *across* the scalar backend do low bits differ (FMA
// contraction, different blocking).
//
// Elementwise/activation kernels are straightforward 8-lane loops chosen
// to match the scalar backend's arithmetic exactly (one rounding per
// element, no reassociation): add/sub/mul, axpy, the fused
// sign-ascent step, clamp and the ReLU family are bit-identical to
// scalar; softmax and GEMM agree within tolerance. The table runs each
// over parallel_for_elements chunks (Chunked, scalar_kernels.hpp). The
// avx512 table reuses these entries as they are.
//
// Raw intrinsics stay inside src/tensor/backend/ (tools/analyze.py's
// simd-outside-backend rule). This file compiles with -mavx2 -mfma in
// every build type; dispatch.cpp only selects the table when the running
// CPU reports AVX2+FMA.
#include "tensor/backend/backend.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "common/parallel.hpp"
#include "tensor/backend/packed_gemm.hpp"
#include "tensor/backend/scalar_kernels.hpp"

namespace zkg::backend {
namespace {

/// The 6x16 register tile: 12 YMM accumulators fed by two B loads and six
/// A broadcasts per depth step, leaving registers for the two B vectors and
/// the broadcast. C[0..6, 0..16) (+)= Aslab * Bslab over kcnt depth steps;
/// `ldc` is C's row stride; with accumulate=false the tile overwrites C.
struct Tile6x16 {
  static constexpr std::int64_t kMR = 6;

  static void run(std::int64_t kcnt, const float* aslab, const float* bslab,
                  float* c, std::int64_t ldc, bool accumulate) {
    __m256 acc[kMR][2];
    for (int r = 0; r < kMR; ++r) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    }
    for (std::int64_t kk = 0; kk < kcnt; ++kk) {
      const __m256 b0 = _mm256_loadu_ps(bslab + kk * kNR);
      const __m256 b1 = _mm256_loadu_ps(bslab + kk * kNR + 8);
      for (int r = 0; r < kMR; ++r) {
        const __m256 av = _mm256_broadcast_ss(aslab + kk * kMR + r);
        acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
        acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
      }
    }
    for (int r = 0; r < kMR; ++r) {
      float* crow = c + r * ldc;
      if (accumulate) {
        acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_loadu_ps(crow));
        acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_loadu_ps(crow + 8));
      }
      _mm256_storeu_ps(crow, acc[r][0]);
      _mm256_storeu_ps(crow + 8, acc[r][1]);
    }
  }
};

void add_row_bias(float* a, const float* bias, std::int64_t m,
                  std::int64_t n) {
  parallel_for(m, parallel_grain(n), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float* arow = a + i * n;
      std::int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(arow + j,
                         _mm256_add_ps(_mm256_loadu_ps(arow + j),
                                       _mm256_loadu_ps(bias + j)));
      }
      for (; j < n; ++j) arow[j] += bias[j];
    }
  });
}

// ---- elementwise: same arithmetic as scalar (one rounding per element),
// so these are bit-identical across backends ----

void add(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}
void sub(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}
void mul(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}
void add_scalar(float* out, const float* a, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) out[i] = a[i] + s;
}
void mul_scalar(float* out, const float* a, float s, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) out[i] = a[i] * s;
}
void axpy(float* y, float alpha, const float* x, std::int64_t n) {
  // y + alpha*x with separate mul/add rounding, matching the scalar
  // backend bit-for-bit (fmadd would contract the rounding step).
  const __m256 va = _mm256_set1_ps(alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}
void add_scaled_sign(float* y, float alpha, const float* x, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 pos = _mm256_set1_ps(alpha);
  const __m256 neg = _mm256_set1_ps(-alpha);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 gt = _mm256_cmp_ps(vx, zero, _CMP_GT_OQ);
    const __m256 lt = _mm256_cmp_ps(vx, zero, _CMP_LT_OQ);
    // alpha * sign(x) built by masking: +alpha where x>0, -alpha where
    // x<0, else 0 — exact, like the scalar form.
    const __m256 step = _mm256_or_ps(_mm256_and_ps(gt, pos),
                                     _mm256_and_ps(lt, neg));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), step));
  }
  for (; i < n; ++i) {
    const float s = x[i] > 0.0f ? 1.0f : (x[i] < 0.0f ? -1.0f : 0.0f);
    y[i] += alpha * s;
  }
}
void clamp(float* out, const float* a, float lo, float hi, std::int64_t n) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vhi = _mm256_set1_ps(hi);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     _mm256_min_ps(_mm256_max_ps(_mm256_loadu_ps(a + i), vlo),
                                   vhi));
  }
  for (; i < n; ++i) out[i] = std::clamp(a[i], lo, hi);
}

void relu(float* out, const float* a, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
  }
  for (; i < n; ++i) out[i] = a[i] > 0.0f ? a[i] : 0.0f;
}
void relu_backward(float* g, const float* in, const float* go,
                   std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 mask = _mm256_cmp_ps(_mm256_loadu_ps(in + i), zero,
                                      _CMP_GT_OQ);
    _mm256_storeu_ps(g + i, _mm256_and_ps(mask, _mm256_loadu_ps(go + i)));
  }
  for (; i < n; ++i) g[i] = in[i] > 0.0f ? go[i] : 0.0f;
}

void softmax_rows(float* out, const float* logits, std::int64_t rows,
                  std::int64_t cols) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* lrow = logits + r * cols;
    float* orow = out + r * cols;
    // Vectorised stabiliser max; exp stays scalar (std::exp), the
    // normalising sum keeps the scalar backend's double accumulator.
    float row_peak = lrow[0];
    std::int64_t c = 0;
    if (cols >= 8) {
      __m256 peak = _mm256_loadu_ps(lrow);
      for (c = 8; c + 8 <= cols; c += 8) {
        peak = _mm256_max_ps(peak, _mm256_loadu_ps(lrow + c));
      }
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, peak);
      row_peak = lanes[0];
      for (int l = 1; l < 8; ++l) row_peak = std::max(row_peak, lanes[l]);
    } else {
      c = 1;
    }
    for (; c < cols; ++c) row_peak = std::max(row_peak, lrow[c]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < cols; ++j) {
      const float e = std::exp(lrow[j] - row_peak);
      orow[j] = e;
      denom += e;
    }
    mul_scalar(orow, orow, static_cast<float>(1.0 / denom), cols);
  }
}

}  // namespace

bool cpu_supports_avx2() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

const KernelBackend* avx2_backend_if_supported() {
  if (!cpu_supports_avx2()) return nullptr;
  static const KernelBackend table = {
      /*name=*/"avx2",
      /*simd=*/true,
      matmul<Tile6x16>,
      matmul_nt<Tile6x16>,
      matmul_tn<Tile6x16>,
      // Column-sum gains nothing from hand vectorisation (it is load/store
      // bound); share the scalar blocked kernel.
      scalar::col_sum,
      add_row_bias,
      conv_forward<Tile6x16>,
      conv_backward_input<Tile6x16>,
      conv_backward_params<Tile6x16>,
      Chunked<add>::run,
      Chunked<sub>::run,
      Chunked<mul>::run,
      Chunked<add_scalar>::run,
      Chunked<mul_scalar>::run,
      Chunked<axpy>::run,
      Chunked<add_scaled_sign>::run,
      Chunked<clamp>::run,
      Chunked<relu>::run,
      Chunked<relu_backward>::run,
      softmax_rows,
  };
  return &table;
}

}  // namespace zkg::backend

#else  // no AVX2/FMA at compile time (non-x86 target): scalar-only build

namespace zkg::backend {

bool cpu_supports_avx2() { return false; }
const KernelBackend* avx2_backend_if_supported() { return nullptr; }

}  // namespace zkg::backend

#endif
