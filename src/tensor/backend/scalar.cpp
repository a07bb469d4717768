// Portable scalar backend: the pre-backend kernel implementations, moved
// verbatim behind the KernelBackend table. Loop structure, blocking and
// accumulation order are unchanged, so this backend is bit-identical to
// the library's historical results — it is both the fallback for CPUs
// without AVX2 and the reference the SIMD backends are tested against.
#include <algorithm>
#include <cmath>

#include "common/parallel.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/backend/scalar_kernels.hpp"

namespace zkg::backend::scalar {
namespace {

// Tile sizes for the blocked GEMM kernels, in float elements. A kTileK x
// kTileJ tile of B is 64 KiB — it stays resident in L2 while a chunk of
// rows streams over it, and the kTileJ-wide C/B row segments fit in L1.
constexpr std::int64_t kTileJ = 256;
constexpr std::int64_t kTileK = 64;

}  // namespace

void matmul(float* c, const float* a, const float* b, std::int64_t m,
            std::int64_t k, std::int64_t n) {
  std::fill(c, c + m * n, 0.0f);  // the blocked kernel accumulates into C
  // Blocked i-k-j: for each (k, j) tile of B the chunk's rows of C are
  // updated while the tile is hot; the innermost j loop keeps B and C
  // row-contiguous so it vectorises.
  const std::int64_t grain = parallel_grain(2 * k * n);
  parallel_for(m, grain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t kb = 0; kb < k; kb += kTileK) {
      const std::int64_t ke = std::min(kb + kTileK, k);
      for (std::int64_t jb = 0; jb < n; jb += kTileJ) {
        const std::int64_t je = std::min(jb + kTileJ, n);
        for (std::int64_t i = i0; i < i1; ++i) {
          float* crow = c + i * n;
          for (std::int64_t kk = kb; kk < ke; ++kk) {
            const float aik = a[i * k + kk];
            if (aik == 0.0f) continue;
            const float* brow = b + kk * n;
            for (std::int64_t j = jb; j < je; ++j) crow[j] += aik * brow[j];
          }
        }
      }
    }
  });
}

void matmul_nt(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t k, std::int64_t n) {
  // Block the j loop so a band of B rows (jtile * k floats ~ 64 KiB) is
  // reused across every row i of the chunk.
  const std::int64_t jtile = std::clamp<std::int64_t>(
      (1 << 14) / std::max<std::int64_t>(1, k), 8, 512);
  const std::int64_t grain = parallel_grain(2 * k * n);
  parallel_for(m, grain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t jb = 0; jb < n; jb += jtile) {
      const std::int64_t je = std::min(jb + jtile, n);
      for (std::int64_t i = i0; i < i1; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (std::int64_t j = jb; j < je; ++j) {
          const float* brow = b + j * k;
          // Four independent float accumulators let the compiler vectorise;
          // float precision is ample for the k <= few-thousand dot products
          // that occur in this library.
          float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
          std::int64_t kk = 0;
          for (; kk + 4 <= k; kk += 4) {
            acc0 += arow[kk] * brow[kk];
            acc1 += arow[kk + 1] * brow[kk + 1];
            acc2 += arow[kk + 2] * brow[kk + 2];
            acc3 += arow[kk + 3] * brow[kk + 3];
          }
          float acc = (acc0 + acc1) + (acc2 + acc3);
          for (; kk < k; ++kk) acc += arow[kk] * brow[kk];
          crow[j] = acc;
        }
      }
    }
  });
}

void matmul_tn(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t k, std::int64_t n) {
  std::fill(c, c + m * n, 0.0f);  // the rank-1 update kernel accumulates
  // Accumulate rank-1 updates; k is the batch dimension in backprop, so
  // parallelism and blocking mirror matmul with A read column-wise.
  const std::int64_t grain = parallel_grain(2 * k * n);
  parallel_for(m, grain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t kb = 0; kb < k; kb += kTileK) {
      const std::int64_t ke = std::min(kb + kTileK, k);
      for (std::int64_t jb = 0; jb < n; jb += kTileJ) {
        const std::int64_t je = std::min(jb + kTileJ, n);
        for (std::int64_t i = i0; i < i1; ++i) {
          float* crow = c + i * n;
          for (std::int64_t kk = kb; kk < ke; ++kk) {
            const float aki = a[kk * m + i];
            if (aki == 0.0f) continue;
            const float* brow = b + kk * n;
            for (std::int64_t j = jb; j < je; ++j) crow[j] += aki * brow[j];
          }
        }
      }
    }
  });
}

void col_sum(float* out, const float* a, std::int64_t m, std::int64_t n) {
  std::fill(out, out + n, 0.0f);  // accumulates row by row
  // Partition over columns: each chunk owns out[j0, j1) so the row-wise
  // accumulation stays race-free and summation order per column is fixed.
  parallel_for(n, parallel_grain(m), [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t i = 0; i < m; ++i) {
      const float* arow = a + i * n;
      for (std::int64_t j = j0; j < j1; ++j) out[j] += arow[j];
    }
  });
}

void add_row_bias(float* a, const float* bias, std::int64_t m,
                  std::int64_t n) {
  parallel_for(m, parallel_grain(n), [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      for (std::int64_t j = 0; j < n; ++j) a[i * n + j] += bias[j];
    }
  });
}

void add(float* out, const float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}
void sub(float* out, const float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] - b[i];
}
void mul(float* out, const float* a, const float* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}
void add_scalar(float* out, const float* a, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] + s;
}
void mul_scalar(float* out, const float* a, float s, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] * s;
}
void axpy(float* y, float alpha, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}
void add_scaled_sign(float* y, float alpha, const float* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    // alpha * (+-1.0f) and alpha * 0.0f are exact, so this matches
    // axpy(y, alpha, sign(x)) bit for bit.
    const float s = x[i] > 0.0f ? 1.0f : (x[i] < 0.0f ? -1.0f : 0.0f);
    y[i] += alpha * s;
  }
}
void clamp(float* out, const float* a, float lo, float hi, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = std::clamp(a[i], lo, hi);
}

void relu(float* out, const float* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] > 0.0f ? a[i] : 0.0f;
}
void relu_backward(float* g, const float* in, const float* go,
                   std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) g[i] = in[i] > 0.0f ? go[i] : 0.0f;
}
void leaky_relu(float* out, const float* a, float slope, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = a[i] > 0.0f ? a[i] : slope * a[i];
  }
}
void leaky_relu_backward(float* g, const float* in, const float* go,
                         float slope, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    g[i] = in[i] > 0.0f ? go[i] : slope * go[i];
  }
}

void softmax_rows(float* out, const float* logits, std::int64_t rows,
                  std::int64_t cols) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* lrow = logits + r * cols;
    float* orow = out + r * cols;
    float row_peak = lrow[0];
    for (std::int64_t c = 1; c < cols; ++c) {
      row_peak = std::max(row_peak, lrow[c]);
    }
    double denom = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float e = std::exp(lrow[c] - row_peak);
      orow[c] = e;
      denom += e;
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t c = 0; c < cols; ++c) orow[c] *= inv;
  }
}

}  // namespace zkg::backend::scalar

namespace zkg::backend {

const KernelBackend& scalar_backend() {
  static const KernelBackend table = {
      /*name=*/"scalar",
      /*simd=*/false,
      scalar::matmul,
      scalar::matmul_nt,
      scalar::matmul_tn,
      scalar::col_sum,
      scalar::add_row_bias,
      scalar::add,
      scalar::sub,
      scalar::mul,
      scalar::add_scalar,
      scalar::mul_scalar,
      scalar::axpy,
      scalar::add_scaled_sign,
      scalar::clamp,
      scalar::relu,
      scalar::relu_backward,
      scalar::leaky_relu,
      scalar::leaky_relu_backward,
      scalar::softmax_rows,
  };
  return table;
}

}  // namespace zkg::backend
