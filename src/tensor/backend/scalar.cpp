// Portable scalar backend: the pre-backend kernel implementations, moved
// verbatim behind the KernelBackend table. Loop structure, blocking and
// accumulation order are unchanged, so this backend is bit-identical to
// the library's historical results — it is both the fallback for CPUs
// without AVX2 and the reference the SIMD backends are tested against.
// The conv passes run those same dot-product and rank-1 loops one output
// position at a time over a gathered patch. The table runs the
// elementwise loops over parallel_for_elements chunks (Chunked), which
// leaves every element's arithmetic as it was.
#include <algorithm>
#include <cmath>
#include <vector>

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
          crow[j] = dot(arow, b + j * k, k);
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

// ---- convolution: one output position at a time ----
//
// Each position's patch is gathered into a K-float buffer, so the forward
// pass is matmul_nt's dot product and both gradients are matmul's and
// matmul_tn's rank-1 loops (zero multipliers skipped), each over the same
// K order as a row of the patch matrix, padding zeros included.

namespace {

/// The calling thread's patch buffer, grown to at least `n` floats and
/// kept for the thread's lifetime (so steady state never allocates).
float* patch_scratch(std::int64_t n) {
  thread_local std::vector<float> patch;
  if (patch.size() < static_cast<std::size_t>(n)) {
    patch.resize(static_cast<std::size_t>(n));
  }
  return patch.data();
}

/// patch[kk] = image element offsets[kk], or zero for padding.
void gather_patch(float* patch, const float* image,
                  const std::int32_t* offsets, std::int64_t k) {
  for (std::int64_t kk = 0; kk < k; ++kk) {
    patch[kk] = offsets[kk] >= 0 ? image[offsets[kk]] : 0.0f;
  }
}

}  // namespace

void conv_forward(float* y, const float* x, const float* w, const float* bias,
                  const ConvShape& shape) {
  const std::int64_t s = shape.spatial;
  const std::int64_t k = shape.patch;
  const std::int64_t oc = shape.out_channels;
  const std::int64_t grain = parallel_grain(2 * k * oc);
  parallel_for(shape.batch * s, grain, [&](std::int64_t r0, std::int64_t r1) {
    float* patch = patch_scratch(k);
    for (std::int64_t r = r0; r < r1; ++r) {
      const std::int64_t b = r / s;
      const std::int64_t pos = r % s;
      gather_patch(patch, x + b * shape.in_image, shape.offsets + pos * k, k);
      float* out = y + b * oc * s + pos;
      for (std::int64_t o = 0; o < oc; ++o) {
        // Stored, then biased: add_row_bias's rounding steps.
        const float acc = dot(patch, w + o * k, k);
        out[o * s] = acc + bias[o];
      }
    }
  });
}

void conv_backward_input(float* dx, const float* dy, const float* w,
                         const ConvShape& shape) {
  const std::int64_t s = shape.spatial;
  const std::int64_t k = shape.patch;
  const std::int64_t oc = shape.out_channels;
  // Patches overlap, so each image's scatter stays on one chunk.
  parallel_for(shape.batch, parallel_grain(2 * s * k * oc),
               [&](std::int64_t b0, std::int64_t b1) {
    float* grad = patch_scratch(k);
    for (std::int64_t b = b0; b < b1; ++b) {
      float* image = dx + b * shape.in_image;
      std::fill(image, image + shape.in_image, 0.0f);
      for (std::int64_t pos = 0; pos < s; ++pos) {
        std::fill(grad, grad + k, 0.0f);
        for (std::int64_t o = 0; o < oc; ++o) {
          const float g = dy[(b * oc + o) * s + pos];
          if (g == 0.0f) continue;
          const float* wrow = w + o * k;
          for (std::int64_t kk = 0; kk < k; ++kk) grad[kk] += g * wrow[kk];
        }
        const std::int32_t* offsets = shape.offsets + pos * k;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          if (offsets[kk] >= 0) image[offsets[kk]] += grad[kk];
        }
      }
    }
  });
}

void conv_backward_params(float* dw, float* db, const float* dy,
                          const float* x, const ConvShape& shape) {
  const std::int64_t s = shape.spatial;
  const std::int64_t k = shape.patch;
  const std::int64_t oc = shape.out_channels;
  std::fill(dw, dw + oc * k, 0.0f);  // the rank-1 updates accumulate
  // Each chunk owns dw columns [j0, j1) of every row and walks every
  // (b, s) in order, gathering only its slice of each patch. At least 16
  // columns per chunk keep the rank-1 loop vectorisable.
  const std::int64_t grain =
      std::max<std::int64_t>(16, parallel_grain(2 * shape.batch * s * oc));
  parallel_for(k, grain, [&](std::int64_t j0, std::int64_t j1) {
    float* patch = patch_scratch(k);
    for (std::int64_t b = 0; b < shape.batch; ++b) {
      for (std::int64_t pos = 0; pos < s; ++pos) {
        gather_patch(patch + j0, x + b * shape.in_image,
                     shape.offsets + pos * k + j0, j1 - j0);
        for (std::int64_t o = 0; o < oc; ++o) {
          const float g = dy[(b * oc + o) * s + pos];
          if (g == 0.0f) continue;
          float* wrow = dw + o * k;
          for (std::int64_t kk = j0; kk < j1; ++kk) {
            wrow[kk] += g * patch[kk];
          }
        }
      }
    }
  });
  conv_bias_grad(db, dy, shape);
}

void conv_bias_grad(float* db, const float* dy, const ConvShape& shape) {
  const std::int64_t s = shape.spatial;
  const std::int64_t oc = shape.out_channels;
  parallel_for(oc, parallel_grain(shape.batch * s),
               [&](std::int64_t o0, std::int64_t o1) {
    for (std::int64_t o = o0; o < o1; ++o) {
      float acc = 0.0f;
      for (std::int64_t b = 0; b < shape.batch; ++b) {
        const float* plane = dy + (b * oc + o) * s;
        for (std::int64_t pos = 0; pos < s; ++pos) acc += plane[pos];
      }
      db[o] = acc;
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
      scalar::conv_forward,
      scalar::conv_backward_input,
      scalar::conv_backward_params,
      Chunked<scalar::add>::run,
      Chunked<scalar::sub>::run,
      Chunked<scalar::mul>::run,
      Chunked<scalar::add_scalar>::run,
      Chunked<scalar::mul_scalar>::run,
      Chunked<scalar::axpy>::run,
      Chunked<scalar::add_scaled_sign>::run,
      Chunked<scalar::clamp>::run,
      Chunked<scalar::relu>::run,
      Chunked<scalar::relu_backward>::run,
      scalar::softmax_rows,
  };
  return table;
}

}  // namespace zkg::backend
