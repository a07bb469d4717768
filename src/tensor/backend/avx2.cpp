// AVX2/FMA kernel backend.
//
// GEMM: a packed, register-blocked microkernel in the BLIS style. The
// driver walks cache blocks (NC columns x KC depth x MC rows), packs the
// current B panel into NR-wide column slabs (pooled, 64-byte-aligned
// scratch from BufferPool) and each A block into MR-tall row slabs (one
// per-thread scratch block, sized once), so steady-state GEMM stays
// allocation-free, then runs a 6x16 register tile:
// 12 YMM accumulators fed by two aligned B loads and six A broadcasts per
// k step. Row blocks are distributed over zkg::parallel_for; every C
// element accumulates its k terms in one fixed order (kc blocks ascending,
// k ascending inside the microkernel), so results are bit-identical
// run-to-run regardless of thread count — only *across* backends do low
// bits differ from the scalar path (FMA contraction, different blocking).
//
// The three GEMM variants (NN, NT, TN) share one strided driver: packing
// absorbs the transposes, so no operand is ever materialised transposed.
//
// Convolution runs the same microkernel as an implicit GEMM: operands are
// gathered straight from the NCHW tensors through the layer's patch
// offset tables with AVX2 masked gathers (padding lanes read nothing and
// stay 0), so no patch matrix or reordered copy is ever built. dW splits
// its (b, s) depth into KC blocks computed in parallel and folded in block
// order (DESIGN.md §13).
//
// Elementwise/activation kernels are straightforward 8-lane loops chosen
// to match the scalar backend's arithmetic exactly (one rounding per
// element, no reassociation): add/sub/mul, axpy, the fused
// sign-ascent step, clamp and the ReLU family are bit-identical to
// scalar; softmax and GEMM agree within tolerance. The table runs each
// over parallel_for_elements chunks (Chunked, scalar_kernels.hpp).
//
// This file is the only one allowed to touch <immintrin.h> outside
// tools/analyze.py's simd-outside-backend allowlist. It compiles with
// -mavx2 -mfma in every build type; dispatch.cpp only selects the table
// when the running CPU reports AVX2+FMA.
#include "tensor/backend/backend.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "common/parallel.hpp"
#include "tensor/backend/scalar_kernels.hpp"
#include "tensor/pool.hpp"

namespace zkg::backend {
namespace {

// Register block: 6 rows x 16 columns = 12 YMM accumulators, leaving
// registers for the two B vectors and the A broadcast.
constexpr std::int64_t kMR = 6;
constexpr std::int64_t kNR = 16;
// Cache blocks: a KC x NR B slab (16 KiB) stays in L1 across a row block;
// the packed MC x KC A block (96 KiB) sits in L2; the KC x NC B panel
// (1 MiB) streams from L3.
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kMC = 96;
constexpr std::int64_t kNC = 1024;

static_assert(kMC % kMR == 0, "A block must tile by the register rows");
static_assert(kNC % kNR == 0, "B panel must tile by the register columns");

/// Packs the A block rows [i0, i0+mc) x depth [kc, kc+kcnt) into MR-tall
/// slabs: slab s holds rows i0+s*MR.., laid out k-major (dst[kk*MR + r]),
/// zero-padded to MR so the microkernel never reads ragged rows. Element
/// A(i, kk) lives at a[i*ri + kk*rk] — strides absorb the TN transpose.
void pack_a(float* dst, const float* a, std::int64_t ri, std::int64_t rk,
            std::int64_t i0, std::int64_t mc, std::int64_t kc,
            std::int64_t kcnt) {
  for (std::int64_t ir = 0; ir < mc; ir += kMR) {
    const std::int64_t mr = std::min(kMR, mc - ir);
    float* slab = dst + ir * kcnt;
    for (std::int64_t kk = 0; kk < kcnt; ++kk) {
      const float* src = a + (kc + kk) * rk + (i0 + ir) * ri;
      for (std::int64_t r = 0; r < mr; ++r) slab[kk * kMR + r] = src[r * ri];
      for (std::int64_t r = mr; r < kMR; ++r) slab[kk * kMR + r] = 0.0f;
    }
  }
}

/// Packs the B panel depth [kc, kc+kcnt) x columns [jc, jc+nc) into
/// NR-wide slabs (dst[kk*NR + j]), zero-padded to NR. Element B(kk, j)
/// lives at b[kk*rk + j*cj] — strides absorb the NT transpose.
void pack_b(float* dst, const float* b, std::int64_t rk, std::int64_t cj,
            std::int64_t kc, std::int64_t kcnt, std::int64_t jc,
            std::int64_t nc) {
  for (std::int64_t jr = 0; jr < nc; jr += kNR) {
    const std::int64_t nr = std::min(kNR, nc - jr);
    float* slab = dst + jr * kcnt;
    for (std::int64_t kk = 0; kk < kcnt; ++kk) {
      const float* src = b + (kc + kk) * rk + (jc + jr) * cj;
      for (std::int64_t j = 0; j < nr; ++j) slab[kk * kNR + j] = src[j * cj];
      for (std::int64_t j = nr; j < kNR; ++j) slab[kk * kNR + j] = 0.0f;
    }
  }
}

/// The 6x16 register tile: C[0..6, 0..16) (+)= Aslab * Bslab over kcnt
/// depth steps. `ldc` is C's row stride; with accumulate=false the tile
/// overwrites C.
void micro_6x16(std::int64_t kcnt, const float* aslab, const float* bslab,
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

/// Edge tile (mr < MR and/or nr < NR): run the full microkernel into a
/// local tile (the packed slabs are zero-padded, so the extra lanes
/// compute zeros), then copy the valid mr x nr corner into C.
void micro_edge(std::int64_t kcnt, const float* aslab, const float* bslab,
                float* c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                bool accumulate) {
  alignas(32) float tile[kMR * kNR];
  micro_6x16(kcnt, aslab, bslab, tile, kNR, /*accumulate=*/false);
  for (std::int64_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const float* trow = tile + r * kNR;
    if (accumulate) {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] += trow[j];
    } else {
      for (std::int64_t j = 0; j < nr; ++j) crow[j] = trow[j];
    }
  }
}

/// One register tile of C: the full microkernel, or micro_edge when the
/// tile is ragged.
void micro_tile(std::int64_t kcnt, const float* aslab, const float* bslab,
                float* c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                bool accumulate) {
  if (mr == kMR && nr == kNR) {
    micro_6x16(kcnt, aslab, bslab, c, ldc, accumulate);
  } else {
    micro_edge(kcnt, aslab, bslab, c, ldc, mr, nr, accumulate);
  }
}

/// The calling thread's packed-A scratch: one MC x KC block (96 KiB),
/// allocated on the thread's first GEMM and reused for its lifetime. It is
/// per-thread rather than pooled so the BufferPool's steady state does not
/// depend on how many row-block chunks happen to run at once. A chunk body
/// makes no parallel_for call, so no other chunk can reuse the block on
/// this thread while it is live.
float* a_panel_scratch() {
  thread_local FloatBuffer panel(static_cast<std::size_t>(kMC * kKC));
  return panel.data();
}

/// Shared packed-GEMM driver: C[m,n] = A * B with A(i,kk) = a[i*ri+kk*rk]
/// and B(kk,j) = b[kk*rk2+j*cj]. C is dense row-major and fully
/// overwritten.
void gemm_strided(float* c, std::int64_t m, std::int64_t k, std::int64_t n,
                  const float* a, std::int64_t a_ri, std::int64_t a_rk,
                  const float* b, std::int64_t b_rk, std::int64_t b_cj) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  BufferPool& pool = BufferPool::global();
  FloatBuffer bpanel = pool.acquire(static_cast<std::size_t>(kKC * kNC));
  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    for (std::int64_t kc = 0; kc < k; kc += kKC) {
      const std::int64_t kcnt = std::min(kKC, k - kc);
      pack_b(bpanel.data(), b, b_rk, b_cj, kc, kcnt, jc, nc);
      const bool accumulate = kc > 0;
      const std::int64_t row_blocks = (m + kMC - 1) / kMC;
      // One row block costs 2*MC*kcnt*nc flops — far above any sane grain,
      // so parallelise at block granularity.
      parallel_for(row_blocks, 1, [&](std::int64_t blk0, std::int64_t blk1) {
        float* apanel = a_panel_scratch();
        for (std::int64_t blk = blk0; blk < blk1; ++blk) {
          const std::int64_t i0 = blk * kMC;
          const std::int64_t mc = std::min(kMC, m - i0);
          pack_a(apanel, a, a_ri, a_rk, i0, mc, kc, kcnt);
          for (std::int64_t jr = 0; jr < nc; jr += kNR) {
            const std::int64_t nr = std::min(kNR, nc - jr);
            const float* bslab = bpanel.data() + jr * kcnt;
            for (std::int64_t ir = 0; ir < mc; ir += kMR) {
              const std::int64_t mr = std::min(kMR, mc - ir);
              const float* aslab = apanel + ir * kcnt;
              float* ctile = c + (i0 + ir) * n + (jc + jr);
              micro_tile(kcnt, aslab, bslab, ctile, n, mr, nr, accumulate);
            }
          }
        }
      });
    }
  }
  pool.release(std::move(bpanel));
}

void matmul(float* c, const float* a, const float* b, std::int64_t m,
            std::int64_t k, std::int64_t n) {
  gemm_strided(c, m, k, n, a, /*a_ri=*/k, /*a_rk=*/1, b, /*b_rk=*/n,
               /*b_cj=*/1);
}

void matmul_nt(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t k, std::int64_t n) {
  // B arrives as [n, k]; packing reads it transposed.
  gemm_strided(c, m, k, n, a, /*a_ri=*/k, /*a_rk=*/1, b, /*b_rk=*/1,
               /*b_cj=*/k);
}

void matmul_tn(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t k, std::int64_t n) {
  // A arrives as [k, m]; packing reads it transposed.
  gemm_strided(c, m, k, n, a, /*a_ri=*/1, /*a_rk=*/m, b, /*b_rk=*/n,
               /*b_cj=*/1);
}

// ---- convolution: implicit GEMM over the NCHW tensors ----
//
// Each pass drives micro_6x16 on operands gathered straight from NCHW
// through the patch offset table, and keeps the patch-matrix GEMM's
// accumulation order: every output element is the same FMA chain over the
// depth in the same kKC blocks (the product commutes, so which operand is
// A does not matter), so results are bit-identical to the lowered form.

std::int64_t round_up(std::int64_t n, std::int64_t to) {
  return (n + to - 1) / to * to;
}

/// The calling thread's dX tile: kMC positions x K, grown on demand and
/// kept for the thread's lifetime, like a_panel_scratch.
float* tile_scratch(std::int64_t n) {
  thread_local FloatBuffer tile;
  if (tile.size() < static_cast<std::size_t>(n)) {
    tile.resize(static_cast<std::size_t>(n));
  }
  return tile.data();
}

/// dst[0, 8) = image[idx[j]] for the eight offsets at idx, and 0 where an
/// offset is -1: the masked-off padding lanes read no memory.
inline void gather8(float* dst, const float* image, const std::int32_t* idx) {
  const __m256i vidx =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
  const __m256 live = _mm256_castsi256_ps(
      _mm256_cmpgt_epi32(vidx, _mm256_set1_epi32(-1)));
  _mm256_storeu_ps(dst, _mm256_mask_i32gather_ps(_mm256_setzero_ps(), image,
                                                 vidx, live, 4));
}

/// Forward B slab: depth [kc, kc+kcnt) x positions [s0, s0+nr) of one
/// image into dst[kk*NR + j], zero for padding and for columns j >= nr.
/// A full slab reads each depth row's 16 offsets contiguously from the
/// depth-major table and gathers them in two instructions; an edge slab
/// walks the position-major table one float at a time.
void gather_positions(float* dst, const float* image, const ConvShape& shape,
                      std::int64_t s0, std::int64_t nr, std::int64_t kc,
                      std::int64_t kcnt) {
  if (nr == kNR) {
    for (std::int64_t kk = 0; kk < kcnt; ++kk) {
      const std::int32_t* row =
          shape.depth_offsets + (kc + kk) * shape.spatial + s0;
      gather8(dst + kk * kNR, image, row);
      gather8(dst + kk * kNR + 8, image, row + 8);
    }
    return;
  }
  const std::int32_t* offsets = shape.offsets;
  const std::int64_t k = shape.patch;
  for (std::int64_t j = 0; j < kNR; ++j) {
    if (j >= nr) {
      for (std::int64_t kk = 0; kk < kcnt; ++kk) dst[kk * kNR + j] = 0.0f;
      continue;
    }
    const std::int32_t* row = offsets + (s0 + j) * k + kc;
    for (std::int64_t kk = 0; kk < kcnt; ++kk) {
      dst[kk * kNR + j] = row[kk] >= 0 ? image[row[kk]] : 0.0f;
    }
  }
}

void conv_forward(float* y, const float* x, const float* w, const float* bias,
                  const ConvShape& shape) {
  const std::int64_t oc = shape.out_channels;
  const std::int64_t s = shape.spatial;
  const std::int64_t k = shape.patch;
  // W is the A operand, packed once: kc block `kc` starts at oc_pad * kc.
  const std::int64_t oc_pad = round_up(oc, kMR);
  BufferPool& pool = BufferPool::global();
  FloatBuffer wpack = pool.acquire(static_cast<std::size_t>(oc_pad * k));
  for (std::int64_t kc = 0; kc < k; kc += kKC) {
    pack_a(wpack.data() + oc_pad * kc, w, /*ri=*/k, /*rk=*/1, /*i0=*/0, oc,
           kc, std::min(kKC, k - kc));
  }
  parallel_for(shape.batch, 1, [&](std::int64_t b0, std::int64_t b1) {
    alignas(64) float bslab[kKC * kNR];
    for (std::int64_t b = b0; b < b1; ++b) {
      const float* image = x + b * shape.in_image;
      float* out = y + b * oc * s;
      for (std::int64_t jr = 0; jr < s; jr += kNR) {
        const std::int64_t nr = std::min(kNR, s - jr);
        for (std::int64_t kc = 0; kc < k; kc += kKC) {
          const std::int64_t kcnt = std::min(kKC, k - kc);
          gather_positions(bslab, image, shape, jr, nr, kc, kcnt);
          const float* apack = wpack.data() + oc_pad * kc;
          for (std::int64_t ir = 0; ir < oc; ir += kMR) {
            const std::int64_t mr = std::min(kMR, oc - ir);
            float* ctile = out + ir * s + jr;
            micro_tile(kcnt, apack + ir * kcnt, bslab, ctile, s, mr, nr,
                       kc > 0);
          }
        }
      }
      for (std::int64_t o = 0; o < oc; ++o) {
        float* plane = out + o * s;
        const __m256 vb = _mm256_set1_ps(bias[o]);
        std::int64_t j = 0;
        for (; j + 8 <= s; j += 8) {
          _mm256_storeu_ps(plane + j,
                           _mm256_add_ps(_mm256_loadu_ps(plane + j), vb));
        }
        for (; j < s; ++j) plane[j] += bias[o];
      }
    }
  });
  pool.release(std::move(wpack));
}

void conv_backward_input(float* dx, const float* dy, const float* w,
                         const ConvShape& shape) {
  const std::int64_t oc = shape.out_channels;
  const std::int64_t s = shape.spatial;
  const std::int64_t k = shape.patch;
  // W is the B operand, packed once: kc block `kc` starts at k_pad * kc.
  const std::int64_t k_pad = round_up(k, kNR);
  BufferPool& pool = BufferPool::global();
  FloatBuffer wpack = pool.acquire(static_cast<std::size_t>(k_pad * oc));
  for (std::int64_t kc = 0; kc < oc; kc += kKC) {
    pack_b(wpack.data() + k_pad * kc, w, /*rk=*/k, /*cj=*/1, kc,
           std::min(kKC, oc - kc), /*jc=*/0, k);
  }
  // Patches overlap, so each image's scatter stays on one chunk.
  parallel_for(shape.batch, 1, [&](std::int64_t b0, std::int64_t b1) {
    float* apanel = a_panel_scratch();
    float* tile = tile_scratch(kMC * k);
    for (std::int64_t b = b0; b < b1; ++b) {
      const float* grad = dy + b * oc * s;
      float* image = dx + b * shape.in_image;
      std::fill(image, image + shape.in_image, 0.0f);
      for (std::int64_t i0 = 0; i0 < s; i0 += kMC) {
        const std::int64_t mc = std::min(kMC, s - i0);
        // tile[mc, K] = dY^T rows [i0, i0+mc) * W, read in place.
        for (std::int64_t kc = 0; kc < oc; kc += kKC) {
          const std::int64_t kcnt = std::min(kKC, oc - kc);
          pack_a(apanel, grad, /*ri=*/1, /*rk=*/s, i0, mc, kc, kcnt);
          for (std::int64_t jr = 0; jr < k; jr += kNR) {
            const std::int64_t nr = std::min(kNR, k - jr);
            const float* bslab = wpack.data() + k_pad * kc + jr * kcnt;
            for (std::int64_t ir = 0; ir < mc; ir += kMR) {
              const std::int64_t mr = std::min(kMR, mc - ir);
              float* ctile = tile + ir * k + jr;
              micro_tile(kcnt, apanel + ir * kcnt, bslab, ctile, k, mr, nr,
                         kc > 0);
            }
          }
        }
        // Scatter-add in (s, kk) order, skipping padding.
        for (std::int64_t r = 0; r < mc; ++r) {
          const std::int32_t* offsets = shape.offsets + (i0 + r) * k;
          const float* trow = tile + r * k;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            if (offsets[kk] >= 0) image[offsets[kk]] += trow[kk];
          }
        }
      }
    }
  });
  pool.release(std::move(wpack));
}

/// dW's B slab: flattened (b, s) rows [r0, r0+kcnt) x patch columns
/// [j0, j0+nr) into dst[kk*NR + j], zero for padding and for j >= nr. Each
/// row's offsets are contiguous in the position-major table, so a full
/// slab row is two gathers.
void gather_patches(float* dst, const float* x, const ConvShape& shape,
                    std::int64_t r0, std::int64_t kcnt, std::int64_t j0,
                    std::int64_t nr) {
  const std::int64_t s = shape.spatial;
  const std::int64_t k = shape.patch;
  for (std::int64_t kk = 0; kk < kcnt; ++kk) {
    const std::int64_t r = r0 + kk;
    const float* image = x + (r / s) * shape.in_image;
    const std::int32_t* row = shape.offsets + (r % s) * k + j0;
    float* out = dst + kk * kNR;
    if (nr == kNR) {
      gather8(out, image, row);
      gather8(out + 8, image, row + 8);
      continue;
    }
    for (std::int64_t j = 0; j < nr; ++j) {
      out[j] = row[j] >= 0 ? image[row[j]] : 0.0f;
    }
    for (std::int64_t j = nr; j < kNR; ++j) out[j] = 0.0f;
  }
}

/// dW's A block: dY^T rows (output channels) [o0, o0+mc) x flattened
/// (b, s) depth [r0, r0+kcnt), packed into MR-tall slabs like pack_a.
void pack_grad_rows(float* dst, const float* dy, const ConvShape& shape,
                    std::int64_t o0, std::int64_t mc, std::int64_t r0,
                    std::int64_t kcnt) {
  const std::int64_t s = shape.spatial;
  const std::int64_t oc = shape.out_channels;
  for (std::int64_t ir = 0; ir < mc; ir += kMR) {
    const std::int64_t mr = std::min(kMR, mc - ir);
    float* slab = dst + ir * kcnt;
    for (std::int64_t kk = 0; kk < kcnt; ++kk) {
      const std::int64_t r = r0 + kk;
      const float* src = dy + ((r / s) * oc + o0 + ir) * s + r % s;
      for (std::int64_t i = 0; i < mr; ++i) slab[kk * kMR + i] = src[i * s];
      for (std::int64_t i = mr; i < kMR; ++i) slab[kk * kMR + i] = 0.0f;
    }
  }
}

// Partial-sum floats dW holds at once (8 MiB), or one partial when a
// single one is larger. The bench models' layers fit in one wave; wider
// layers take several, which changes only how the blocks are scheduled,
// never the reduction order.
constexpr std::int64_t kPartialBudget = std::int64_t{1} << 21;

void conv_backward_params(float* dw, float* db, const float* dy,
                          const float* x, const ConvShape& shape) {
  const std::int64_t oc = shape.out_channels;
  const std::int64_t k = shape.patch;
  const std::int64_t rows = shape.batch * shape.spatial;
  const std::int64_t area = oc * k;
  // The depth splits into kKC-row blocks of the flattened (b, s) index,
  // exactly matmul_tn's kc blocks. Block j's partial P_j is computed on
  // its own; the reduction dw = P_0, then dw = P_j + dw in block order is
  // matmul_tn's accumulation chain, so the result does not depend on the
  // thread count.
  const std::int64_t blocks = (rows + kKC - 1) / kKC;
  const std::int64_t wave =
      std::clamp<std::int64_t>(kPartialBudget / area, 1, blocks);
  BufferPool& pool = BufferPool::global();
  FloatBuffer partials = pool.acquire(static_cast<std::size_t>(wave * area));
  float* part = partials.data();
  for (std::int64_t w0 = 0; w0 < blocks; w0 += wave) {
    const std::int64_t count = std::min(wave, blocks - w0);
    parallel_for(count, 1, [&](std::int64_t p0, std::int64_t p1) {
      float* apanel = a_panel_scratch();
      alignas(64) float bslab[kKC * kNR];
      for (std::int64_t p = p0; p < p1; ++p) {
        const std::int64_t r0 = (w0 + p) * kKC;
        const std::int64_t kcnt = std::min(kKC, rows - r0);
        float* out = part + p * area;
        for (std::int64_t o0 = 0; o0 < oc; o0 += kMC) {
          const std::int64_t mc = std::min(kMC, oc - o0);
          pack_grad_rows(apanel, dy, shape, o0, mc, r0, kcnt);
          for (std::int64_t jr = 0; jr < k; jr += kNR) {
            const std::int64_t nr = std::min(kNR, k - jr);
            gather_patches(bslab, x, shape, r0, kcnt, jr, nr);
            for (std::int64_t ir = 0; ir < mc; ir += kMR) {
              const std::int64_t mr = std::min(kMR, mc - ir);
              float* ctile = out + (o0 + ir) * k + jr;
              micro_tile(kcnt, apanel + ir * kcnt, bslab, ctile, k, mr, nr,
                         false);
            }
          }
        }
      }
    });
    // Fold this wave's partials into dw in block order; elements are
    // independent, so the fold runs in parallel over them.
    parallel_for(area, parallel_grain(count),
                 [&](std::int64_t e0, std::int64_t e1) {
      for (std::int64_t p = 0; p < count; ++p) {
        const float* src = part + p * area;
        if (w0 == 0 && p == 0) {
          std::copy(src + e0, src + e1, dw + e0);
          continue;
        }
        std::int64_t e = e0;
        for (; e + 8 <= e1; e += 8) {
          _mm256_storeu_ps(dw + e, _mm256_add_ps(_mm256_loadu_ps(src + e),
                                                 _mm256_loadu_ps(dw + e)));
        }
        for (; e < e1; ++e) dw[e] = src[e] + dw[e];
      }
    });
  }
  pool.release(std::move(partials));
  scalar::conv_bias_grad(db, dy, shape);
}

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
      matmul,
      matmul_nt,
      matmul_tn,
      // Column-sum gains nothing from hand vectorisation (it is load/store
      // bound); share the scalar blocked kernel.
      scalar::col_sum,
      add_row_bias,
      conv_forward,
      conv_backward_input,
      conv_backward_params,
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
