// The packed GEMM and implicit-GEMM convolution drivers shared by the SIMD
// backends, templated on the register tile.
//
// GEMM is a packed, register-blocked microkernel in the BLIS style. The
// driver walks cache blocks (NC columns x KC depth x MC rows), packs the
// current B panel into NR-wide column slabs (pooled, 64-byte-aligned
// scratch from BufferPool) and each A block into MR-tall row slabs (one
// per-thread scratch block, sized once), so steady-state GEMM stays
// allocation-free, then runs the tile's MR x 16 microkernel on each slab
// pair. Row blocks are distributed over zkg::parallel_for; every C element
// accumulates its k terms in one fixed order (kc blocks ascending, k
// ascending inside the microkernel), so results are bit-identical
// run-to-run regardless of thread count.
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
// A Tile supplies the row count and the microkernel:
//
//   struct Tile {
//     static constexpr std::int64_t kMR;  // rows of the register tile
//     // C[0..kMR, 0..16) (+)= aslab * bslab over kcnt depth steps, one
//     // FMA per element and depth step, k ascending.
//     static void run(std::int64_t kcnt, const float* aslab,
//                     const float* bslab, float* c, std::int64_t ldc,
//                     bool accumulate);
//   };
//
// Every output element is one FMA chain over the depth in the same KC
// blocks whatever kMR is, so two tiles give bit-identical results; the
// tile decides only how many rows share one B load.
//
// Every definition here has internal linkage (the anonymous namespace), so
// each backend file that includes this header gets its own copy, compiled
// with that file's instruction-set flags. With external linkage the linker
// could keep one file's copy of an inline helper for both tables, and an
// AVX-512 copy would fault on a CPU with AVX2 alone. Include it only from a
// file built with at least -mavx2 -mfma.
#pragma once

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "common/parallel.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/backend/scalar_kernels.hpp"
#include "tensor/pool.hpp"

namespace zkg::backend {
namespace {

// Register columns: 16 floats, one ZMM or two YMM per tile row. The packed
// B slabs, the conv offset reads and the gathers all work in units of 16.
constexpr std::int64_t kNR = 16;
// Cache blocks: a KC x NR B slab (16 KiB) stays in L1 across a row block;
// the packed MC x KC A block (96 KiB) sits in L2; the KC x NC B panel
// (1 MiB) streams from L3.
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kMC = 96;
constexpr std::int64_t kNC = 1024;

static_assert(kNC % kNR == 0, "B panel must tile by the register columns");

std::int64_t round_up(std::int64_t n, std::int64_t to) {
  return (n + to - 1) / to * to;
}

/// Packs the A block rows [i0, i0+mc) x depth [kc, kc+kcnt) into MR-tall
/// slabs: slab s holds rows i0+s*MR.., laid out k-major (dst[kk*MR + r]),
/// zero-padded to MR so the microkernel never reads ragged rows. Element
/// A(i, kk) lives at a[i*ri + kk*rk] — strides absorb the TN transpose.
template <typename Tile>
void pack_a(float* dst, const float* a, std::int64_t ri, std::int64_t rk,
            std::int64_t i0, std::int64_t mc, std::int64_t kc,
            std::int64_t kcnt) {
  constexpr std::int64_t kMR = Tile::kMR;
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

/// One register tile of C. A ragged tile (mr < MR and/or nr < NR) runs the
/// full microkernel into a local tile (the packed slabs are zero-padded, so
/// the extra lanes compute zeros), then copies the valid mr x nr corner
/// into C.
template <typename Tile>
void micro_tile(std::int64_t kcnt, const float* aslab, const float* bslab,
                float* c, std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                bool accumulate) {
  if (mr == Tile::kMR && nr == kNR) {
    Tile::run(kcnt, aslab, bslab, c, ldc, accumulate);
    return;
  }
  alignas(64) float tile[Tile::kMR * kNR];
  Tile::run(kcnt, aslab, bslab, tile, kNR, /*accumulate=*/false);
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

/// A per-thread scratch buffer of at least n floats, grown on demand and
/// kept for the thread's lifetime. `Tag` names the use, so the packed-A
/// panel, the dX tile and the packed conv weights never share storage.
/// A buffer stays live only while its owner's call runs on this thread;
/// the owner either makes no parallel_for call in between or, like
/// conv_forward, only hands the buffer to the chunks of its own
/// parallel_for, which run no other conv or GEMM call on this thread.
template <typename Tag>
float* thread_scratch(std::int64_t n) {
  thread_local FloatBuffer buffer;
  if (buffer.size() < static_cast<std::size_t>(n)) {
    buffer.resize(static_cast<std::size_t>(n));
  }
  return buffer.data();
}

struct APanelTag;
struct DxTileTag;
struct ConvWeightTag;

/// The calling thread's packed-A scratch: one MC x KC block (96 KiB). It is
/// per-thread rather than pooled so the BufferPool's steady state does not
/// depend on how many row-block chunks happen to run at once.
float* a_panel_scratch() { return thread_scratch<APanelTag>(kMC * kKC); }

/// Shared packed-GEMM driver: C[m,n] = A * B with A(i,kk) = a[i*ri+kk*rk]
/// and B(kk,j) = b[kk*rk2+j*cj]. C is dense row-major and fully
/// overwritten.
template <typename Tile>
void gemm_strided(float* c, std::int64_t m, std::int64_t k, std::int64_t n,
                  const float* a, std::int64_t a_ri, std::int64_t a_rk,
                  const float* b, std::int64_t b_rk, std::int64_t b_cj) {
  constexpr std::int64_t kMR = Tile::kMR;
  static_assert(kMC % kMR == 0, "A block must tile by the register rows");
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
          pack_a<Tile>(apanel, a, a_ri, a_rk, i0, mc, kc, kcnt);
          for (std::int64_t jr = 0; jr < nc; jr += kNR) {
            const std::int64_t nr = std::min(kNR, nc - jr);
            const float* bslab = bpanel.data() + jr * kcnt;
            for (std::int64_t ir = 0; ir < mc; ir += kMR) {
              const std::int64_t mr = std::min(kMR, mc - ir);
              const float* aslab = apanel + ir * kcnt;
              float* ctile = c + (i0 + ir) * n + (jc + jr);
              micro_tile<Tile>(kcnt, aslab, bslab, ctile, n, mr, nr,
                               accumulate);
            }
          }
        }
      });
    }
  }
  pool.release(std::move(bpanel));
}

template <typename Tile>
void matmul(float* c, const float* a, const float* b, std::int64_t m,
            std::int64_t k, std::int64_t n) {
  gemm_strided<Tile>(c, m, k, n, a, /*a_ri=*/k, /*a_rk=*/1, b, /*b_rk=*/n,
                     /*b_cj=*/1);
}

template <typename Tile>
void matmul_nt(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t k, std::int64_t n) {
  // B arrives as [n, k]; packing reads it transposed.
  gemm_strided<Tile>(c, m, k, n, a, /*a_ri=*/k, /*a_rk=*/1, b, /*b_rk=*/1,
                     /*b_cj=*/k);
}

template <typename Tile>
void matmul_tn(float* c, const float* a, const float* b, std::int64_t m,
               std::int64_t k, std::int64_t n) {
  // A arrives as [k, m]; packing reads it transposed.
  gemm_strided<Tile>(c, m, k, n, a, /*a_ri=*/1, /*a_rk=*/m, b, /*b_rk=*/n,
                     /*b_cj=*/1);
}

// ---- convolution: implicit GEMM over the NCHW tensors ----
//
// Each pass drives the microkernel on operands gathered straight from NCHW
// through the patch offset table, and keeps the patch-matrix GEMM's
// accumulation order: every output element is the same FMA chain over the
// depth in the same kKC blocks (the product commutes, so which operand is
// A does not matter), so results are bit-identical to the lowered form.

/// dst[0, 8) = image[idx[j]] for the eight offsets at idx, and 0 where an
/// offset is -1: the masked-off padding lanes read no memory.
void gather8(float* dst, const float* image, const std::int32_t* idx) {
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

template <typename Tile>
void conv_forward(float* y, const float* x, const float* w, const float* bias,
                  const ConvShape& shape) {
  constexpr std::int64_t kMR = Tile::kMR;
  const std::int64_t oc = shape.out_channels;
  const std::int64_t s = shape.spatial;
  const std::int64_t k = shape.patch;
  // W is the A operand, packed once per call into the calling thread's
  // scratch (kc block `kc` starts at oc_pad * kc). It is not pooled: its
  // size follows MR, and a pooled copy released mid-pass could hand its
  // bucket to a buffer the rest of the pass keeps, costing a later pass a
  // pool miss.
  const std::int64_t oc_pad = round_up(oc, kMR);
  float* wpack = thread_scratch<ConvWeightTag>(oc_pad * k);
  for (std::int64_t kc = 0; kc < k; kc += kKC) {
    pack_a<Tile>(wpack + oc_pad * kc, w, /*ri=*/k, /*rk=*/1, /*i0=*/0, oc, kc,
                 std::min(kKC, k - kc));
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
          const float* apack = wpack + oc_pad * kc;
          for (std::int64_t ir = 0; ir < oc; ir += kMR) {
            const std::int64_t mr = std::min(kMR, oc - ir);
            float* ctile = out + ir * s + jr;
            micro_tile<Tile>(kcnt, apack + ir * kcnt, bslab, ctile, s, mr, nr,
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
}

template <typename Tile>
void conv_backward_input(float* dx, const float* dy, const float* w,
                         const ConvShape& shape) {
  constexpr std::int64_t kMR = Tile::kMR;
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
    float* tile = thread_scratch<DxTileTag>(kMC * k);
    for (std::int64_t b = b0; b < b1; ++b) {
      const float* grad = dy + b * oc * s;
      float* image = dx + b * shape.in_image;
      std::fill(image, image + shape.in_image, 0.0f);
      for (std::int64_t i0 = 0; i0 < s; i0 += kMC) {
        const std::int64_t mc = std::min(kMC, s - i0);
        // tile[mc, K] = dY^T rows [i0, i0+mc) * W, read in place.
        for (std::int64_t kc = 0; kc < oc; kc += kKC) {
          const std::int64_t kcnt = std::min(kKC, oc - kc);
          pack_a<Tile>(apanel, grad, /*ri=*/1, /*rk=*/s, i0, mc, kc, kcnt);
          for (std::int64_t jr = 0; jr < k; jr += kNR) {
            const std::int64_t nr = std::min(kNR, k - jr);
            const float* bslab = wpack.data() + k_pad * kc + jr * kcnt;
            for (std::int64_t ir = 0; ir < mc; ir += kMR) {
              const std::int64_t mr = std::min(kMR, mc - ir);
              float* ctile = tile + ir * k + jr;
              micro_tile<Tile>(kcnt, apanel + ir * kcnt, bslab, ctile, k, mr,
                               nr, kc > 0);
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
template <typename Tile>
void pack_grad_rows(float* dst, const float* dy, const ConvShape& shape,
                    std::int64_t o0, std::int64_t mc, std::int64_t r0,
                    std::int64_t kcnt) {
  constexpr std::int64_t kMR = Tile::kMR;
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

template <typename Tile>
void conv_backward_params(float* dw, float* db, const float* dy,
                          const float* x, const ConvShape& shape) {
  constexpr std::int64_t kMR = Tile::kMR;
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
          pack_grad_rows<Tile>(apanel, dy, shape, o0, mc, r0, kcnt);
          for (std::int64_t jr = 0; jr < k; jr += kNR) {
            const std::int64_t nr = std::min(kNR, k - jr);
            gather_patches(bslab, x, shape, r0, kcnt, jr, nr);
            for (std::int64_t ir = 0; ir < mc; ir += kMR) {
              const std::int64_t mr = std::min(kMR, mc - ir);
              float* ctile = out + (o0 + ir) * k + jr;
              micro_tile<Tile>(kcnt, apanel + ir * kcnt, bslab, ctile, k, mr,
                               nr, false);
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

}  // namespace
}  // namespace zkg::backend
