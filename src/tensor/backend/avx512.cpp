// AVX-512 kernel backend: the avx2 table with its GEMM and conv entries
// running an 8x16 register tile.
//
// The tile holds eight ZMM accumulators, one per 16-column row, fed by one
// B load and eight A broadcasts per depth step. NR stays 16, so the packed
// B slabs, the conv offset tables and the gathers are the AVX2 ones; only
// MR (6 -> 8) and the microkernel differ. Every output element is still
// one FMA chain over the depth in the same KC blocks, so results are
// bit-identical to the avx2 table. The bench models' channel counts (8,
// 16, 32) are multiples of 8, so no tile row is padding there.
//
// Elementwise, softmax and bias entries are the avx2 table's functions.
// This file compiles with -mavx2 -mfma -mavx512f in every build type;
// dispatch.cpp only selects the table when the running CPU reports
// AVX-512F (which __builtin_cpu_supports reports only when the OS saves
// the ZMM state) alongside AVX2+FMA.
#include "tensor/backend/backend.hpp"

#if defined(__AVX512F__) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include "tensor/backend/packed_gemm.hpp"

namespace zkg::backend {
namespace {

/// The 8x16 register tile: C[0..8, 0..16) (+)= Aslab * Bslab over kcnt
/// depth steps. `ldc` is C's row stride; with accumulate=false the tile
/// overwrites C.
struct Tile8x16 {
  static constexpr std::int64_t kMR = 8;

  static void run(std::int64_t kcnt, const float* aslab, const float* bslab,
                  float* c, std::int64_t ldc, bool accumulate) {
    __m512 acc[kMR];
    for (int r = 0; r < kMR; ++r) acc[r] = _mm512_setzero_ps();
    for (std::int64_t kk = 0; kk < kcnt; ++kk) {
      const __m512 bv = _mm512_loadu_ps(bslab + kk * kNR);
      for (int r = 0; r < kMR; ++r) {
        const __m512 av = _mm512_set1_ps(aslab[kk * kMR + r]);
        acc[r] = _mm512_fmadd_ps(av, bv, acc[r]);
      }
    }
    for (int r = 0; r < kMR; ++r) {
      float* crow = c + r * ldc;
      if (accumulate) acc[r] = _mm512_add_ps(acc[r], _mm512_loadu_ps(crow));
      _mm512_storeu_ps(crow, acc[r]);
    }
  }
};

}  // namespace

bool cpu_supports_avx512() {
  return __builtin_cpu_supports("avx512f") && cpu_supports_avx2();
}

const KernelBackend* avx512_backend_if_supported() {
  if (!cpu_supports_avx512()) return nullptr;
  static const KernelBackend table = [] {
    KernelBackend t = *avx2_backend_if_supported();
    t.name = "avx512";
    t.matmul = matmul<Tile8x16>;
    t.matmul_nt = matmul_nt<Tile8x16>;
    t.matmul_tn = matmul_tn<Tile8x16>;
    t.conv_forward = conv_forward<Tile8x16>;
    t.conv_backward_input = conv_backward_input<Tile8x16>;
    t.conv_backward_params = conv_backward_params<Tile8x16>;
    return t;
  }();
  return &table;
}

}  // namespace zkg::backend

#else  // no AVX-512F at compile time: the table is never available

namespace zkg::backend {

bool cpu_supports_avx512() { return false; }
const KernelBackend* avx512_backend_if_supported() { return nullptr; }

}  // namespace zkg::backend

#endif
