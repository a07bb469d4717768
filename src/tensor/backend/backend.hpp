// Pluggable CPU kernel backends behind the linalg/ops entry points.
//
// A KernelBackend is a function table covering the GEMM family, the three
// convolution passes and the hot elementwise/activation/softmax kernels.
// The public entry points in tensor/linalg.hpp and tensor/ops.hpp keep
// their signatures: they validate contracts, size destinations through the
// pool, then call through backend::active(); nn::Conv2d calls the conv
// entries itself. Three backends exist:
//
//   scalar  portable C++ loops — exactly the kernels this library always
//           shipped, extracted behind the table. Bit-identical to the
//           pre-backend implementation.
//   avx2    AVX2/FMA: a packed GEMM driver (packed_gemm.hpp) on a 6x16
//           register tile plus vectorized elementwise kernels. Compiled
//           into every x86-64 build (with per-file -mavx2 -mfma) and
//           selected only when the running CPU reports AVX2+FMA support.
//   avx512  the avx2 table with the GEMM and conv entries on an 8x16 tile
//           of ZMM accumulators (per-file -mavx512f); selected only when
//           the CPU reports AVX-512F. Bit-identical to avx2.
//
// Selection happens once, at first use: ZKG_BACKEND=scalar|avx2|avx512|
// auto (default auto = the first supported of avx512, avx2, scalar). Every
// backend is deterministic and bit-identical run-to-run; between scalar
// and the SIMD tables the GEMM family agrees only within tolerance,
// because FMA contraction and blocked accumulation legitimately change
// low-order bits (see DESIGN.md §13).
//
// Raw SIMD intrinsics are confined to src/tensor/backend/ — enforced by
// tools/analyze.py (simd-outside-backend).
#pragma once

#include <cstdint>
#include <string>

namespace zkg::backend {

/// One batch's convolution as the conv entries see it: an implicit GEMM
/// of depth `patch` = C*k*k over `spatial` = OH*OW output positions per
/// image, read straight from NCHW tensors. Kernel size, stride and
/// padding are folded into `offsets`, the per-image patch table built once
/// per geometry by nn::Conv2d: patch element kk (in (ci, ky, kx) order) of
/// output position s reads element offsets[s*patch + kk] of its input
/// image, or zero where that entry is -1 (padding). `depth_offsets` is the
/// same table depth-major (depth_offsets[kk*spatial + s]), so the offsets
/// of one patch element over consecutive positions are contiguous.
struct ConvShape {
  std::int64_t batch = 0;
  std::int64_t in_image = 0;      // C*H*W: floats per input image
  std::int64_t out_channels = 0;  // OC
  std::int64_t spatial = 0;       // OH*OW
  std::int64_t patch = 0;         // C*k*k
  const std::int32_t* offsets = nullptr;        // [spatial, patch]
  const std::int32_t* depth_offsets = nullptr;  // [patch, spatial]
};

/// Function table of raw kernels. Pointers are never null. All buffers are
/// dense row-major float32; shape/aliasing contracts have already been
/// validated by the linalg/ops entry points, and destinations are fully
/// overwritten (never read) unless a kernel is documented as in-place.
struct KernelBackend {
  const char* name;  // "scalar" | "avx2" | "avx512"
  bool simd;         // true when explicit vector intrinsics are used

  // ---- GEMM family ----
  /// C[m,n] = A[m,k] * B[k,n].
  void (*matmul)(float* c, const float* a, const float* b, std::int64_t m,
                 std::int64_t k, std::int64_t n);
  /// C[m,n] = A[m,k] * B[n,k]^T.
  void (*matmul_nt)(float* c, const float* a, const float* b, std::int64_t m,
                    std::int64_t k, std::int64_t n);
  /// C[m,n] = A[k,m]^T * B[k,n].
  void (*matmul_tn)(float* c, const float* a, const float* b, std::int64_t m,
                    std::int64_t k, std::int64_t n);
  /// out[n] = sum over rows of A[m,n].
  void (*col_sum)(float* out, const float* a, std::int64_t m, std::int64_t n);
  /// A[m,n] += bias[n] per row (in place).
  void (*add_row_bias)(float* a, const float* bias, std::int64_t m,
                       std::int64_t n);

  // ---- convolution over NCHW tensors (see ConvShape) ----
  // Each entry is bit-identical to the patch-matrix formulation it
  // replaces on the same backend: lowering the input to a [B*S, K] patch
  // matrix, one GEMM, and a layout reorder or a scatter-add back.
  /// y[B, OC, S] = W[OC, K] * patches(x) + bias[OC].
  void (*conv_forward)(float* y, const float* x, const float* w,
                       const float* bias, const ConvShape& shape);
  /// dx[B, C*H*W] = the scatter-add of dY^T * W over each patch, in
  /// (s, kk) order.
  void (*conv_backward_input)(float* dx, const float* dy, const float* w,
                              const ConvShape& shape);
  /// dw[OC, K] = dY * patches(x) summed over (b, s) ascending;
  /// db[OC] = dY summed over (b, s) ascending.
  void (*conv_backward_params)(float* dw, float* db, const float* dy,
                               const float* x, const ConvShape& shape);

  // ---- hot elementwise kernels over n contiguous floats ----
  // `out` may alias `a` (the in-place entry points rely on it); binary
  // kernels may also alias `out` with `b`. Every elementwise and
  // activation entry runs over parallel_for_elements chunks (inline up to
  // kElementwiseGrain floats); elements are independent, so the result
  // does not depend on the thread count.
  void (*add)(float* out, const float* a, const float* b, std::int64_t n);
  void (*sub)(float* out, const float* a, const float* b, std::int64_t n);
  void (*mul)(float* out, const float* a, const float* b, std::int64_t n);
  /// out = a + s.
  void (*add_scalar)(float* out, const float* a, float s, std::int64_t n);
  /// out = a * s.
  void (*mul_scalar)(float* out, const float* a, float s, std::int64_t n);
  /// y += alpha * x (in place).
  void (*axpy)(float* y, float alpha, const float* x, std::int64_t n);
  /// y += alpha * sign(x) (in place); sign(0) == 0.
  void (*add_scaled_sign)(float* y, float alpha, const float* x,
                          std::int64_t n);
  void (*clamp)(float* out, const float* a, float lo, float hi,
                std::int64_t n);

  // ---- activations ----
  void (*relu)(float* out, const float* a, std::int64_t n);
  /// g = (in > 0) ? go : 0.
  void (*relu_backward)(float* g, const float* in, const float* go,
                        std::int64_t n);

  // ---- softmax ----
  /// Row-wise numerically stabilised softmax of logits[rows, cols];
  /// cols > 0.
  void (*softmax_rows)(float* out, const float* logits, std::int64_t rows,
                       std::int64_t cols);
};

/// The portable reference backend (always available).
const KernelBackend& scalar_backend();

/// The AVX2/FMA backend, or nullptr when this build/CPU cannot run it.
const KernelBackend* avx2_backend_if_supported();

/// True when the running CPU supports AVX2 and FMA (runtime CPUID probe).
bool cpu_supports_avx2();

/// The AVX-512 backend (8x16 GEMM/conv tile), or nullptr when this
/// build/CPU cannot run it.
const KernelBackend* avx512_backend_if_supported();

/// True when the running CPU supports AVX-512F with OS-saved ZMM state, and
/// AVX2+FMA (runtime CPUID probe).
bool cpu_supports_avx512();

/// The backend every linalg/ops entry point dispatches through: resolve()
/// of ZKG_BACKEND (default auto), once, on first use.
const KernelBackend& active();

/// The backend a ZKG_BACKEND value selects: a table's name, or "auto" for
/// the first of avx512, avx2, scalar the CPU supports. Throws
/// zkg::ConfigError, listing the valid values, for an unknown name or one
/// the CPU cannot run.
const KernelBackend& resolve(const std::string& choice);

/// Name of active(), for logs/benches ("scalar", "avx2" or "avx512").
const char* active_name();

/// Backend with the given name ("scalar", "avx2", "avx512"), or nullptr when
/// unknown or unsupported on this CPU.
const KernelBackend* find(const std::string& name);

/// RAII scope forcing a specific backend process-wide. Tests and benches
/// use this to compare backends inside one process; training code never
/// switches backends mid-run.
class BackendScope {
 public:
  explicit BackendScope(const KernelBackend& backend);
  ~BackendScope();
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  const KernelBackend* previous_;
};

}  // namespace zkg::backend
