// Tests for the dense linear-algebra kernels, including parameterized
// consistency sweeps of the fused-transpose GEMM variants against the
// reference implementation, cross-backend (scalar vs AVX2) agreement, the
// AVX-512 tile's bit identity with the AVX2 tile, and per-backend
// run-to-run bit identity.
#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/linalg.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tests/test_util.hpp"

namespace zkg {
namespace {

// Naive triple-loop reference GEMM, independent of every backend.
Tensor reference_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a.at(i, kk)) * b.at(kk, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

// Plain out-of-place transpose, to build the explicit-transpose references
// the fused NT/TN GEMMs are checked against.
Tensor reference_transpose(const Tensor& a) {
  Tensor t({a.dim(1), a.dim(0)});
  for (std::int64_t i = 0; i < a.dim(0); ++i) {
    for (std::int64_t j = 0; j < a.dim(1); ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

TEST(Matmul, KnownValues) {
  const Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  Tensor c;
  matmul_into(c, a, b);
  EXPECT_TRUE(c.equals(Tensor({2, 2}, std::vector<float>{58, 64, 139, 154})));
}

TEST(Matmul, IdentityIsNoop) {
  Rng rng(1);
  const Tensor a = randn({4, 4}, rng);
  Tensor eye({4, 4});
  for (std::int64_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  Tensor c;
  matmul_into(c, a, eye);
  EXPECT_TRUE(c.allclose(a, 1e-5f));
  matmul_into(c, eye, a);
  EXPECT_TRUE(c.allclose(a, 1e-5f));
}

TEST(Matmul, ShapeErrors) {
  Tensor c;
  EXPECT_THROW(matmul_into(c, Tensor({2, 3}), Tensor({2, 3})),
               InvalidArgument);
  EXPECT_THROW(matmul_into(c, Tensor({4}), Tensor({4, 4})), InvalidArgument);
}

class GemmVariants
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmVariants, NtMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(3 + m + k + n);
  const Tensor a = randn({m, k}, rng);
  const Tensor b = randn({n, k}, rng);
  Tensor c;
  matmul_nt_into(c, a, b);
  EXPECT_TRUE(
      c.allclose(reference_matmul(a, reference_transpose(b)), 1e-3f));
}

TEST_P(GemmVariants, TnMatchesExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(5 + m + k + n);
  const Tensor a = randn({k, m}, rng);
  const Tensor b = randn({k, n}, rng);
  Tensor c;
  matmul_tn_into(c, a, b);
  EXPECT_TRUE(
      c.allclose(reference_matmul(reference_transpose(a), b), 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmVariants,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                      std::tuple{7, 5, 3}, std::tuple{16, 16, 16},
                      std::tuple{1, 17, 9}, std::tuple{33, 8, 2},
                      std::tuple{64, 27, 10}));

TEST(Bias, AddRowBiasAndColSumAreAdjoint) {
  Rng rng(4);
  Tensor a = randn({5, 3}, rng);
  const Tensor before = a;
  const Tensor bias({3}, std::vector<float>{1, -2, 3});
  add_row_bias_(a, bias);
  for (std::int64_t r = 0; r < 5; ++r) {
    for (std::int64_t c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(a.at(r, c), before.at(r, c) + bias.at(c));
    }
  }
  // col_sum is the gradient of add_row_bias_ w.r.t. the bias.
  const Tensor g = randn({5, 3}, rng);
  Tensor summed;
  col_sum_into(summed, g);
  for (std::int64_t c = 0; c < 3; ++c) {
    float expected = 0.0f;
    for (std::int64_t r = 0; r < 5; ++r) expected += g.at(r, c);
    EXPECT_NEAR(summed.at(c), expected, 1e-4f);
  }
}

TEST(Bias, ShapeErrors) {
  Tensor a({2, 3});
  EXPECT_THROW(add_row_bias_(a, Tensor({2})), InvalidArgument);
  Tensor summed;
  EXPECT_THROW(col_sum_into(summed, Tensor({4})), InvalidArgument);
}

// Edge shapes every backend must handle exactly: single elements, single
// rows/columns, sizes that don't divide the SIMD register tile (6x16), and
// empty dimensions. Checked against the naive triple-loop reference under
// every available backend.
TEST(GemmEdgeShapes, MatchReferenceUnderEveryBackend) {
  const std::vector<std::tuple<int, int, int>> shapes{
      {1, 1, 1},  {1, 5, 1},   {5, 1, 5},  {1, 17, 1},
      {3, 3, 3},  {6, 16, 16}, {7, 19, 23}, {97, 3, 5},
      {13, 64, 33}};
  for (const backend::KernelBackend* b : testutil::available_backends()) {
    backend::BackendScope scope(*b);
    for (const auto& [m, k, n] : shapes) {
      Rng rng(11 + m + k + n);
      const Tensor a = randn({m, k}, rng);
      const Tensor bm = randn({k, n}, rng);
      const Tensor want = reference_matmul(a, bm);
      Tensor c;
      matmul_into(c, a, bm);
      EXPECT_TRUE(c.allclose(want, 1e-3f))
          << b->name << " matmul " << m << "x" << k << "x" << n;
      matmul_nt_into(c, a, reference_transpose(bm));
      EXPECT_TRUE(c.allclose(want, 1e-3f))
          << b->name << " matmul_nt " << m << "x" << k << "x" << n;
      matmul_tn_into(c, reference_transpose(a), bm);
      EXPECT_TRUE(c.allclose(want, 1e-3f))
          << b->name << " matmul_tn " << m << "x" << k << "x" << n;
    }
  }
}

TEST(GemmEdgeShapes, EmptyDimensionsUnderEveryBackend) {
  for (const backend::KernelBackend* b : testutil::available_backends()) {
    backend::BackendScope scope(*b);
    // m == 0 / n == 0: no output elements, but shapes must still be right.
    Tensor c;
    matmul_into(c, Tensor({0, 4}), Tensor({4, 5}));
    EXPECT_EQ(c.shape(), Shape({0, 5})) << b->name;
    matmul_into(c, Tensor({4, 3}), Tensor({3, 0}));
    EXPECT_EQ(c.shape(), Shape({4, 0})) << b->name;
    // k == 0: an empty contraction is all zeros, even over a dirty
    // destination.
    Tensor dirty({2, 3}, 42.0f);
    matmul_into(dirty, Tensor({2, 0}), Tensor({0, 3}));
    EXPECT_TRUE(dirty.equals(Tensor({2, 3}))) << b->name;
  }
}

// The *_into entry points reject aliased destinations in every build type
// regardless of backend — a SIMD backend reading packed panels from a
// buffer it is concurrently writing would silently corrupt results.
TEST(GemmContracts, AliasedDestinationsThrowUnderEveryBackend) {
  for (const backend::KernelBackend* b : testutil::available_backends()) {
    backend::BackendScope scope(*b);
    Tensor square({4, 4}, 1.0f);
    const Tensor other({4, 4}, 2.0f);
    EXPECT_THROW(matmul_into(square, square, other), InvalidArgument)
        << b->name;
    EXPECT_THROW(matmul_nt_into(square, other, square), InvalidArgument)
        << b->name;
    EXPECT_THROW(matmul_tn_into(square, square, other), InvalidArgument)
        << b->name;
    EXPECT_THROW(col_sum_into(square, square), InvalidArgument) << b->name;
  }
}

// Scalar and AVX2 legitimately differ in low-order bits (FMA contraction,
// blocked accumulation order) but must agree within tolerance on every
// kernel family.
TEST(CrossBackend, ScalarAndSimdAgreeWithinTolerance) {
  const backend::KernelBackend* avx2 = backend::avx2_backend_if_supported();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 backend on this CPU";

  Rng rng(21);
  const Tensor a = randn({33, 47}, rng);
  const Tensor b = randn({47, 29}, rng);
  const Tensor logits = randn({17, 10}, rng);

  Tensor scalar_mm, scalar_sm;
  {
    backend::BackendScope scope(backend::scalar_backend());
    matmul_into(scalar_mm, a, b);
    softmax_rows_into(scalar_sm, logits);
  }
  Tensor simd_mm, simd_sm;
  {
    backend::BackendScope scope(*avx2);
    matmul_into(simd_mm, a, b);
    softmax_rows_into(simd_sm, logits);
  }
  EXPECT_TRUE(simd_mm.allclose(scalar_mm, 1e-4f));
  EXPECT_TRUE(simd_sm.allclose(scalar_sm, 1e-6f));
}

// Elementwise and fused-sign kernels do one rounding per element in every
// backend, so they are bit-identical across backends, not just close.
TEST(CrossBackend, ElementwiseKernelsAreBitIdentical) {
  const backend::KernelBackend* avx2 = backend::avx2_backend_if_supported();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 backend on this CPU";

  Rng rng(23);
  const Tensor u = randn({3, 101}, rng);  // odd count exercises SIMD tails
  const Tensor v = randn({3, 101}, rng);

  Tensor s_add, s_mul, s_clamp, s_axpy = u, s_sign = u;
  {
    backend::BackendScope scope(backend::scalar_backend());
    add_into(s_add, u, v);
    mul_into(s_mul, u, v);
    clamp_into(s_clamp, u, -0.5f, 0.5f);
    axpy_(s_axpy, 0.3f, v);
    add_scaled_sign_(s_sign, 0.07f, v);
  }
  Tensor a_add, a_mul, a_clamp, a_axpy = u, a_sign = u;
  {
    backend::BackendScope scope(*avx2);
    add_into(a_add, u, v);
    mul_into(a_mul, u, v);
    clamp_into(a_clamp, u, -0.5f, 0.5f);
    axpy_(a_axpy, 0.3f, v);
    add_scaled_sign_(a_sign, 0.07f, v);
  }
  EXPECT_TRUE(a_add.equals(s_add));
  EXPECT_TRUE(a_mul.equals(s_mul));
  EXPECT_TRUE(a_clamp.equals(s_clamp));
  EXPECT_TRUE(a_axpy.equals(s_axpy));
  EXPECT_TRUE(a_sign.equals(s_sign));
}

// Every elementwise backend entry and copy_into run over
// parallel_for_elements chunks. On every backend, each must match one
// serial call bit for bit at sizes around the chunk grain, with the
// destination fresh or aliasing either input. In-place entries (axpy, the
// sign step) update a destination that starts as a copy of `a`.
TEST(ParallelKernels, ElementwiseBitIdenticalToSerial) {
  using Kernel = std::function<void(const backend::KernelBackend&, float*,
                                    const float*, const float*,
                                    std::int64_t)>;
  using B = const backend::KernelBackend&;
  const std::vector<std::pair<const char*, Kernel>> kernels = {
      {"add", [](B k, float* o, const float* a, const float* b,
                 std::int64_t n) { k.add(o, a, b, n); }},
      {"sub", [](B k, float* o, const float* a, const float* b,
                 std::int64_t n) { k.sub(o, a, b, n); }},
      {"mul", [](B k, float* o, const float* a, const float* b,
                 std::int64_t n) { k.mul(o, a, b, n); }},
      {"add_scalar", [](B k, float* o, const float* a, const float*,
                        std::int64_t n) { k.add_scalar(o, a, 0.3f, n); }},
      {"mul_scalar", [](B k, float* o, const float* a, const float*,
                        std::int64_t n) { k.mul_scalar(o, a, -1.7f, n); }},
      {"axpy", [](B k, float* o, const float*, const float* b,
                  std::int64_t n) { k.axpy(o, 0.37f, b, n); }},
      {"add_scaled_sign", [](B k, float* o, const float*, const float* b,
                             std::int64_t n) {
         k.add_scaled_sign(o, 0.07f, b, n);
       }},
      {"clamp", [](B k, float* o, const float* a, const float*,
                   std::int64_t n) { k.clamp(o, a, -0.5f, 0.8f, n); }},
      {"relu", [](B k, float* o, const float* a, const float*,
                  std::int64_t n) { k.relu(o, a, n); }},
      {"relu_backward", [](B k, float* o, const float* a, const float* b,
                           std::int64_t n) { k.relu_backward(o, a, b, n); }},
  };
  enum class Alias { kNone, kOutIsA, kOutIsB };
  const std::int64_t g = kElementwiseGrain;
  for (const std::int64_t n : {std::int64_t{1}, g - 1, g, g + 7,
                               3 * g + 5}) {
    Rng rng(static_cast<std::uint64_t>(n));
    const Tensor a = randn({n}, rng);
    Tensor b = randn({n}, rng);
    for (std::int64_t i = 0; i < n; i += 5) b[i] = 0.0f;  // sign(0), 0 > 0
    for (const backend::KernelBackend* be : testutil::available_backends()) {
      for (const auto& [name, kernel] : kernels) {
        for (const Alias alias : {Alias::kNone, Alias::kOutIsA,
                                  Alias::kOutIsB}) {
          const auto run = [&] {
            Tensor out = alias == Alias::kOutIsB ? b : a;
            const float* pa = alias == Alias::kOutIsA ? out.data() : a.data();
            const float* pb = alias == Alias::kOutIsB ? out.data() : b.data();
            kernel(*be, out.data(), pa, pb, n);
            return out;
          };
          const Tensor parallel = run();
          const SerialScope serial;
          EXPECT_TRUE(parallel.equals(run()))
              << be->name << " " << name << " n=" << n << " alias "
              << static_cast<int>(alias);
        }
      }
    }
    Tensor copied({3}, 9.0f);  // dirty and too small: copy_into regrows it
    copy_into(copied, a);
    Tensor serial_copy;
    {
      const SerialScope serial;
      copy_into(serial_copy, a);
    }
    EXPECT_TRUE(copied.equals(serial_copy)) << "copy_into n=" << n;
    EXPECT_TRUE(copied.equals(a)) << "copy_into n=" << n;
  }
}

// Determinism contract: each backend is bit-identical run to run — the
// accumulation order per output element never depends on pool state or
// repeated invocation.
TEST(BackendDeterminism, RepeatedRunsAreBitIdentical) {
  for (const backend::KernelBackend* b : testutil::available_backends()) {
    backend::BackendScope scope(*b);
    Rng rng(31);
    const Tensor a = randn({37, 53}, rng);
    const Tensor bm = randn({53, 41}, rng);

    Tensor first;
    matmul_into(first, a, bm);
    Tensor dirty({7}, -9.0f);  // recycled-looking destination
    matmul_into(dirty, a, bm);
    EXPECT_TRUE(dirty.equals(first)) << b->name;
    for (int run = 0; run < 3; ++run) {
      Tensor again;
      matmul_into(again, a, bm);
      EXPECT_TRUE(again.equals(first)) << b->name << " run " << run;
    }
  }
}

TEST(BackendSelection, FindAndScopeRoundTrip) {
  ASSERT_NE(backend::find("scalar"), nullptr);
  EXPECT_STREQ(backend::find("scalar")->name, "scalar");
  EXPECT_EQ(backend::find("bogus"), nullptr);
  EXPECT_EQ(backend::find("avx2"), backend::avx2_backend_if_supported());

  const std::string before = backend::active_name();
  {
    backend::BackendScope scope(backend::scalar_backend());
    EXPECT_STREQ(backend::active_name(), "scalar");
  }
  EXPECT_EQ(backend::active_name(), before);  // scope restores
}

// The avx512 table is selected only on AVX-512F hardware, `auto` prefers
// it to avx2 and avx2 to scalar, and a bad ZKG_BACKEND value names every
// valid one.
TEST(BackendSelection, Avx512NeedsAvx512fAndAutoPrefersIt) {
  const backend::KernelBackend* avx512 = backend::avx512_backend_if_supported();
  const backend::KernelBackend* avx2 = backend::avx2_backend_if_supported();
  EXPECT_EQ(backend::find("avx512"), avx512);
  EXPECT_EQ(avx512 != nullptr, backend::cpu_supports_avx512());
  if (avx512 != nullptr) {
    EXPECT_STREQ(avx512->name, "avx512");
    EXPECT_NE(avx2, nullptr);  // AVX-512F hardware runs the AVX2 table too
  }
  const backend::KernelBackend* best =
      avx512 != nullptr ? avx512
                        : (avx2 != nullptr ? avx2 : &backend::scalar_backend());
  EXPECT_EQ(&backend::resolve("auto"), best);
  EXPECT_EQ(&backend::resolve("scalar"), &backend::scalar_backend());
  if (avx2 != nullptr) {
    EXPECT_EQ(&backend::resolve("avx2"), avx2);
  }
  try {
    backend::resolve("bogus");
    ADD_FAILURE() << "resolve(\"bogus\") did not throw";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    for (const char* name : {"scalar", "avx2", "avx512", "auto"}) {
      EXPECT_NE(what.find(name), std::string::npos) << name << ": " << what;
    }
  }
}

// Runs `body` under `table` and returns what it wrote.
Tensor run_under(const backend::KernelBackend& table,
                 const std::function<void(Tensor&)>& body) {
  backend::BackendScope scope(table);
  Tensor out;
  body(out);
  return out;
}

// The 8x16 and 6x16 tiles run every output element as the same FMA chain
// over the depth in the same 256-deep blocks, so the avx512 table's GEMM
// results match the avx2 table's bit for bit. The shapes straddle both
// tiles' row counts (7, 9, 97, 130), the 16 columns (15, 17) and the depth
// blocks (255, 257, 784). Conv2d.MatchesIm2ColReferenceBitwise checks the
// conv passes the same way.
TEST(Avx512Tile, BitIdenticalToAvx2Tile) {
  const backend::KernelBackend* avx512 = backend::avx512_backend_if_supported();
  if (avx512 == nullptr) GTEST_SKIP() << "no AVX-512F on this CPU";
  const backend::KernelBackend* avx2 = backend::avx2_backend_if_supported();
  ASSERT_NE(avx2, nullptr);

  for (const std::int64_t m : {1, 7, 9, 97, 130}) {
    for (const std::int64_t n : {1, 15, 17, 64}) {
      for (const std::int64_t k : {1, 255, 257, 784}) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                     std::to_string(n));
        Rng rng(static_cast<std::uint64_t>(m * 100000 + n * 1000 + k));
        const Tensor a = randn({m, k}, rng);
        const Tensor b = randn({k, n}, rng);
        const Tensor a_t = randn({k, m}, rng);
        const Tensor b_t = randn({n, k}, rng);
        const std::vector<std::pair<const char*, std::function<void(Tensor&)>>>
            gemms{
                {"matmul", [&](Tensor& c) { matmul_into(c, a, b); }},
                {"matmul_nt", [&](Tensor& c) { matmul_nt_into(c, a, b_t); }},
                {"matmul_tn", [&](Tensor& c) { matmul_tn_into(c, a_t, b); }},
            };
        for (const auto& [name, gemm] : gemms) {
          EXPECT_TRUE(testutil::same_bits(run_under(*avx512, gemm),
                                          run_under(*avx2, gemm)))
              << name;
        }
      }
    }
  }
}

}  // namespace
}  // namespace zkg
