// google-benchmark micro-benchmarks for the hot kernels: GEMM variants,
// the bench allCNN's conv layers, softmax/CE, and a full attack step. Not
// part of the
// paper; engineering validation of the substrate. main() first prints a
// per-kernel backend report — serial vs parallel vs SIMD wall-clock,
// GFLOP/s, effective GB/s and arithmetic intensity (the roofline
// coordinates) for every KernelBackend entry family — and writes it to
// ZKG_BENCH_JSON (default BENCH_kernels.json), then runs the registered
// benchmarks.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "attacks/fgsm.hpp"
#include "common/env.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "models/lenet.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "obs/json.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/linalg.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace {

using namespace zkg;

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  const Tensor a = randn({n, n}, rng);
  const Tensor b = randn({n, n}, rng);
  Tensor c;
  for (auto _ : state) {
    matmul_into(c, a, b);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulSerial(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  const Tensor a = randn({n, n}, rng);
  const Tensor b = randn({n, n}, rng);
  Tensor c;
  SerialScope serial;
  for (auto _ : state) {
    matmul_into(c, a, b);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulSerial)->Arg(256);

void BM_MatmulScalarBackend(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  const Tensor a = randn({n, n}, rng);
  const Tensor b = randn({n, n}, rng);
  Tensor c;
  backend::BackendScope scope(backend::scalar_backend());
  for (auto _ : state) {
    matmul_into(c, a, b);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulScalarBackend)->Arg(256);

void BM_MatmulNT(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(2);
  const Tensor a = randn({n, n}, rng);
  const Tensor b = randn({n, n}, rng);
  Tensor c;
  for (auto _ : state) {
    matmul_nt_into(c, a, b);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulNT)->Arg(64)->Arg(256);

// The five conv layers of the bench allCNN on a batch-64 synth-objects
// input (3x32x32), as [in, out, kernel, stride, padding, input size].
struct ConvLayerShape {
  std::int64_t in, out, kernel, stride, padding, size;
};
constexpr ConvLayerShape kAllCnnLayers[] = {
    {3, 16, 3, 1, 1, 32},  {16, 16, 3, 2, 1, 32}, {16, 32, 3, 1, 1, 16},
    {32, 32, 3, 2, 1, 16}, {32, 10, 1, 1, 0, 8},
};
constexpr std::int64_t kConvBatch = 64;

/// Flops of one pass (forward, dX or dW) of `conv` over a batch of
/// `batch` images of side `size`: 2 * B * S * OC * K.
double conv_pass_flops(const nn::Conv2d& conv, std::int64_t batch,
                       std::int64_t size) {
  const nn::Conv2dConfig& cfg = conv.config();
  const double side = static_cast<double>(conv.out_size(size));
  return 2.0 * static_cast<double>(batch) * side * side *
         static_cast<double>(cfg.out_channels * cfg.in_channels *
                             cfg.kernel * cfg.kernel);
}

// Forward + backward (dX, dW, db) of bench-allCNN layer <i>; the GFLOP/s
// counter covers the three passes.
void BM_ConvLayer(benchmark::State& state) {
  const ConvLayerShape& shape =
      kAllCnnLayers[static_cast<std::size_t>(state.range(0))];
  Rng rng(4);
  nn::Conv2d conv({shape.in, shape.out, shape.kernel, shape.stride,
                   shape.padding},
                  rng);
  const Tensor x = randn({kConvBatch, shape.in, shape.size, shape.size}, rng);
  Tensor y;
  Tensor grad_x;
  conv.forward_into(x, y, true);
  const Tensor grad_y = randn(y.shape(), rng);
  for (auto _ : state) {
    conv.forward_into(x, y, true);
    conv.backward_into(grad_y, grad_x);
    benchmark::DoNotOptimize(grad_x.data());
    benchmark::ClobberMemory();
    conv.zero_grad();
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      3.0 * conv_pass_flops(conv, kConvBatch, shape.size) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ConvLayer)->DenseRange(0, 4);

void BM_SoftmaxCrossEntropy(benchmark::State& state) {
  const auto batch = state.range(0);
  Rng rng(5);
  const Tensor logits = randn({batch, 10}, rng);
  std::vector<std::int64_t> labels(static_cast<std::size_t>(batch));
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 10;
  Tensor grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nn::softmax_cross_entropy_into(logits, labels, grad));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SoftmaxCrossEntropy)->Arg(64)->Arg(1024);

void BM_LeNetForward(benchmark::State& state) {
  const auto batch = state.range(0);
  Rng rng(6);
  models::Classifier model =
      models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
  const Tensor x = randn({batch, 1, 28, 28}, rng);
  Tensor logits;
  for (auto _ : state) {
    model.forward_into(x, logits, false);
    benchmark::DoNotOptimize(logits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LeNetForward)->Arg(1)->Arg(64);

void BM_FgsmAttackStep(benchmark::State& state) {
  const auto batch = state.range(0);
  Rng rng(7);
  models::Classifier model =
      models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
  const Tensor x = rand_uniform({batch, 1, 28, 28}, rng, -1.0f, 1.0f);
  std::vector<std::int64_t> labels(static_cast<std::size_t>(batch));
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 10;
  attacks::Fgsm fgsm({.epsilon = 0.3f});
  for (auto _ : state) {
    benchmark::DoNotOptimize(fgsm.generate(model, x, labels));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_FgsmAttackStep)->Arg(64);

void BM_GaussianAugment(benchmark::State& state) {
  Rng rng(8);
  const Tensor x = rand_uniform({64, 1, 28, 28}, rng, -1.0f, 1.0f);
  for (auto _ : state) {
    Tensor noise = randn(x.shape(), rng, 0.0f, 1.0f);
    add_(noise, x);
    clamp_(noise, -1.0f, 1.0f);
    benchmark::DoNotOptimize(noise);
  }
}
BENCHMARK(BM_GaussianAugment);

// ---------------------------------------------------------------------------
// Per-kernel backend report: serial vs parallel vs SIMD, GFLOP/s, GB/s and
// arithmetic intensity for the roofline view. Written to ZKG_BENCH_JSON
// (default BENCH_kernels.json).
// ---------------------------------------------------------------------------

// Times `fn` as the best of `reps` runs, in milliseconds.
template <typename Fn>
double best_of_ms(int reps, Fn&& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.milliseconds());
  }
  return best;
}

struct KernelCase {
  std::string name;
  double flops;  // per invocation (0 for pure-movement kernels)
  double bytes;  // per invocation: floats read + written, x4
  std::function<void()> body;
};

struct Measurement {
  double serial_ms = 0.0;    // scalar backend, SerialScope
  double parallel_ms = 0.0;  // scalar backend, parallel_for enabled
  double simd_ms = -1.0;     // resolve("auto") when SIMD, parallel; else -1
};

double gflops(double flops, double ms) {
  return ms > 0.0 ? flops / (ms * 1e6) : 0.0;
}
double gbps(double bytes, double ms) {
  return ms > 0.0 ? bytes / (ms * 1e6) : 0.0;
}

Measurement measure(const KernelCase& kc) {
  constexpr int kReps = 5;
  Measurement m;
  kc.body();  // warm up pool, caches and backend dispatch
  {
    backend::BackendScope scope(backend::scalar_backend());
    SerialScope serial;
    m.serial_ms = best_of_ms(kReps, kc.body);
  }
  {
    backend::BackendScope scope(backend::scalar_backend());
    m.parallel_ms = best_of_ms(kReps, kc.body);
  }
  if (const backend::KernelBackend& best = backend::resolve("auto");
      best.simd) {
    backend::BackendScope scope(best);
    kc.body();  // warm the SIMD path's packing scratch
    m.simd_ms = best_of_ms(kReps, kc.body);
  }
  return m;
}

void report_kernel_performance() {
  const backend::KernelBackend& best = backend::resolve("auto");
  std::printf(
      "kernel backends: active=%s (ZKG_BACKEND overrides), cpu avx2+fma=%s,"
      " avx512f=%s; simd column: %s\n"
      "parallel backend: %s, %u thread(s) (ZKG_THREADS overrides)\n\n",
      backend::active_name(), backend::cpu_supports_avx2() ? "yes" : "no",
      backend::cpu_supports_avx512() ? "yes" : "no",
      best.simd ? best.name : "none",
      parallel_backend_name(), parallel_threads());

  Rng rng(42);
  const std::int64_t n = 256;
  const Tensor a = randn({n, n}, rng);
  const Tensor b = randn({n, n}, rng);
  const std::int64_t big = 1 << 20;
  const Tensor u = randn({big}, rng);
  const Tensor v = randn({big}, rng);
  const Tensor logits = randn({1024, 64}, rng);

  Tensor c, y, w, sm;  // persistent destinations: steady state, no allocs

  // Bench-allCNN layer 2 (16 -> 32, 3x3 on 16x16) at batch 64, one row per
  // backend conv entry, called directly so each pass is timed alone.
  const ConvLayerShape& layer = kAllCnnLayers[2];
  nn::Conv2d conv({layer.in, layer.out, layer.kernel, layer.stride,
                   layer.padding},
                  rng);
  const Tensor conv_x = randn({kConvBatch, layer.in, layer.size, layer.size},
                              rng);
  const backend::ConvShape conv_shape = conv.conv_shape(conv_x.shape());
  const Tensor conv_dy = randn(
      {kConvBatch, layer.out, conv_shape.spatial}, rng);
  const float* conv_w = conv.weight().value().data();
  Tensor conv_y(conv_dy.shape());
  Tensor conv_dx(conv_x.shape());
  Tensor conv_dw(conv.weight().value().shape());
  Tensor conv_db(conv.bias().value().shape());
  // Bench-allCNN layer 0 (3 -> 16, 3x3 on 32x32, depth K = 27): the
  // shallowest patch, where gathering the B slab weighs most.
  const ConvLayerShape& layer0 = kAllCnnLayers[0];
  nn::Conv2d conv0({layer0.in, layer0.out, layer0.kernel, layer0.stride,
                    layer0.padding},
                   rng);
  const Tensor conv0_x = randn(
      {kConvBatch, layer0.in, layer0.size, layer0.size}, rng);
  const backend::ConvShape conv0_shape = conv0.conv_shape(conv0_x.shape());
  Tensor conv0_y({kConvBatch, layer0.out, conv0_shape.spatial});
  Tensor act(u.shape());
  Tensor act_grad(u.shape());

  const double n3 = static_cast<double>(n) * n * n;
  const double n2 = static_cast<double>(n) * n;
  const double gemm_bytes = 4.0 * 3.0 * n2;
  std::vector<KernelCase> cases;
  cases.push_back({"matmul_256", 2.0 * n3, gemm_bytes,
                   [&] { matmul_into(c, a, b); }});
  cases.push_back({"matmul_nt_256", 2.0 * n3, gemm_bytes,
                   [&] { matmul_nt_into(c, a, b); }});
  cases.push_back({"matmul_tn_256", 2.0 * n3, gemm_bytes,
                   [&] { matmul_tn_into(c, a, b); }});
  cases.push_back({"col_sum_256", n2, 4.0 * (n2 + n),
                   [&] { col_sum_into(y, a); }});
  cases.push_back({"add_1m", static_cast<double>(big),
                   4.0 * 3.0 * static_cast<double>(big),
                   [&] { add_into(w, u, v); }});
  cases.push_back({"mul_1m", static_cast<double>(big),
                   4.0 * 3.0 * static_cast<double>(big),
                   [&] { mul_into(w, u, v); }});
  cases.push_back({"clamp_1m", static_cast<double>(big),
                   4.0 * 2.0 * static_cast<double>(big),
                   [&] { clamp_into(w, u, -1.0f, 1.0f); }});
  cases.push_back({"relu_1m", static_cast<double>(big),
                   4.0 * 2.0 * static_cast<double>(big), [&] {
                     backend::active().relu(act.data(), u.data(), big);
                   }});
  cases.push_back({"relu_bwd_1m", static_cast<double>(big),
                   4.0 * 3.0 * static_cast<double>(big), [&] {
                     backend::active().relu_backward(act_grad.data(), u.data(),
                                                     v.data(), big);
                   }});
  const double conv_flops = conv_pass_flops(conv, kConvBatch, layer.size);
  const double x_bytes = 4.0 * static_cast<double>(conv_x.numel());
  const double y_bytes = 4.0 * static_cast<double>(conv_y.numel());
  const double w_bytes = 4.0 * static_cast<double>(conv_dw.numel());
  cases.push_back({"conv_fwd_l2", conv_flops, x_bytes + w_bytes + y_bytes,
                   [&] {
                     backend::active().conv_forward(
                         conv_y.data(), conv_x.data(), conv_w,
                         conv.bias().value().data(), conv_shape);
                   }});
  cases.push_back({"conv_dx_l2", conv_flops, y_bytes + w_bytes + x_bytes,
                   [&] {
                     backend::active().conv_backward_input(
                         conv_dx.data(), conv_dy.data(), conv_w, conv_shape);
                   }});
  cases.push_back({"conv_dw_l2", conv_flops, y_bytes + x_bytes + w_bytes,
                   [&] {
                     backend::active().conv_backward_params(
                         conv_dw.data(), conv_db.data(), conv_dy.data(),
                         conv_x.data(), conv_shape);
                   }});
  cases.push_back({"conv_fwd_l0",
                   conv_pass_flops(conv0, kConvBatch, layer0.size),
                   4.0 * static_cast<double>(conv0_x.numel() +
                                             conv0.weight().value().numel() +
                                             conv0_y.numel()),
                   [&] {
                     backend::active().conv_forward(
                         conv0_y.data(), conv0_x.data(),
                         conv0.weight().value().data(),
                         conv0.bias().value().data(), conv0_shape);
                   }});
  // ~6 flops/element once exp is counted as one: max, sub, exp, sum, div.
  cases.push_back({"softmax_1024x64", 6.0 * 1024.0 * 64.0,
                   4.0 * 2.0 * 1024.0 * 64.0,
                   [&] { softmax_rows_into(sm, logits); }});

  std::printf(
      "%-16s %9s %9s %9s | %9s %9s | %7s %7s | %s\n", "kernel", "serial",
      "parallel", "simd", "gflops", "gb/s", "par_x", "simd_x", "ai");
  obs::JsonArray records;
  for (const KernelCase& kc : cases) {
    const Measurement m = measure(kc);
    const bool has_simd = m.simd_ms >= 0.0;
    const double best_ms = has_simd ? m.simd_ms : m.parallel_ms;
    const double intensity = kc.bytes > 0.0 ? kc.flops / kc.bytes : 0.0;
    const double par_speedup =
        m.parallel_ms > 0.0 ? m.serial_ms / m.parallel_ms : 0.0;
    const double simd_speedup =
        has_simd && m.simd_ms > 0.0 ? m.parallel_ms / m.simd_ms : 0.0;
    std::printf(
        "%-16s %7.3fms %7.3fms %7.3fms | %9.2f %9.2f | %6.2fx %6.2fx | "
        "%.2f flop/B\n",
        kc.name.c_str(), m.serial_ms, m.parallel_ms, has_simd ? m.simd_ms : 0.0,
        gflops(kc.flops, best_ms), gbps(kc.bytes, best_ms), par_speedup,
        simd_speedup, intensity);

    obs::JsonObject rec;
    rec["kernel"] = kc.name;
    rec["flops"] = kc.flops;
    rec["bytes"] = kc.bytes;
    rec["arithmetic_intensity_flop_per_byte"] = intensity;
    rec["serial_ms"] = m.serial_ms;
    rec["parallel_ms"] = m.parallel_ms;
    rec["serial_gflops"] = gflops(kc.flops, m.serial_ms);
    rec["parallel_gflops"] = gflops(kc.flops, m.parallel_ms);
    rec["parallel_speedup"] = par_speedup;
    if (has_simd) {
      rec["simd_ms"] = m.simd_ms;
      rec["simd_gflops"] = gflops(kc.flops, m.simd_ms);
      rec["simd_gbps"] = gbps(kc.bytes, m.simd_ms);
      rec["simd_speedup_vs_parallel_scalar"] = simd_speedup;
      rec["simd_speedup_vs_serial_scalar"] =
          m.simd_ms > 0.0 ? m.serial_ms / m.simd_ms : 0.0;
    }
    records.push_back(obs::Json(std::move(rec)));
  }
  std::printf(
      "\nroofline: kernels left of the machine's flop/byte balance point are"
      " bandwidth-bound\n(elementwise, col_sum); the packed GEMM and the"
      " conv passes sit far right and are\ncompute-bound.\n\n");

  const std::string json_path = env_or("ZKG_BENCH_JSON", "BENCH_kernels.json");
  if (!json_path.empty()) {
    obs::JsonObject doc;
    doc["bench"] = "kernels";
    doc["active_backend"] = std::string(backend::active_name());
    doc["cpu_supports_avx2"] = backend::cpu_supports_avx2();
    doc["cpu_supports_avx512"] = backend::cpu_supports_avx512();
    if (best.simd) {
      doc["simd_backend"] = std::string(best.name);
    }
    doc["parallel_backend"] = std::string(parallel_backend_name());
    doc["threads"] = static_cast<std::int64_t>(parallel_threads());
    doc["kernels"] = std::move(records);
    std::ofstream out(json_path, std::ios::trunc);
    out << obs::Json(std::move(doc)).dump() << "\n";
    std::printf("kernel report written to %s\n\n", json_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  report_kernel_performance();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
