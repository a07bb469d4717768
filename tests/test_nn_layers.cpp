// Layer tests: forward values on handcrafted cases, numerical gradient
// checks for every layer (both input gradients and parameter gradients),
// and Conv2d against a direct convolution over a kernel/stride/padding
// sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tests/test_util.hpp"

namespace zkg::nn {
namespace {

using testutil::expect_close;
using testutil::numerical_gradient;
using testutil::same_bits;

// Checks d(sum(layer(x)))/dx against central differences, and (when the
// layer has parameters) d(sum)/d(param) too.
void check_layer_gradients(Module& layer, const Tensor& input,
                           float rtol = 2e-2f, float atol = 2e-3f) {
  // Input gradient. sum(output) has gradient of all-ones w.r.t. output.
  Tensor output;
  layer.forward_into(input, output, /*training=*/false);
  layer.zero_grad();
  const Tensor ones(output.shape(), 1.0f);
  Tensor analytic;
  layer.backward_into(ones, analytic);
  Tensor probe_out;
  const Tensor numeric = numerical_gradient(
      [&](const Tensor& x) {
        layer.forward_into(x, probe_out, /*training=*/false);
        return sum(probe_out);
      },
      input);
  expect_close(analytic, numeric, rtol, atol);

  Tensor grad_input;
  for (Parameter* param : layer.parameters()) {
    layer.zero_grad();
    layer.forward_into(input, output, false);
    layer.backward_into(ones, grad_input);
    const Tensor analytic_param = param->grad();
    const Tensor numeric_param = numerical_gradient(
        [&](const Tensor& w) {
          const Tensor saved = param->value();
          param->value() = w;
          layer.forward_into(input, probe_out, false);
          param->value() = saved;
          return sum(probe_out);
        },
        param->value());
    expect_close(analytic_param, numeric_param, rtol, atol);
  }
}

TEST(Dense, ForwardKnownValues) {
  Rng rng(1);
  Dense dense(2, 2, rng);
  dense.weight().value() = Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  dense.bias().value() = Tensor({2}, std::vector<float>{10, 20});
  const Tensor x({1, 2}, std::vector<float>{1, 1});
  Tensor y;
  dense.forward_into(x, y, false);
  // y = x W^T + b = [1+2, 3+4] + [10, 20].
  EXPECT_TRUE(y.equals(Tensor({1, 2}, std::vector<float>{13, 27})));
}

TEST(Dense, GradientCheck) {
  Rng rng(2);
  Dense dense(4, 3, rng);
  const Tensor x = randn({5, 4}, rng);
  check_layer_gradients(dense, x);
}

TEST(Dense, RejectsWrongWidth) {
  Rng rng(3);
  Dense dense(4, 3, rng);
  Tensor y;
  EXPECT_THROW(dense.forward_into(Tensor({2, 5}), y, false), InvalidArgument);
  EXPECT_THROW(Dense(0, 3, rng), InvalidArgument);
}

TEST(Conv2d, OutputShape) {
  Rng rng(4);
  Conv2d conv({.in_channels = 3, .out_channels = 8, .kernel = 3, .stride = 2,
               .padding = 1},
              rng);
  const Tensor x = randn({2, 3, 9, 9}, rng);
  Tensor y;
  conv.forward_into(x, y, false);
  EXPECT_EQ(y.shape(), Shape({2, 8, 5, 5}));
  EXPECT_EQ(conv.out_size(9), 5);
}

TEST(Conv2d, MatchesDirectConvolution) {
  // 1x1 batch, no padding: compare against a hand-rolled convolution.
  Rng rng(5);
  Conv2d conv({.in_channels = 1, .out_channels = 1, .kernel = 2, .stride = 1,
               .padding = 0},
              rng);
  conv.bias().value().fill(0.25f);
  const Tensor x({1, 1, 3, 3}, std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y;
  conv.forward_into(x, y, false);
  const Tensor& w = conv.weight().value();  // [1, 4] = k00 k01 k10 k11
  for (std::int64_t oy = 0; oy < 2; ++oy) {
    for (std::int64_t ox = 0; ox < 2; ++ox) {
      const float expected = w[0] * x.at(0, 0, oy, ox) +
                             w[1] * x.at(0, 0, oy, ox + 1) +
                             w[2] * x.at(0, 0, oy + 1, ox) +
                             w[3] * x.at(0, 0, oy + 1, ox + 1) + 0.25f;
      EXPECT_NEAR(y.at(0, 0, oy, ox), expected, 1e-5f);
    }
  }
}

TEST(Conv2d, GradientCheck) {
  Rng rng(6);
  Conv2d conv({.in_channels = 2, .out_channels = 3, .kernel = 3, .stride = 2,
               .padding = 1},
              rng);
  const Tensor x = randn({2, 2, 5, 5}, rng);
  check_layer_gradients(conv, x);
}

struct ConvBitwiseCase {
  const char* label;
  Conv2dConfig cfg;
  std::int64_t batch, height, width;
};

// dY as a ReLU above it would leave it: about a third exact zeros, which
// the scalar kernels' zero-skipping rank-1 updates must treat the same way.
Tensor relu_masked_grad(const Shape& shape, Rng& rng) {
  Tensor grad = randn(shape, rng);
  for (std::int64_t i = 0; i < grad.numel(); ++i) {
    if (grad[i] < -0.4f) grad[i] = 0.0f;
  }
  return grad;
}

// The implicit-GEMM conv passes against the patch-matrix formulation they
// replace (testutil::reference_conv_*), bit for bit under every backend:
// forward, dX (with and without parameter gradients), dW and db. The avx512
// table's 8x16 tile must also match the avx2 table's 6x16 tile bit for bit.
TEST(Conv2d, MatchesIm2ColReferenceBitwise) {
  const std::vector<ConvBitwiseCase> cases{
      // The five bench-allCNN layers (synth-objects, 3x32x32).
      {"allcnn0", {3, 16, 3, 1, 1}, 2, 32, 32},
      {"allcnn1", {16, 16, 3, 2, 1}, 2, 32, 32},
      {"allcnn2", {16, 32, 3, 1, 1}, 2, 16, 16},
      {"allcnn3", {32, 32, 3, 2, 1}, 3, 16, 16},
      {"allcnn4 1x1", {32, 10, 1, 1, 0}, 3, 8, 8},
      // Paper allCNN 96->96: K = 864 spans four depth blocks.
      {"paper allcnn 96->96", {96, 96, 3, 1, 1}, 2, 6, 6},
      // LeNet: bench 5x5/s2, paper 5x5/p2. S = 196 is no multiple of 16
      // and B*S = 588 no multiple of 256.
      {"lenet bench", {1, 8, 5, 2, 2}, 3, 28, 28},
      {"lenet bench 2", {8, 16, 5, 2, 2}, 2, 14, 14},
      {"lenet paper", {32, 64, 5, 1, 2}, 2, 7, 7},
      // Batch 1, OC = 7 (no multiple of 6), non-square input.
      {"batch 1", {4, 7, 3, 1, 1}, 1, 9, 11},
      // OC = 300: dX's depth (OC) spans two blocks.
      {"wide 1x1", {2, 300, 1, 1, 0}, 2, 5, 5},
  };
  // Forward, dX, dW and db of every case, per SIMD table.
  std::map<std::string, std::vector<std::vector<Tensor>>> simd_passes;
  for (const backend::KernelBackend* kernels : testutil::available_backends()) {
    backend::BackendScope scope(*kernels);
    for (const ConvBitwiseCase& c : cases) {
      SCOPED_TRACE(std::string(kernels->name) + " " + c.label);
      Rng rng(31);
      Conv2d conv(c.cfg, rng);
      conv.bias().value() = randn({c.cfg.out_channels}, rng);
      const Tensor x =
          randn({c.batch, c.cfg.in_channels, c.height, c.width}, rng);
      const Tensor& w = conv.weight().value();

      Tensor y;
      conv.forward_into(x, y, /*training=*/true);
      EXPECT_TRUE(same_bits(
          y, testutil::reference_conv_forward(x, w, conv.bias().value(),
                                              c.cfg)));

      const Tensor grad_y = relu_masked_grad(y.shape(), rng);
      const testutil::ConvGradients ref =
          testutil::reference_conv_backward(x, w, grad_y, c.cfg);
      conv.zero_grad();
      Tensor grad_x;
      conv.backward_into(grad_y, grad_x);
      EXPECT_TRUE(same_bits(grad_x, ref.dx));
      // The layer accumulates into zeroed gradients; so does the reference.
      Tensor dw(w.shape());
      axpy_(dw, 1.0f, ref.dw);
      Tensor db({c.cfg.out_channels});
      axpy_(db, 1.0f, ref.db);
      EXPECT_TRUE(same_bits(conv.weight().grad(), dw));
      EXPECT_TRUE(same_bits(conv.bias().grad(), db));
      if (kernels->simd) {
        simd_passes[kernels->name].push_back(
            {y, grad_x, conv.weight().grad(), conv.bias().grad()});
      }

      // Attack backwards skip dW/db but must give the same dX.
      conv.zero_grad();
      conv.forward_into(x, y, /*training=*/false);
      Tensor attack_grad_x;
      {
        const InputGradOnly input_only;
        conv.backward_into(grad_y, attack_grad_x);
      }
      EXPECT_TRUE(same_bits(attack_grad_x, ref.dx));
      EXPECT_EQ(max_abs(conv.weight().grad()), 0.0f);

      // Training backwards at a network's first layer give the same dW/db
      // and leave dX unwritten.
      Tensor unread({1}, 7.0f);
      {
        const ParamGradOnly param_only;
        conv.backward_into(grad_y, unread);
      }
      EXPECT_TRUE(same_bits(unread, Tensor({1}, 7.0f)));
      EXPECT_TRUE(same_bits(conv.weight().grad(), dw));
      EXPECT_TRUE(same_bits(conv.bias().grad(), db));
    }
  }
  if (simd_passes.count("avx512") != 0) {
    const auto& wide = simd_passes.at("avx512");
    const auto& narrow = simd_passes.at("avx2");
    const char* passes[] = {"forward", "dX", "dW", "db"};
    for (std::size_t i = 0; i < cases.size(); ++i) {
      for (std::size_t p = 0; p < 4; ++p) {
        EXPECT_TRUE(same_bits(wide[i][p], narrow[i][p]))
            << "avx512 vs avx2 " << cases[i].label << " " << passes[p];
      }
    }
  }
}

TEST(MaxPool2d, ForwardAndRouting) {
  MaxPool2d pool(2);
  const Tensor x({1, 1, 2, 4},
                 std::vector<float>{1, 5, 2, 0, 3, 4, 6, 7});
  Tensor y;
  pool.forward_into(x, y, false);
  EXPECT_TRUE(y.equals(Tensor({1, 1, 1, 2}, std::vector<float>{5, 7})));
  // Gradient routes only to the argmax cells.
  Tensor g;
  pool.backward_into(Tensor({1, 1, 1, 2}, std::vector<float>{1, 2}), g);
  EXPECT_FLOAT_EQ(g.at(0, 0, 0, 1), 1.0f);
  EXPECT_FLOAT_EQ(g.at(0, 0, 1, 3), 2.0f);
  EXPECT_FLOAT_EQ(sum(g), 3.0f);
}

TEST(MaxPool2d, GradientCheck) {
  Rng rng(7);
  MaxPool2d pool(2);
  const Tensor x = randn({2, 3, 4, 4}, rng);
  check_layer_gradients(pool, x);
}

TEST(GlobalAvgPool, ForwardAndGradient) {
  GlobalAvgPool pool;
  const Tensor x({1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y;
  pool.forward_into(x, y, false);
  EXPECT_TRUE(y.allclose(Tensor({1, 2}, std::vector<float>{2.5f, 10.0f})));
  Rng rng(8);
  const Tensor probe = randn({2, 3, 3, 3}, rng);
  check_layer_gradients(pool, probe);
}

TEST(Activations, ReLUForward) {
  ReLU relu;
  const Tensor x({3}, std::vector<float>{-1, 0, 2});
  Tensor y;
  relu.forward_into(x, y, false);
  EXPECT_TRUE(y.equals(Tensor({3}, std::vector<float>{0, 0, 2})));
}

TEST(Activations, GradientChecks) {
  Rng rng(9);
  // Probe away from the ReLU kink so central differences are valid.
  Tensor x = randn({4, 6}, rng);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x[i]) < 0.05f) x[i] = 0.1f;
  }
  ReLU relu;
  check_layer_gradients(relu, x);
}

TEST(Flatten, RoundTrip) {
  Flatten flatten;
  Rng rng(11);
  const Tensor x = randn({2, 3, 4, 5}, rng);
  Tensor y;
  flatten.forward_into(x, y, false);
  EXPECT_EQ(y.shape(), Shape({2, 60}));
  Tensor g;
  flatten.backward_into(y, g);
  EXPECT_EQ(g.shape(), x.shape());
  EXPECT_TRUE(g.equals(x));
}

TEST(Dropout, InferenceIsIdentity) {
  Rng rng(12);
  Dropout dropout(0.5f, rng);
  const Tensor x = randn({4, 4}, rng);
  Tensor y;
  dropout.forward_into(x, y, /*training=*/false);
  EXPECT_TRUE(y.equals(x));
  Tensor g;
  dropout.backward_into(x, g);
  EXPECT_TRUE(g.equals(x));
}

TEST(Dropout, TrainingDropsAndRescales) {
  Rng rng(13);
  Dropout dropout(0.25f, rng);
  const Tensor x({10000}, 1.0f);
  Tensor y;
  dropout.forward_into(x, y, /*training=*/true);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y[i], 1.0f / 0.75f, 1e-5f);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.25, 0.02);
  // Backward applies the same mask.
  Tensor g;
  dropout.backward_into(x, g);
  EXPECT_TRUE(g.equals(y));
}

TEST(Dropout, ZeroRateIsIdentityEvenInTraining) {
  Rng rng(14);
  Dropout dropout(0.0f, rng);
  const Tensor x = randn({8}, rng);
  Tensor y;
  dropout.forward_into(x, y, true);
  EXPECT_TRUE(y.equals(x));
  EXPECT_THROW(Dropout(1.0f, rng), InvalidArgument);
}

TEST(Sequential, ChainsForwardAndBackward) {
  Rng rng(15);
  Sequential net;
  net.emplace<Dense>(6, 4, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(4, 2, rng);
  const Tensor x = randn({3, 6}, rng);
  check_layer_gradients(net, x);
  EXPECT_EQ(net.num_layers(), 3u);
  EXPECT_EQ(net.num_parameters(), 6 * 4 + 4 + 4 * 2 + 2);
}

TEST(Sequential, SummaryListsLayers) {
  Rng rng(16);
  Sequential net;
  net.emplace<Dense>(2, 2, rng);
  const std::string summary = net.summary();
  EXPECT_NE(summary.find("Dense(2 -> 2)"), std::string::npos);
  EXPECT_NE(summary.find("parameters: 6"), std::string::npos);
}

TEST(Sequential, StateRoundTrip) {
  Rng rng(17);
  Sequential a;
  a.emplace<Dense>(3, 3, rng);
  Sequential b;
  b.emplace<Dense>(3, 3, rng);
  const Tensor x = randn({2, 3}, rng);
  Tensor ya;
  Tensor yb;
  a.forward_into(x, ya, false);
  b.forward_into(x, yb, false);
  ASSERT_FALSE(ya.allclose(yb));
  b.load_state(a.state());
  b.forward_into(x, yb, false);
  EXPECT_TRUE(ya.allclose(yb));
  // Mismatched state is rejected.
  Sequential c;
  c.emplace<Dense>(2, 2, rng);
  EXPECT_THROW(c.load_state(a.state()), InvalidArgument);
}

TEST(Sequential, EmptyNetworkRejected) {
  Sequential net;
  Tensor y;
  EXPECT_THROW(net.forward_into(Tensor({1, 1}), y, false), InvalidArgument);
}

TEST(Parameter, ZeroAndAccumulate) {
  Parameter p("w", Tensor({2}, std::vector<float>{1, 2}));
  EXPECT_EQ(p.numel(), 2);
  p.accumulate_grad(Tensor({2}, std::vector<float>{3, 4}));
  p.accumulate_grad(Tensor({2}, std::vector<float>{1, 1}));
  EXPECT_TRUE(p.grad().equals(Tensor({2}, std::vector<float>{4, 5})));
  p.zero_grad();
  EXPECT_TRUE(p.grad().equals(Tensor({2})));
}

// Conv -> ReLU -> Dense: every layer kind that owns parameters, in one
// small network.
Sequential conv_dense_net(Rng& rng) {
  Sequential net;
  net.emplace<Conv2d>(Conv2dConfig{.in_channels = 2, .out_channels = 4,
                                   .kernel = 3, .stride = 1, .padding = 1},
                      rng);
  net.emplace<ReLU>();
  net.emplace<Flatten>();
  net.emplace<Dense>(4 * 6 * 6, 3, rng);
  return net;
}

float max_param_grad(Module& net) {
  float largest = 0.0f;
  for (Parameter* p : net.parameters()) {
    largest = std::max(largest, max_abs(p->grad()));
  }
  return largest;
}

TEST(InputGradOnly, ConvDenseNetInputGradientIsBitIdentical) {
  for (const bool training : {true, false}) {
    Rng rng(18);
    Sequential net = conv_dense_net(rng);
    const Tensor x = randn({3, 2, 6, 6}, rng);
    const Tensor seed = randn({3, 3}, rng);
    Tensor y;
    net.forward_into(x, y, training);
    Tensor scoped;
    {
      const InputGradOnly input_grad_only;
      net.backward_into(seed, scoped);
    }
    EXPECT_EQ(max_param_grad(net), 0.0f) << "training=" << training;
    Tensor full;
    net.backward_into(seed, full);
    EXPECT_TRUE(same_bits(scoped, full)) << "training=" << training;
    EXPECT_GT(max_param_grad(net), 0.0f) << "training=" << training;
  }
}

TEST(InputGradOnly, FlagIsThreadLocal) {
  Rng rng(19);
  Sequential net = conv_dense_net(rng);
  const Tensor x = randn({3, 2, 6, 6}, rng);
  const Tensor seed = randn({3, 3}, rng);

  const InputGradOnly input_grad_only;
  ASSERT_FALSE(param_grads_enabled());
  bool worker_enabled = false;
  float worker_grad = 0.0f;
  std::thread worker([&] {
    worker_enabled = param_grads_enabled();
    Tensor y;
    Tensor g;
    net.forward_into(x, y, /*training=*/true);
    net.backward_into(seed, g);
    worker_grad = max_param_grad(net);
  });
  worker.join();
  EXPECT_TRUE(worker_enabled);
  EXPECT_GT(worker_grad, 0.0f);
  EXPECT_FALSE(param_grads_enabled());
}

TEST(InputGradOnly, RestoredAfterNestingAndExceptions) {
  EXPECT_TRUE(param_grads_enabled());
  {
    const InputGradOnly outer;
    EXPECT_FALSE(param_grads_enabled());
    {
      const InputGradOnly inner;
      EXPECT_FALSE(param_grads_enabled());
    }
    EXPECT_FALSE(param_grads_enabled());
  }
  EXPECT_TRUE(param_grads_enabled());
  EXPECT_THROW(
      {
        const InputGradOnly scope;
        throw std::runtime_error("thrown inside the scope");
      },
      std::runtime_error);
  EXPECT_TRUE(param_grads_enabled());

  // The mirror scope keeps its own flag.
  EXPECT_TRUE(input_grads_enabled());
  {
    const ParamGradOnly outer;
    EXPECT_FALSE(input_grads_enabled());
    EXPECT_TRUE(param_grads_enabled());
    {
      const ParamGradOnly inner;
      EXPECT_FALSE(input_grads_enabled());
    }
    EXPECT_FALSE(input_grads_enabled());
  }
  EXPECT_TRUE(input_grads_enabled());
  EXPECT_THROW(
      {
        const ParamGradOnly scope;
        throw std::runtime_error("thrown inside the scope");
      },
      std::runtime_error);
  EXPECT_TRUE(input_grads_enabled());
}

TEST(BackwardParams, RejectsNetworkWithoutParameters) {
  Sequential net;
  net.emplace<ReLU>();
  Tensor y;
  net.forward_into(Tensor({2, 3}, 1.0f), y, /*training=*/true);
  EXPECT_THROW(net.backward_params(Tensor({2, 3}, 1.0f)), InvalidArgument);
}

// ------------------------------------ conv vs naive reference, parameterized

struct ConvCase {
  std::int64_t in_channels, out_channels, kernel, stride, padding, size;
};

class ConvReference : public ::testing::TestWithParam<ConvCase> {};

// Direct O(n^4) convolution used as the oracle.
Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor& b,
                  const nn::Conv2dConfig& cfg) {
  const std::int64_t batch = x.dim(0);
  const std::int64_t h = x.dim(2);
  const std::int64_t width = x.dim(3);
  const std::int64_t oh = (h + 2 * cfg.padding - cfg.kernel) / cfg.stride + 1;
  const std::int64_t ow =
      (width + 2 * cfg.padding - cfg.kernel) / cfg.stride + 1;
  Tensor out({batch, cfg.out_channels, oh, ow});
  for (std::int64_t bi = 0; bi < batch; ++bi) {
    for (std::int64_t oc = 0; oc < cfg.out_channels; ++oc) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc = b[oc];
          for (std::int64_t ci = 0; ci < cfg.in_channels; ++ci) {
            for (std::int64_t ky = 0; ky < cfg.kernel; ++ky) {
              for (std::int64_t kx = 0; kx < cfg.kernel; ++kx) {
                const std::int64_t y = oy * cfg.stride - cfg.padding + ky;
                const std::int64_t xx = ox * cfg.stride - cfg.padding + kx;
                if (y < 0 || y >= h || xx < 0 || xx >= width) continue;
                acc += x.at(bi, ci, y, xx) *
                       w[(oc * cfg.in_channels + ci) * cfg.kernel * cfg.kernel +
                         ky * cfg.kernel + kx];
              }
            }
          }
          out.at(bi, oc, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

TEST_P(ConvReference, Im2ColMatchesNaive) {
  const ConvCase c = GetParam();
  Rng rng(19 + c.kernel + c.stride);
  nn::Conv2dConfig cfg{c.in_channels, c.out_channels, c.kernel, c.stride,
                       c.padding};
  nn::Conv2d conv(cfg, rng);
  const Tensor x = randn({2, c.in_channels, c.size, c.size}, rng);
  Tensor fast;
  conv.forward_into(x, fast, false);
  const Tensor slow =
      naive_conv(x, conv.weight().value(), conv.bias().value(), cfg);
  EXPECT_TRUE(fast.allclose(slow, 1e-3f))
      << "k=" << c.kernel << " s=" << c.stride << " p=" << c.padding;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConvReference,
    ::testing::Values(ConvCase{1, 1, 1, 1, 0, 5},   // pointwise
                      ConvCase{1, 2, 3, 1, 0, 6},   // valid
                      ConvCase{2, 3, 3, 1, 1, 6},   // same
                      ConvCase{1, 2, 3, 2, 1, 7},   // strided
                      ConvCase{3, 4, 5, 2, 2, 9},   // large kernel
                      ConvCase{2, 2, 4, 3, 0, 10},  // uneven stride
                      ConvCase{1, 1, 7, 1, 3, 7})); // kernel = input

}  // namespace
}  // namespace zkg::nn
