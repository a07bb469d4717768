// Tests for the extension modules: BatchNorm, the MLP builder, netpbm
// export, the SPSA black-box attack, and a parameterized conv-vs-naive
// reference sweep across kernel/stride/padding combinations.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "attacks/spsa.hpp"
#include "common/rng.hpp"
#include "data/image_io.hpp"
#include "data/preprocess.hpp"
#include "defense/vanilla.hpp"
#include "eval/metrics.hpp"
#include "models/lenet.hpp"
#include "models/mlp.hpp"
#include "models/session.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tests/test_util.hpp"

namespace zkg {
namespace {

using testutil::expect_close;
using testutil::numerical_gradient;

// ------------------------------------------------------------- BatchNorm

TEST(BatchNorm, TrainingNormalisesBatchStatistics) {
  nn::BatchNorm bn(3);
  Rng rng(1);
  const Tensor x = randn({16, 3}, rng, 5.0f, 2.0f);
  Tensor y;
  bn.forward_into(x, y, /*training=*/true);
  // Per-feature mean ~0, variance ~1 after normalisation (gamma=1, beta=0).
  for (std::int64_t f = 0; f < 3; ++f) {
    double mean = 0.0, var = 0.0;
    for (std::int64_t r = 0; r < 16; ++r) mean += y[r * 3 + f];
    mean /= 16.0;
    for (std::int64_t r = 0; r < 16; ++r) {
      const double d = y[r * 3 + f] - mean;
      var += d * d;
    }
    var /= 16.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsConvergeToDataStats) {
  nn::BatchNorm bn(2, /*momentum=*/0.5f);
  Rng rng(2);
  Tensor y;
  for (int step = 0; step < 60; ++step) {
    bn.forward_into(randn({64, 2}, rng, 3.0f, 1.5f), y, true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 3.0f, 0.3f);
  EXPECT_NEAR(bn.running_var()[0], 2.25f, 0.5f);
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  nn::BatchNorm bn(2);
  Rng rng(3);
  Tensor y;
  for (int step = 0; step < 20; ++step) {
    bn.forward_into(randn({32, 2}, rng, 1.0f, 1.0f), y, true);
  }
  // Inference output is a deterministic affine map of the input.
  const Tensor probe = randn({4, 2}, rng);
  Tensor first;
  Tensor second;
  bn.forward_into(probe, first, false);
  bn.forward_into(probe, second, false);
  EXPECT_TRUE(first.equals(second));
}

TEST(BatchNorm, GradientCheckTrainingMode) {
  nn::BatchNorm bn(3);
  Rng rng(4);
  const Tensor x = randn({8, 3}, rng);
  // d(sum(bn(x)))/dx against central differences (training statistics make
  // this the hard case).
  Tensor y;
  bn.forward_into(x, y, true);
  bn.zero_grad();
  Tensor analytic;
  bn.backward_into(Tensor({8, 3}, 1.0f), analytic);
  // sum of normalised output is invariant to input shifts, so probe a
  // weighted sum instead for a non-degenerate gradient.
  Tensor weights = randn({8, 3}, rng);
  bn.forward_into(x, y, true);
  bn.zero_grad();
  Tensor analytic_weighted;
  bn.backward_into(weights, analytic_weighted);
  const Tensor numeric = numerical_gradient(
      [&](const Tensor& probe) {
        bn.forward_into(probe, y, true);
        return dot(y, weights);
      },
      x);
  expect_close(analytic_weighted, numeric, 3e-2f, 3e-3f);
  (void)analytic;
}

TEST(BatchNorm, GradientCheckRank4) {
  nn::BatchNorm bn(2);
  Rng rng(5);
  const Tensor x = randn({3, 2, 4, 4}, rng);
  Tensor weights = randn({3, 2, 4, 4}, rng);
  Tensor y;
  bn.forward_into(x, y, true);
  bn.zero_grad();
  Tensor analytic;
  bn.backward_into(weights, analytic);
  const Tensor numeric = numerical_gradient(
      [&](const Tensor& probe) {
        bn.forward_into(probe, y, true);
        return dot(y, weights);
      },
      x);
  expect_close(analytic, numeric, 3e-2f, 3e-3f);
}

TEST(BatchNorm, ParameterGradients) {
  nn::BatchNorm bn(2);
  Rng rng(6);
  const Tensor x = randn({8, 2}, rng);
  Tensor y;
  bn.forward_into(x, y, true);
  bn.zero_grad();
  Tensor grad;
  bn.backward_into(Tensor({8, 2}, 1.0f), grad);
  // d(sum)/d(beta_f) = count of elements per feature = 8.
  for (std::int64_t f = 0; f < 2; ++f) {
    EXPECT_NEAR(bn.parameters()[1]->grad()[f], 8.0f, 1e-4f);
  }
}

TEST(BatchNorm, Validation) {
  EXPECT_THROW(nn::BatchNorm(0), InvalidArgument);
  nn::BatchNorm bn(2);
  Tensor y;
  EXPECT_THROW(bn.forward_into(Tensor({4, 3}), y, true), InvalidArgument);
  EXPECT_THROW(bn.forward_into(Tensor({1, 2}), y, true),
               InvalidArgument);  // n = 1
}

// ------------------------------------------------------------------- MLP

TEST(Mlp, ShapesAndParameterCount) {
  Rng rng(7);
  models::Classifier mlp =
      models::build_mlp({1, 28, 28, 10}, {32, 16}, rng);
  Tensor logits;
  mlp.forward_into(Tensor({5, 1, 28, 28}), logits, false);
  EXPECT_EQ(logits.shape(), Shape({5, 10}));
  EXPECT_EQ(mlp.net().num_parameters(),
            (784 * 32 + 32) + (32 * 16 + 16) + (16 * 10 + 10));
}

TEST(Mlp, LinearModelWhenNoHiddenLayers) {
  Rng rng(8);
  models::Classifier linear = models::build_mlp({1, 4, 4, 3}, {}, rng);
  EXPECT_EQ(linear.net().num_parameters(), 16 * 3 + 3);
  EXPECT_THROW(models::build_mlp({1, 4, 4, 3}, {0}, rng), InvalidArgument);
}

TEST(Mlp, LearnsDigits) {
  Rng rng(9);
  data::Dataset raw = data::make_synth_digits(500, rng);
  const data::Dataset train = data::scale_pixels(raw);
  models::Classifier mlp = models::build_mlp({1, 28, 28, 10}, {64}, rng);
  defense::TrainConfig config;
  config.epochs = 6;
  config.batch_size = 64;
  defense::VanillaTrainer(mlp, config).fit(train);
  models::InferenceSession session(mlp);
  const double acc = eval::accuracy(
      session.predict(train.images.slice_rows(0, 200)),
      {train.labels.begin(), train.labels.begin() + 200});
  EXPECT_GT(acc, 0.7);
}

// ---------------------------------------------------------------- Netpbm

TEST(Netpbm, GrayHeaderAndSize) {
  Tensor image({1, 2, 3}, std::vector<float>{-1, 0, 1, 0.5f, -0.5f, 0});
  std::ostringstream out;
  data::write_netpbm(out, image);
  const std::string bytes = out.str();
  EXPECT_EQ(bytes.rfind("P5\n3 2\n255\n", 0), 0u);
  EXPECT_EQ(bytes.size(), std::string("P5\n3 2\n255\n").size() + 6);
  // -1 -> 0, 1 -> 255.
  EXPECT_EQ(static_cast<unsigned char>(bytes[11]), 0);
  EXPECT_EQ(static_cast<unsigned char>(bytes[13]), 255);
}

TEST(Netpbm, ColourInterleavesChannels) {
  Tensor image({3, 1, 1});
  image[0] = 1.0f;   // R
  image[1] = -1.0f;  // G
  image[2] = 0.0f;   // B
  std::ostringstream out;
  data::write_netpbm(out, image);
  const std::string bytes = out.str();
  EXPECT_EQ(bytes.rfind("P6\n1 1\n255\n", 0), 0u);
  const std::size_t base = std::string("P6\n1 1\n255\n").size();
  EXPECT_EQ(static_cast<unsigned char>(bytes[base + 0]), 255);
  EXPECT_EQ(static_cast<unsigned char>(bytes[base + 1]), 0);
  EXPECT_EQ(static_cast<unsigned char>(bytes[base + 2]), 128);
}

TEST(Netpbm, AcceptsSingletonBatchRejectsOthers) {
  std::ostringstream out;
  EXPECT_NO_THROW(data::write_netpbm(out, Tensor({1, 1, 4, 4})));
  EXPECT_THROW(data::write_netpbm(out, Tensor({2, 1, 4, 4})),
               InvalidArgument);
  EXPECT_THROW(data::write_netpbm(out, Tensor({2, 4, 4})), InvalidArgument);
}

TEST(Netpbm, FileRoundTripOnDisk) {
  Rng rng(10);
  const data::Dataset ds = data::make_synth_objects(1, rng);
  const Tensor image = data::scale_pixels(ds.images);
  const std::string path = "/tmp/zkg_test_sample.ppm";
  data::save_netpbm(path, image);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P6");
  std::remove(path.c_str());
}

// ------------------------------------------------------------------ SPSA

TEST(Spsa, RespectsBudgetWithoutGradients) {
  Rng rng(11);
  models::Classifier mlp = models::build_mlp({1, 8, 8, 10}, {16}, rng);
  Rng data_rng(12);
  const Tensor x = rand_uniform({3, 1, 8, 8}, data_rng, -1.0f, 1.0f);
  Rng attack_rng(13);
  attacks::Spsa spsa({.epsilon = 0.2f, .step_size = 0.05f, .iterations = 3},
                     attack_rng, 0.01f, 4);
  const Tensor adv = spsa.generate(mlp, x, {0, 1, 2});
  Tensor delta;
  sub_into(delta, adv, x);
  EXPECT_LE(max_abs(delta), 0.2f + 1e-5f);
  EXPECT_GE(min_value(adv), -1.0f - 1e-6f);
  EXPECT_LE(max_value(adv), 1.0f + 1e-6f);
  // Query-only contract: parameter gradients stay zero.
  for (nn::Parameter* p : mlp.parameters()) {
    EXPECT_FLOAT_EQ(max_abs(p->grad()), 0.0f);
  }
}

TEST(Spsa, DegradesATrainedModel) {
  Rng rng(14);
  data::Dataset raw = data::make_synth_digits(700, rng);
  const data::Dataset scaled = data::scale_pixels(raw);
  const data::TrainTestSplit split = data::separate(scaled, 60, rng);
  Rng model_rng(15);
  models::Classifier model = models::build_lenet(
      {1, 28, 28, 10}, models::Preset::kBench, model_rng);
  defense::TrainConfig config;
  config.epochs = 8;
  config.batch_size = 64;
  defense::VanillaTrainer(model, config).fit(split.train);

  Rng attack_rng(16);
  attacks::Spsa spsa({.epsilon = 0.3f, .step_size = 0.06f, .iterations = 8},
                     attack_rng, 0.05f, 16);
  const Tensor adv =
      spsa.generate(model, split.test.images, split.test.labels);
  models::InferenceSession session(model);
  const double clean =
      eval::accuracy(session.predict(split.test.images), split.test.labels);
  const double attacked =
      eval::accuracy(session.predict(adv), split.test.labels);
  EXPECT_LT(attacked, clean - 0.25)
      << "clean " << clean << " vs SPSA " << attacked;
}

TEST(Spsa, Validation) {
  Rng rng(17);
  EXPECT_THROW(
      attacks::Spsa({.epsilon = 0.1f, .step_size = 0.1f, .iterations = 1},
                    rng, 0.0f),
      InvalidArgument);
  EXPECT_THROW(
      attacks::Spsa({.epsilon = 0.1f, .step_size = 0.1f, .iterations = 1},
                    rng, 0.01f, 0),
      InvalidArgument);
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
}  // namespace zkg
