// Model-builder tests: output geometry, checkpointing, the Table II
// discriminator contract, the classifier wrapper's validation, and the MLP
// builder.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/rng.hpp"
#include "ckpt/train_state.hpp"
#include "data/preprocess.hpp"
#include "defense/vanilla.hpp"
#include "eval/metrics.hpp"
#include "models/allcnn.hpp"
#include "models/discriminator.hpp"
#include "models/lenet.hpp"
#include "models/mlp.hpp"
#include "models/session.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "test_util.hpp"

namespace zkg::models {
namespace {

TEST(LeNet, BenchPresetShapes) {
  Rng rng(1);
  Classifier model = build_lenet({1, 28, 28, 10}, Preset::kBench, rng);
  Tensor logits;
  model.forward_into(Tensor({3, 1, 28, 28}), logits, false);
  EXPECT_EQ(logits.shape(), Shape({3, 10}));
}

TEST(LeNet, PaperPresetShapes) {
  Rng rng(2);
  Classifier model = build_lenet({1, 28, 28, 10}, Preset::kPaper, rng);
  Tensor logits;
  model.forward_into(Tensor({1, 1, 28, 28}), logits, false);
  EXPECT_EQ(logits.shape(), Shape({1, 10}));
  // Madry's MNIST net: 32c5 + 64c5 + fc1024 + fc10.
  EXPECT_GT(model.net().num_parameters(), 3'000'000);
}

TEST(AllCnn, BenchPresetShapes) {
  Rng rng(3);
  Classifier model = build_allcnn({3, 32, 32, 10}, Preset::kBench, rng);
  Tensor logits;
  model.forward_into(Tensor({2, 3, 32, 32}), logits, false);
  EXPECT_EQ(logits.shape(), Shape({2, 10}));
}

TEST(AllCnn, InputDropoutOnlyActsInTraining) {
  Rng rng(4);
  Classifier model = build_allcnn({3, 32, 32, 10}, Preset::kBench, rng, 0.5f);
  Rng data_rng(5);
  const Tensor x = randn({2, 3, 32, 32}, data_rng);
  Tensor first;
  Tensor second;
  // Inference is deterministic.
  model.forward_into(x, first, false);
  model.forward_into(x, second, false);
  EXPECT_TRUE(first.equals(second));
  // Training passes differ (dropout masks resample).
  model.forward_into(x, first, true);
  model.forward_into(x, second, true);
  EXPECT_FALSE(first.equals(second));
}

TEST(AllCnn, DropoutCanBeAblated) {
  Rng rng(6);
  Classifier model = build_allcnn({3, 32, 32, 10}, Preset::kBench, rng, 0.0f);
  Rng data_rng(7);
  const Tensor x = randn({1, 3, 32, 32}, data_rng);
  Tensor first;
  Tensor second;
  model.forward_into(x, first, true);
  model.forward_into(x, second, true);
  EXPECT_TRUE(first.allclose(second));
}

TEST(Classifier, RejectsWrongGeometry) {
  Rng rng(8);
  Classifier model = build_lenet({1, 28, 28, 10}, Preset::kBench, rng);
  Tensor logits;
  EXPECT_THROW(model.forward_into(Tensor({1, 3, 28, 28}), logits, false),
               InvalidArgument);
  EXPECT_THROW(model.forward_into(Tensor({1, 1, 32, 32}), logits, false),
               InvalidArgument);
}

TEST(Classifier, PredictReturnsArgmax) {
  Rng rng(9);
  Classifier model = build_lenet({1, 28, 28, 10}, Preset::kBench, rng);
  Rng data_rng(10);
  const Tensor x = randn({4, 1, 28, 28}, data_rng);
  Tensor logits;
  model.forward_into(x, logits, false);
  std::vector<std::int64_t> argmax;
  argmax_rows_into(argmax, logits);
  InferenceSession session(model);
  EXPECT_EQ(session.predict(x), argmax);
}

TEST(Classifier, CheckpointRoundTrip) {
  const std::string path = "/tmp/zkg_test_checkpoint.zkgc";
  Rng rng_a(11), rng_b(99);
  Classifier a = build_lenet({1, 28, 28, 10}, Preset::kBench, rng_a);
  Classifier b = build_lenet({1, 28, 28, 10}, Preset::kBench, rng_b);
  Rng data_rng(12);
  const Tensor x = randn({2, 1, 28, 28}, data_rng);
  Tensor ya;
  Tensor yb;
  a.forward_into(x, ya, false);
  b.forward_into(x, yb, false);
  ASSERT_FALSE(ya.allclose(yb));
  ckpt::TrainState state;
  state.model_params = a.net().state();
  ckpt::save_train_state(path, state);
  b.net().load_state(ckpt::load_train_state(path).model_params);
  b.forward_into(x, yb, false);
  EXPECT_TRUE(ya.allclose(yb));
  std::remove(path.c_str());
}

TEST(Classifier, InputSpecHelpers) {
  const InputSpec spec{3, 32, 32, 10};
  EXPECT_EQ(spec.pixels(), 3 * 32 * 32);
  EXPECT_EQ(spec.batch_shape(4), Shape({4, 3, 32, 32}));
}

TEST(Discriminator, TableIIShape) {
  Rng rng(13);
  Discriminator d(10, rng);
  // Dense 10->32, 32->64, 64->32, 32->1 (weights + biases).
  std::int64_t params = 0;
  for (nn::Parameter* p : d.parameters()) params += p->numel();
  EXPECT_EQ(params, (10 * 32 + 32) + (32 * 64 + 64) + (64 * 32 + 32) +
                        (32 * 1 + 1));
  Tensor out;
  d.forward_into(Tensor({5, 10}), out, false);
  EXPECT_EQ(out.shape(), Shape({5, 1}));
}

TEST(Discriminator, ProbabilityInUnitInterval) {
  Rng rng(14);
  Discriminator d(10, rng);
  Rng data_rng(15);
  // Large logits saturate sigmoid to exactly 0/1 in float; the contract is
  // the closed unit interval.
  Tensor p;
  d.probability_into(randn({20, 10}, data_rng, 0.0f, 10.0f), p);
  EXPECT_GE(min_value(p), 0.0f);
  EXPECT_LE(max_value(p), 1.0f);
}

TEST(Discriminator, RejectsWrongLogitWidth) {
  Rng rng(16);
  Discriminator d(10, rng);
  Tensor out;
  EXPECT_THROW(d.forward_into(Tensor({2, 7}), out, false), InvalidArgument);
  EXPECT_THROW(Discriminator(1, rng), InvalidArgument);
}

TEST(Discriminator, BackwardReachesClassLogits) {
  Rng rng(17);
  Discriminator d(10, rng);
  Rng data_rng(18);
  const Tensor z = randn({3, 10}, data_rng);
  Tensor out;
  d.forward_into(z, out, true);
  Tensor grad;
  d.backward_into(Tensor({3, 1}, 1.0f), grad);
  EXPECT_EQ(grad.shape(), Shape({3, 10}));
  EXPECT_GT(max_abs(grad), 0.0f);
}

// ------------------------------------------------- the training backward

// backward_params() is the training backward: from the same forward caches
// it leaves every parameter gradient bit-identical to backward_into()'s.
template <typename Net>
void expect_backward_params_matches(Net& net, const Tensor& x,
                                    const Tensor& grad_output) {
  Tensor out;
  net.forward_into(x, out, /*training=*/true);
  net.zero_grad();
  Tensor grad_input;
  net.backward_into(grad_output, grad_input);
  std::vector<Tensor> full;
  for (nn::Parameter* p : net.parameters()) full.push_back(p->grad());

  net.zero_grad();
  net.backward_params(grad_output);
  const std::vector<nn::Parameter*> params = net.parameters();
  ASSERT_EQ(params.size(), full.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(testutil::same_bits(params[i]->grad(), full[i]))
        << params[i]->name();
    EXPECT_GT(max_abs(params[i]->grad()), 0.0f) << params[i]->name();
  }
}

TEST(BackwardParams, LeNetParameterGradientsAreBitIdentical) {
  Rng rng(21);
  Classifier model = build_lenet({1, 28, 28, 10}, Preset::kBench, rng);
  const Tensor x = randn({4, 1, 28, 28}, rng, 0.0f, 0.3f);
  expect_backward_params_matches(model, x, randn({4, 10}, rng));
}

// Layer 0 is the input Dropout: backward_params stops at the conv above it.
TEST(BackwardParams, AllCnnWithInputDropoutParameterGradientsAreBitIdentical) {
  Rng rng(22);
  Classifier model = build_allcnn({3, 32, 32, 10}, Preset::kBench, rng, 0.2f);
  ASSERT_TRUE(model.net().layer(0).parameters().empty());
  const Tensor x = randn({2, 3, 32, 32}, rng, 0.0f, 0.3f);
  expect_backward_params_matches(model, x, randn({2, 10}, rng));
}

TEST(BackwardParams, MlpParameterGradientsAreBitIdentical) {
  Rng rng(23);
  Classifier mlp = build_mlp({1, 28, 28, 10}, {32, 16}, rng);
  const Tensor x = randn({3, 1, 28, 28}, rng, 0.0f, 0.3f);
  expect_backward_params_matches(mlp, x, randn({3, 10}, rng));
}

TEST(BackwardParams, DiscriminatorParameterGradientsAreBitIdentical) {
  Rng rng(24);
  Discriminator d(10, rng);
  const Tensor z = randn({5, 10}, rng);
  expect_backward_params_matches(d, z, randn({5, 1}, rng));
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

}  // namespace
}  // namespace zkg::models
