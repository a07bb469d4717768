// Attack tests: projection invariants, input-gradient correctness, and the
// per-attack contracts (budget respected, validity range, effectiveness
// against a trained model).
#include <gtest/gtest.h>

#include "attacks/attack.hpp"
#include "attacks/bim.hpp"
#include "attacks/cw.hpp"
#include "attacks/deepfool.hpp"
#include "attacks/fgsm.hpp"
#include "attacks/noise.hpp"
#include "attacks/pgd.hpp"
#include "attacks/spsa.hpp"
#include "common/rng.hpp"
#include "data/preprocess.hpp"
#include "defense/vanilla.hpp"
#include "eval/metrics.hpp"
#include "models/allcnn.hpp"
#include "models/lenet.hpp"
#include "models/mlp.hpp"
#include "models/session.hpp"
#include "nn/loss.hpp"
#include "nn/parameter.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tests/test_util.hpp"

namespace zkg::attacks {
namespace {

using testutil::same_bits;

// A tiny trained classifier shared across the effectiveness tests (training
// once keeps the suite fast).
class TrainedModelFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(42);
    data::Dataset raw = data::make_synth_digits(1300, rng);
    const data::Dataset scaled = data::scale_pixels(raw);
    data::TrainTestSplit split = data::separate(scaled, 100, rng);
    test_set_ = new data::Dataset(std::move(split.test));

    Rng model_rng(7);
    model_ = new models::Classifier(models::build_lenet(
        {1, 28, 28, 10}, models::Preset::kBench, model_rng));
    defense::TrainConfig config;
    config.epochs = 12;
    config.batch_size = 64;
    defense::VanillaTrainer trainer(*model_, config);
    trainer.fit(split.train);
  }

  static void TearDownTestSuite() {
    delete model_;
    delete test_set_;
    model_ = nullptr;
    test_set_ = nullptr;
  }

  static double accuracy_on(const Tensor& images,
                            const std::vector<std::int64_t>& labels) {
    models::InferenceSession session(*model_);
    return eval::accuracy(session.predict(images), labels);
  }

  static models::Classifier* model_;
  static data::Dataset* test_set_;
};

models::Classifier* TrainedModelFixture::model_ = nullptr;
data::Dataset* TrainedModelFixture::test_set_ = nullptr;

TEST(ProjectLinf, ClampsToBallAndValidRange) {
  const Tensor origin({3}, std::vector<float>{0.0f, 0.9f, -0.9f});
  Tensor adv({3}, std::vector<float>{0.5f, 1.5f, -1.5f});
  project_linf_(adv, origin, 0.2f);
  EXPECT_NEAR(adv[0], 0.2f, 1e-6f);   // ball edge
  EXPECT_NEAR(adv[1], 1.0f, 1e-6f);   // valid-range edge
  EXPECT_NEAR(adv[2], -1.0f, 1e-6f);  // valid-range edge
  EXPECT_THROW(project_linf_(adv, Tensor({2}), 0.1f), InvalidArgument);
}

TEST(InputGradient, MatchesNumericalDifferentiation) {
  Rng rng(1);
  models::Classifier model =
      models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
  Rng data_rng(2);
  const Tensor x = rand_uniform({2, 1, 28, 28}, data_rng, -0.5f, 0.5f);
  const std::vector<std::int64_t> labels{3, 8};

  GradientScratch scratch;
  Tensor analytic;
  EXPECT_GT(input_gradient_into(model, x, labels, scratch, analytic), 0.0f);

  // Spot-check 40 random coordinates (a full pass over 1568 pixels is slow).
  Rng pick(3);
  Tensor probe = x;
  Tensor probe_grad;
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t i = pick.randint(0, x.numel() - 1);
    const float eps = 1e-3f;
    const float saved = probe[i];
    probe[i] = saved + eps;
    const float plus =
        input_gradient_into(model, probe, labels, scratch, probe_grad);
    probe[i] = saved - eps;
    const float minus =
        input_gradient_into(model, probe, labels, scratch, probe_grad);
    probe[i] = saved;
    const float numeric = (plus - minus) / (2.0f * eps);
    EXPECT_NEAR(analytic[i], numeric, 2e-3f + 0.05f * std::fabs(numeric));
  }
}

TEST(InputGradient, LeavesParameterGradientsZero) {
  Rng rng(4);
  models::Classifier model =
      models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
  Rng data_rng(5);
  const Tensor x = randn({1, 1, 28, 28}, data_rng, 0.0f, 0.3f);
  GradientScratch scratch;
  Tensor grad;
  input_gradient_into(model, x, {0}, scratch, grad);
  for (nn::Parameter* p : model.parameters()) {
    EXPECT_FLOAT_EQ(max_abs(p->grad()), 0.0f) << p->name();
  }
}

// The backward under nn::InputGradOnly returns the same input gradient, bit
// for bit, as a full backward from the same forward caches.
void expect_scoped_input_gradient_identical(models::Classifier& model,
                                            const Tensor& x,
                                            const std::vector<std::int64_t>&
                                                labels) {
  Tensor logits;
  model.forward_into(x, logits, /*training=*/false);
  Tensor seed;
  nn::softmax_cross_entropy_into(logits, labels, seed);
  Tensor scoped;
  {
    const nn::InputGradOnly input_grad_only;
    model.backward_into(seed, scoped);
  }
  Tensor full;
  model.backward_into(seed, full);
  EXPECT_TRUE(same_bits(scoped, full));
  EXPECT_GT(max_abs(full), 0.0f);
}

TEST(InputGradOnly, LeNetInputGradientIsBitIdentical) {
  Rng rng(8);
  models::Classifier model =
      models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
  Rng data_rng(9);
  const Tensor x = randn({4, 1, 28, 28}, data_rng, 0.0f, 0.3f);
  expect_scoped_input_gradient_identical(model, x, {0, 3, 5, 9});
}

TEST(InputGradOnly, AllCnnInputGradientIsBitIdentical) {
  Rng rng(10);
  models::Classifier model =
      models::build_allcnn({3, 32, 32, 10}, models::Preset::kBench, rng);
  Rng data_rng(11);
  const Tensor x = randn({2, 3, 32, 32}, data_rng, 0.0f, 0.3f);
  expect_scoped_input_gradient_identical(model, x, {1, 7});
}

// Every attack leaves each parameter gradient exactly as it found it, even
// when the accumulators hold a non-zero value.
TEST(InputGradOnly, AttacksLeaveParameterGradientsUntouched) {
  constexpr float kSentinel = 0.375f;
  Rng rng(12);
  models::Classifier model =
      models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
  Rng data_rng(13);
  const Tensor x = rand_uniform({3, 1, 28, 28}, data_rng, -0.5f, 0.5f);
  const std::vector<std::int64_t> labels{2, 4, 6};
  const AttackBudget budget{.epsilon = 0.2f, .step_size = 0.05f,
                            .iterations = 3, .restarts = 1};
  Rng pgd_rng(14);
  std::vector<AttackPtr> attacks;
  attacks.push_back(std::make_unique<Fgsm>(budget));
  attacks.push_back(std::make_unique<Bim>(budget));
  attacks.push_back(std::make_unique<Pgd>(budget, pgd_rng));
  attacks.push_back(std::make_unique<CarliniWagner>(budget));
  attacks.push_back(std::make_unique<DeepFool>(budget));
  for (const AttackPtr& attack : attacks) {
    for (nn::Parameter* p : model.parameters()) p->grad().fill(kSentinel);
    attack->generate(model, x, labels);
    for (nn::Parameter* p : model.parameters()) {
      EXPECT_TRUE(same_bits(p->grad(), Tensor(p->grad().shape(), kSentinel)))
          << attack->name() << " touched " << p->name();
    }
  }
}

TEST(PerExampleLoss, AgreesWithBatchMean) {
  Rng rng(6);
  models::Classifier model =
      models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
  Rng data_rng(7);
  const Tensor x = randn({4, 1, 28, 28}, data_rng, 0.0f, 0.3f);
  const std::vector<std::int64_t> labels{0, 1, 2, 3};
  GradientScratch scratch;
  std::vector<float> each;
  per_example_loss_into(model, x, labels, scratch, each);
  Tensor grad;
  const float batch_loss =
      input_gradient_into(model, x, labels, scratch, grad);
  float mean_each = 0.0f;
  for (const float l : each) mean_each += l;
  mean_each /= 4.0f;
  EXPECT_NEAR(batch_loss, mean_each, 1e-4f);
}

class BudgetContract : public ::testing::TestWithParam<float> {};

TEST_P(BudgetContract, AllAttacksRespectEpsilonAndValidity) {
  const float eps = GetParam();
  Rng rng(8);
  models::Classifier model =
      models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
  Rng data_rng(9);
  Tensor x = rand_uniform({3, 1, 28, 28}, data_rng, -1.0f, 1.0f);
  const std::vector<std::int64_t> labels{1, 4, 9};

  const AttackBudget budget{.epsilon = eps, .step_size = eps / 3.0f,
                            .iterations = 4, .restarts = 2};
  Rng attack_rng(10);
  Fgsm fgsm(budget);
  Bim bim(budget);
  Pgd pgd(budget, attack_rng);
  DeepFool deepfool(budget);
  CarliniWagner cw(budget, 0.0f, eps / 2.0f);
  GaussianNoise noise(budget, 1.0f, attack_rng);

  for (Attack* attack : std::initializer_list<Attack*>{&fgsm, &bim, &pgd,
                                                       &deepfool, &cw,
                                                       &noise}) {
    const Tensor adv = attack->generate(model, x, labels);
    ASSERT_EQ(adv.shape(), x.shape()) << attack->name();
    Tensor delta;
    sub_into(delta, adv, x);
    EXPECT_LE(max_abs(delta), eps + 1e-5f) << attack->name();
    EXPECT_GE(min_value(adv), data::kPixelMin - 1e-6f) << attack->name();
    EXPECT_LE(max_value(adv), data::kPixelMax + 1e-6f) << attack->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetContract,
                         ::testing::Values(0.05f, 0.3f, 0.6f));

TEST(Fgsm, ZeroEpsilonIsIdentity) {
  Rng rng(11);
  models::Classifier model =
      models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
  Rng data_rng(12);
  const Tensor x = rand_uniform({2, 1, 28, 28}, data_rng, -0.9f, 0.9f);
  Fgsm fgsm(AttackBudget{.epsilon = 0.0f});
  EXPECT_TRUE(fgsm.generate(model, x, {0, 1}).allclose(x, 1e-6f));
}

TEST(Fgsm, MovesPixelsByExactlyEpsilonInInterior) {
  Rng rng(13);
  models::Classifier model =
      models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
  Rng data_rng(14);
  const Tensor x = rand_uniform({1, 1, 28, 28}, data_rng, -0.2f, 0.2f);
  Fgsm fgsm(AttackBudget{.epsilon = 0.1f});
  Tensor delta;
  sub_into(delta, fgsm.generate(model, x, {5}), x);
  // Away from the range boundary, each pixel moves by 0 or +-eps exactly.
  std::int64_t moved = 0;
  for (std::int64_t i = 0; i < delta.numel(); ++i) {
    const float d = std::fabs(delta[i]);
    EXPECT_TRUE(d < 1e-6f || std::fabs(d - 0.1f) < 1e-5f);
    if (d > 1e-6f) ++moved;
  }
  EXPECT_GT(moved, delta.numel() / 2);  // gradients are almost never zero
}

// PGD's random start draws through one hoisted uniform_real_distribution;
// it must consume the attack stream exactly as one Rng::uniform call per
// element. With every weight zero the input gradient is exactly zero, so
// each ascent step adds 0 and the attack returns its projected start.
TEST(Pgd, RandomStartMatchesPerElementUniformDraws) {
  Rng rng(21);
  models::Classifier model =
      models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
  for (nn::Parameter* p : model.parameters()) p->value().fill(0.0f);
  Rng data_rng(22);
  const Tensor x = rand_uniform({2, 1, 28, 28}, data_rng, -0.9f, 0.9f);
  const AttackBudget budget{.epsilon = 0.1f, .step_size = 0.05f,
                            .iterations = 2};
  Rng attack_rng(23);
  Pgd pgd(budget, attack_rng);
  const Tensor adv = pgd.generate(model, x, {0, 1});

  Rng reference = Rng(23).fork();  // the stream Pgd forks for itself
  Tensor expected(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    expected[i] = x[i] + reference.uniform(-budget.epsilon, budget.epsilon);
  }
  project_linf_(expected, x, budget.epsilon);
  EXPECT_TRUE(adv.equals(expected));
}

TEST(Attacks, BadBudgetsRejected) {
  Rng rng(15);
  EXPECT_THROW(Fgsm(AttackBudget{.epsilon = -1.0f}), InvalidArgument);
  EXPECT_THROW(Bim(AttackBudget{.epsilon = 0.1f, .step_size = 0.0f}),
               InvalidArgument);
  EXPECT_THROW(Pgd(AttackBudget{.epsilon = 0.1f, .step_size = 0.1f,
                                .iterations = 0},
                   rng),
               InvalidArgument);
  EXPECT_THROW(CarliniWagner(AttackBudget{}, -1.0f), InvalidArgument);
  EXPECT_THROW(GaussianNoise(AttackBudget{}, -0.5f, rng), InvalidArgument);
}

// Attacks that index logits or per-class gradients by label reject labels
// that do not match the batch or name no class, instead of reading out of
// bounds.
void expect_bad_labels_rejected(Attack& attack) {
  Rng rng(19);
  models::Classifier model = models::build_mlp({1, 8, 8, 10}, {16}, rng);
  const Tensor x = rand_uniform({2, 1, 8, 8}, rng, -1.0f, 1.0f);
  EXPECT_THROW(attack.generate(model, x, {1}), InvalidArgument);
  EXPECT_THROW(attack.generate(model, x, {1, 2, 3}), InvalidArgument);
  EXPECT_THROW(attack.generate(model, x, {1, 10}), InvalidArgument);
  EXPECT_THROW(attack.generate(model, x, {-1, 1}), InvalidArgument);
  EXPECT_NO_THROW(attack.generate(model, x, {0, 9}));
}

const AttackBudget kLabelCheckBudget{.epsilon = 0.2f, .step_size = 0.05f,
                                     .iterations = 2, .restarts = 1};

TEST(LabelValidation, CarliniWagnerRejectsBadLabels) {
  CarliniWagner cw(kLabelCheckBudget);
  expect_bad_labels_rejected(cw);
}

TEST(LabelValidation, DeepFoolRejectsBadLabels) {
  DeepFool deepfool(kLabelCheckBudget);
  expect_bad_labels_rejected(deepfool);
}

TEST(LabelValidation, SpsaRejectsBadLabels) {
  Rng rng(20);
  Spsa spsa(kLabelCheckBudget, rng, /*delta=*/0.01f, /*samples=*/2);
  expect_bad_labels_rejected(spsa);
}

TEST_F(TrainedModelFixture, CleanAccuracyIsHigh) {
  EXPECT_GT(accuracy_on(test_set_->images, test_set_->labels), 0.9);
}

TEST_F(TrainedModelFixture, FgsmDegradesAccuracy) {
  Fgsm fgsm(AttackBudget{.epsilon = 0.3f});
  const Tensor adv =
      fgsm.generate(*model_, test_set_->images, test_set_->labels);
  EXPECT_LT(accuracy_on(adv, test_set_->labels), 0.3);
}

TEST_F(TrainedModelFixture, IterativeAttacksBeatSingleStep) {
  Fgsm fgsm(AttackBudget{.epsilon = 0.3f});
  Bim bim(AttackBudget{.epsilon = 0.3f, .step_size = 0.05f, .iterations = 10});
  const Tensor fgsm_adv =
      fgsm.generate(*model_, test_set_->images, test_set_->labels);
  const Tensor bim_adv =
      bim.generate(*model_, test_set_->images, test_set_->labels);
  EXPECT_LE(accuracy_on(bim_adv, test_set_->labels),
            accuracy_on(fgsm_adv, test_set_->labels) + 0.02);
}

TEST_F(TrainedModelFixture, PgdCollapsesVanillaModel) {
  Rng rng(16);
  Pgd pgd(AttackBudget{.epsilon = 0.3f, .step_size = 0.06f, .iterations = 10,
                       .restarts = 1},
          rng);
  const Tensor adv =
      pgd.generate(*model_, test_set_->images, test_set_->labels);
  EXPECT_LT(accuracy_on(adv, test_set_->labels), 0.1);
}

TEST_F(TrainedModelFixture, DeepFoolFindsSmallPerturbations) {
  DeepFool deepfool(AttackBudget{.epsilon = 0.3f, .iterations = 10});
  const Tensor subset = test_set_->images.slice_rows(0, 30);
  const std::vector<std::int64_t> labels(test_set_->labels.begin(),
                                         test_set_->labels.begin() + 30);
  const Tensor adv = deepfool.generate(*model_, subset, labels);
  EXPECT_LT(accuracy_on(adv, labels), 0.35);
  // DeepFool seeks the nearest boundary: its mean perturbation should be
  // well below the budget that signed attacks saturate.
  const eval::PerturbationStats stats = eval::perturbation_stats(subset, adv);
  EXPECT_LT(stats.mean_linf, 0.29f);
}

TEST_F(TrainedModelFixture, CarliniWagnerFlipsPredictions) {
  CarliniWagner cw(AttackBudget{.epsilon = 0.3f, .iterations = 25}, 0.0f,
                   0.05f);
  const Tensor subset = test_set_->images.slice_rows(0, 30);
  const std::vector<std::int64_t> labels(test_set_->labels.begin(),
                                         test_set_->labels.begin() + 30);
  const Tensor adv = cw.generate(*model_, subset, labels);
  EXPECT_LT(accuracy_on(adv, labels), 0.2);
}

TEST_F(TrainedModelFixture, GaussianNoiseIsMuchWeakerThanAttacks) {
  Rng rng(17);
  GaussianNoise noise(AttackBudget{.epsilon = 0.3f}, 1.0f, rng);
  const Tensor noisy =
      noise.generate(*model_, test_set_->images, test_set_->labels);
  Fgsm fgsm(AttackBudget{.epsilon = 0.3f});
  const Tensor adv =
      fgsm.generate(*model_, test_set_->images, test_set_->labels);
  EXPECT_GT(accuracy_on(noisy, test_set_->labels),
            accuracy_on(adv, test_set_->labels) + 0.3);
}

TEST_F(TrainedModelFixture, PgdRestartsNeverHurt) {
  Rng rng(18);
  const Tensor subset = test_set_->images.slice_rows(0, 40);
  const std::vector<std::int64_t> labels(test_set_->labels.begin(),
                                         test_set_->labels.begin() + 40);
  Pgd single(AttackBudget{.epsilon = 0.2f, .step_size = 0.05f,
                          .iterations = 5, .restarts = 1},
             rng);
  Pgd multi(AttackBudget{.epsilon = 0.2f, .step_size = 0.05f,
                         .iterations = 5, .restarts = 3},
            rng);
  const double acc_single =
      accuracy_on(single.generate(*model_, subset, labels), labels);
  const double acc_multi =
      accuracy_on(multi.generate(*model_, subset, labels), labels);
  EXPECT_LE(acc_multi, acc_single + 0.05);
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

}  // namespace
}  // namespace zkg::attacks
