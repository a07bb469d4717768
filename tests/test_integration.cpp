// End-to-end integration tests: the full pipeline (generate -> preprocess ->
// train -> attack -> evaluate) at miniature scale, checking the *ordinal*
// claims the paper's evaluation rests on.
#include <gtest/gtest.h>

#include "attacks/fgsm.hpp"
#include "attacks/pgd.hpp"
#include "ckpt/train_state.hpp"
#include "common/rng.hpp"
#include "data/preprocess.hpp"
#include "defense/registry.hpp"
#include "defense/zk_gandef.hpp"
#include "eval/evaluator.hpp"
#include "eval/experiments.hpp"
#include "models/lenet.hpp"
#include "tensor/ops.hpp"

namespace zkg {
namespace {

// One shared mini-experiment: Vanilla and ZK-GanDef trained from identical
// weights on the same data, evaluated against FGSM.
class MiniExperiment : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(2024);
    data::Dataset raw = data::make_synth_digits(1350, rng);
    const data::Dataset scaled = data::scale_pixels(raw);
    data::TrainTestSplit split = data::separate(scaled, 150, rng);
    test_ = new data::Dataset(std::move(split.test));

    defense::TrainConfig config;
    config.epochs = 15;
    config.batch_size = 64;
    config.gamma = 0.05f;

    Rng vanilla_rng(77);
    vanilla_ = new models::Classifier(models::build_lenet(
        {1, 28, 28, 10}, models::Preset::kBench, vanilla_rng));
    defense::make_trainer(defense::DefenseId::kVanilla, *vanilla_, config)
        ->fit(split.train);

    Rng zk_rng(77);
    defended_ = new models::Classifier(models::build_lenet(
        {1, 28, 28, 10}, models::Preset::kBench, zk_rng));
    defense::make_trainer(defense::DefenseId::kZkGanDef, *defended_, config)
        ->fit(split.train);
  }

  static void TearDownTestSuite() {
    delete vanilla_;
    delete defended_;
    delete test_;
    vanilla_ = defended_ = nullptr;
    test_ = nullptr;
  }

  static eval::Evaluation evaluate(models::Classifier& model) {
    attacks::Fgsm fgsm({.epsilon = 0.3f});
    return eval::Evaluator(150).evaluate(model, *test_, {&fgsm});
  }

  static models::Classifier* vanilla_;
  static models::Classifier* defended_;
  static data::Dataset* test_;
};

models::Classifier* MiniExperiment::vanilla_ = nullptr;
models::Classifier* MiniExperiment::defended_ = nullptr;
data::Dataset* MiniExperiment::test_ = nullptr;

TEST_F(MiniExperiment, BothModelsLearnTheCleanTask) {
  EXPECT_GT(evaluate(*vanilla_).clean_accuracy, 0.85);
  EXPECT_GT(evaluate(*defended_).clean_accuracy, 0.85);
}

TEST_F(MiniExperiment, VanillaCollapsesUnderFgsm) {
  EXPECT_LT(evaluate(*vanilla_).attack("FGSM").test_accuracy, 0.15);
}

TEST_F(MiniExperiment, ZkGanDefIsMoreRobustThanVanilla) {
  const double vanilla_acc =
      evaluate(*vanilla_).attack("FGSM").test_accuracy;
  const double defended_acc =
      evaluate(*defended_).attack("FGSM").test_accuracy;
  EXPECT_GT(defended_acc, vanilla_acc + 0.15)
      << "vanilla " << vanilla_acc << " vs ZK-GanDef " << defended_acc;
}

TEST_F(MiniExperiment, AttackSuccessRateConsistentWithAccuracy) {
  const eval::Evaluation eval = evaluate(*vanilla_);
  const auto& fgsm = eval.attack("FGSM");
  // success_rate counts flips among originally-correct examples, so high
  // clean accuracy + low adversarial accuracy implies a high success rate.
  EXPECT_GT(fgsm.success_rate, 0.8);
  EXPECT_LE(fgsm.perturbation.max_linf, 0.3f + 1e-5f);
}

TEST(TrainingTimeShape, ZeroKnowledgeIsCheaperThanPgdAdv) {
  // The Figure 5 claim at miniature scale: one epoch of ZK-GanDef costs
  // much less than one epoch of PGD-Adv (which pays for a k-step attack
  // per batch).
  Rng rng(31);
  data::Dataset raw = data::make_synth_digits(320, rng);
  const data::Dataset train = data::scale_pixels(raw);

  defense::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 64;
  config.attack = {.epsilon = 0.3f, .step_size = 0.06f, .iterations = 10,
                   .restarts = 1};

  Rng zk_rng(5);
  models::Classifier zk_model = models::build_lenet(
      {1, 28, 28, 10}, models::Preset::kBench, zk_rng);
  const defense::TrainResult zk_time =
      defense::make_trainer(defense::DefenseId::kZkGanDef, zk_model, config)
          ->fit(train);

  Rng pgd_rng(5);
  models::Classifier pgd_model = models::build_lenet(
      {1, 28, 28, 10}, models::Preset::kBench, pgd_rng);
  const defense::TrainResult pgd_time =
      defense::make_trainer(defense::DefenseId::kPgdAdv, pgd_model, config)
          ->fit(train);

  EXPECT_LT(zk_time.mean_epoch_seconds(),
            0.8 * pgd_time.mean_epoch_seconds());
}

TEST(CheckpointPipeline, TrainedDefenseSurvivesSaveLoad) {
  Rng rng(41);
  data::Dataset raw = data::make_synth_digits(300, rng);
  const data::Dataset train = data::scale_pixels(raw);

  Rng model_rng(6);
  models::Classifier model = models::build_lenet(
      {1, 28, 28, 10}, models::Preset::kBench, model_rng);
  defense::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 64;
  defense::ZkGanDefTrainer(model, config).fit(train);

  const std::string path = "/tmp/zkg_integration.zkgc";
  ckpt::TrainState state;
  state.model_params = model.net().state();
  ckpt::save_train_state(path, state);
  Rng other_rng(1234);
  models::Classifier restored = models::build_lenet(
      {1, 28, 28, 10}, models::Preset::kBench, other_rng);
  restored.net().load_state(ckpt::load_train_state(path).model_params);
  const Tensor probe = train.images.slice_rows(0, 16);
  Tensor trained_logits;
  Tensor restored_logits;
  model.forward_into(probe, trained_logits, false);
  restored.forward_into(probe, restored_logits, false);
  EXPECT_TRUE(trained_logits.equals(restored_logits));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zkg
