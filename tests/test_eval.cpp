// Evaluation-layer tests: metrics, the batched evaluator and the experiment
// scaffolding (scales, presets, result tables).
#include <gtest/gtest.h>

#include <cstdlib>

#include "attacks/fgsm.hpp"
#include "attacks/noise.hpp"
#include "common/rng.hpp"
#include "data/preprocess.hpp"
#include "eval/evaluator.hpp"
#include "eval/experiments.hpp"
#include "eval/metrics.hpp"
#include "models/lenet.hpp"
#include "tensor/ops.hpp"

namespace zkg::eval {
namespace {

TEST(Accuracy, CountsMatches) {
  EXPECT_DOUBLE_EQ(accuracy({1, 2, 3}, {1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy({1, 2, 3}, {1, 0, 0}), 1.0 / 3.0);
  EXPECT_THROW(accuracy({1}, {1, 2}), InvalidArgument);
  EXPECT_THROW(accuracy({}, {}), InvalidArgument);
}

TEST(PerturbationStats, KnownDeltas) {
  const Tensor original({2, 2}, std::vector<float>{0, 0, 0, 0});
  const Tensor adv({2, 2}, std::vector<float>{0.1f, -0.2f, 0.3f, 0.4f});
  const PerturbationStats stats = perturbation_stats(original, adv);
  EXPECT_NEAR(stats.max_linf, 0.4f, 1e-6f);
  EXPECT_NEAR(stats.mean_linf, (0.2f + 0.4f) / 2.0f, 1e-6f);
  const float l2_row0 = std::sqrt(0.01f + 0.04f);
  const float l2_row1 = std::sqrt(0.09f + 0.16f);
  EXPECT_NEAR(stats.mean_l2, (l2_row0 + l2_row1) / 2.0f, 1e-5f);
}

TEST(AttackSuccessRate, OnlyCountsOriginallyCorrect) {
  // labels    : 0 1 2 3
  // clean pred: 0 1 0 3  (2 misclassified -> excluded)
  // adv pred  : 1 1 0 0  (of the 3 correct ones, #0 and #3 flipped)
  EXPECT_DOUBLE_EQ(
      attack_success_rate({0, 1, 2, 3}, {0, 1, 0, 3}, {1, 1, 0, 0}),
      2.0 / 3.0);
  EXPECT_DOUBLE_EQ(attack_success_rate({0}, {1}, {1}), 0.0);  // empty base
}

TEST(Evaluator, CleanAccuracyOnTrainedModel) {
  Rng rng(1);
  data::Dataset raw = data::make_synth_digits(60, rng);
  const data::Dataset test = data::scale_pixels(raw);
  Rng model_rng(2);
  models::Classifier model = models::build_lenet(
      {1, 28, 28, 10}, models::Preset::kBench, model_rng);
  const Evaluator evaluator(16);  // force multiple batches
  const double acc = evaluator.evaluate(model, test, {}).clean_accuracy;
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(Evaluator, BatchedAndUnbatchedAgree) {
  Rng rng(3);
  data::Dataset raw = data::make_synth_digits(50, rng);
  const data::Dataset test = data::scale_pixels(raw);
  Rng model_rng(4);
  models::Classifier model = models::build_lenet(
      {1, 28, 28, 10}, models::Preset::kBench, model_rng);
  const double small = Evaluator(7).evaluate(model, test, {}).clean_accuracy;
  const double large = Evaluator(1000).evaluate(model, test, {}).clean_accuracy;
  EXPECT_DOUBLE_EQ(small, large);
}

TEST(Evaluator, ReportsPerAttackEntries) {
  Rng rng(5);
  data::Dataset raw = data::make_synth_digits(40, rng);
  const data::Dataset test = data::scale_pixels(raw);
  Rng model_rng(6);
  models::Classifier model = models::build_lenet(
      {1, 28, 28, 10}, models::Preset::kBench, model_rng);
  attacks::Fgsm fgsm({.epsilon = 0.2f});
  Rng noise_rng(7);
  attacks::GaussianNoise noise({.epsilon = 0.2f}, 0.5f, noise_rng);
  const Evaluation eval =
      Evaluator(16).evaluate(model, test, {&fgsm, &noise});
  ASSERT_EQ(eval.attacks.size(), 2u);
  EXPECT_EQ(eval.attack("FGSM").attack_name, "FGSM");
  EXPECT_LE(eval.attack("FGSM").perturbation.max_linf, 0.2f + 1e-5f);
  EXPECT_GT(eval.attack("GaussianNoise").perturbation.mean_l2, 0.0f);
  EXPECT_THROW(eval.attack("PGD"), InvalidArgument);
}

TEST(ExperimentScale, BenchDefaults) {
  ::unsetenv("ZKG_PRESET");
  ::unsetenv("ZKG_TRAIN");
  ::unsetenv("ZKG_EPOCHS");
  const ExperimentScale digits = scale_for(data::DatasetId::kDigits);
  EXPECT_EQ(digits.model_preset, models::Preset::kBench);
  EXPECT_NEAR(digits.fgsm.epsilon, 0.3f, 1e-6f);
  const ExperimentScale objects = scale_for(data::DatasetId::kObjects);
  EXPECT_NEAR(objects.fgsm.epsilon, 0.06f, 1e-6f);
  EXPECT_NEAR(objects.bim.step_size, 0.016f, 1e-6f);
}

TEST(ExperimentScale, PaperPresetMatchesPublishedBudgets) {
  ::setenv("ZKG_PRESET", "paper", 1);
  const ExperimentScale digits = scale_for(data::DatasetId::kDigits);
  EXPECT_EQ(digits.model_preset, models::Preset::kPaper);
  EXPECT_NEAR(digits.fgsm.epsilon, 0.6f, 1e-6f);
  EXPECT_EQ(digits.pgd.iterations, 40);
  EXPECT_NEAR(digits.pgd.step_size, 0.02f, 1e-6f);
  EXPECT_NEAR(digits.lambda, 0.4f, 1e-6f);
  EXPECT_NEAR(digits.input_dropout, 0.2f, 1e-6f);
  const ExperimentScale objects = scale_for(data::DatasetId::kObjects);
  EXPECT_EQ(objects.pgd.iterations, 20);
  EXPECT_NEAR(objects.pgd.step_size, 0.016f, 1e-6f);
  ::unsetenv("ZKG_PRESET");
}

TEST(ExperimentScale, EnvOverrides) {
  ::setenv("ZKG_TRAIN", "123", 1);
  ::setenv("ZKG_EPOCHS", "5", 1);
  const ExperimentScale scale = scale_for(data::DatasetId::kDigits);
  EXPECT_EQ(scale.train_samples, 123);
  EXPECT_EQ(scale.epochs, 5);
  ::unsetenv("ZKG_TRAIN");
  ::unsetenv("ZKG_EPOCHS");
}

TEST(Experiments, PrepareDataShapesAndScaling) {
  ExperimentScale scale = scale_for(data::DatasetId::kDigits);
  scale.train_samples = 90;
  scale.test_samples = 30;
  Rng rng(11);
  const PreparedData data = prepare_data(data::DatasetId::kDigits, scale, rng);
  EXPECT_EQ(data.train.size(), 90);
  EXPECT_EQ(data.test.size(), 30);
  EXPECT_GE(min_value(data.train.images), data::kPixelMin);
  EXPECT_LE(max_value(data.train.images), data::kPixelMax);
}

TEST(Experiments, BuildModelMatchesDataset) {
  const ExperimentScale scale = scale_for(data::DatasetId::kObjects);
  Rng rng(12);
  models::Classifier objects =
      build_model_for(data::DatasetId::kObjects, scale, rng);
  EXPECT_EQ(objects.spec().channels, 3);
  models::Classifier digits =
      build_model_for(data::DatasetId::kDigits, scale_for(data::DatasetId::kDigits), rng);
  EXPECT_EQ(digits.spec().channels, 1);
}

Table3Result synthetic_table3() {
  Table3Result result;
  result.dataset = data::DatasetId::kDigits;
  result.rows.push_back({defense::DefenseId::kVanilla, "Vanilla", 0.99, 0.10,
                         0.01, 0.01, 1.0, 0.1f, true});
  result.rows.push_back({defense::DefenseId::kCls, "CLS", 0.95, 0.50, 0.40,
                         0.35, 1.1, 0.2f, true});
  result.rows.push_back({defense::DefenseId::kZkGanDef, "ZK-GanDef", 0.97,
                         0.80, 0.70, 0.65, 3.0, 0.3f, true});
  result.rows.push_back({defense::DefenseId::kPgdAdv, "PGD-Adv", 0.96, 0.90,
                         0.85, 0.86, 6.0, 0.2f, true});
  return result;
}

TEST(Table3Result, RowLookupAndTables) {
  const Table3Result result = synthetic_table3();
  EXPECT_EQ(result.row(defense::DefenseId::kCls).name, "CLS");
  EXPECT_THROW(result.row(defense::DefenseId::kClp), InvalidArgument);
  const Table accuracy = result.accuracy_table();
  EXPECT_EQ(accuracy.num_rows(), 4u);
  EXPECT_EQ(accuracy.num_cols(), 6u);
  const Table series = result.figure4_series();
  EXPECT_EQ(series.num_rows(), 4u);
}

TEST(Table3Result, HeadlineSummaryComputesGainAndGap) {
  const Table3Result result = synthetic_table3();
  const std::string headline = result.headline_summary();
  // Signed gap to CLS, the only zero-knowledge row, per column: ZK - CLS.
  EXPECT_NE(headline.find("FGSM +30.00%, BIM +30.00%, PGD +30.00%"),
            std::string::npos)
      << headline;
  // Gap to PGD-Adv: max of (0.90-0.80, 0.85-0.70, 0.86-0.65) = 21%.
  EXPECT_NE(headline.find("21.00%"), std::string::npos) << headline;
}

TEST(Table3Result, HeadlineSummaryPrintsNegativeGapWhenZkTrails) {
  Table3Result result = synthetic_table3();
  // CLP beats ZK-GanDef (0.80/0.70/0.65) on FGSM and PGD, not on BIM; each
  // column compares against the better of CLP and CLS.
  result.rows.push_back({defense::DefenseId::kClp, "CLP", 0.95, 0.85, 0.60,
                         0.70, 1.2, 0.2f, true});
  const std::string headline = result.headline_summary();
  EXPECT_NE(headline.find("FGSM -5.00%, BIM +10.00%, PGD -5.00%"),
            std::string::npos)
      << headline;
}

TEST(Table3Result, HeadlineWithoutZkRow) {
  Table3Result result;
  result.rows.push_back({defense::DefenseId::kVanilla, "Vanilla", 0.99, 0.10,
                         0.01, 0.01, 1.0, 0.1f, true});
  EXPECT_EQ(result.headline_summary(), "(no ZK-GanDef row)");
}

}  // namespace
}  // namespace zkg::eval
