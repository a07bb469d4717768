// Defense-trainer tests: every trainer learns on a small dataset, the
// registry wiring is correct, and the ZK-GanDef minimax machinery behaves
// (discriminator learns, gamma=0 reduces to augmentation training).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "attacks/fgsm.hpp"
#include "common/rng.hpp"
#include "data/preprocess.hpp"
#include "defense/adv_training.hpp"
#include "defense/clp.hpp"
#include "defense/cls.hpp"
#include "defense/observer.hpp"
#include "defense/pgd_gandef.hpp"
#include "defense/registry.hpp"
#include "defense/vanilla.hpp"
#include "defense/zk_gandef.hpp"
#include "eval/metrics.hpp"
#include "models/lenet.hpp"
#include "models/session.hpp"
#include "obs/json.hpp"
#include "tensor/ops.hpp"

namespace zkg::defense {
namespace {

data::Dataset small_train_set(std::int64_t n = 800) {
  Rng rng(42);
  data::Dataset raw = data::make_synth_digits(n, rng);
  return data::scale_pixels(raw);
}

models::Classifier fresh_model(std::uint64_t seed = 7) {
  Rng rng(seed);
  return models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
}

TrainConfig quick_config(std::int64_t epochs = 4) {
  TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 64;
  config.lambda = 0.1f;
  config.gamma = 0.05f;
  config.attack = {.epsilon = 0.3f, .step_size = 0.15f, .iterations = 2,
                   .restarts = 1};
  return config;
}

TEST(Registry, NamesMatchPaper) {
  EXPECT_EQ(defense_name(DefenseId::kVanilla), "Vanilla");
  EXPECT_EQ(defense_name(DefenseId::kClp), "CLP");
  EXPECT_EQ(defense_name(DefenseId::kCls), "CLS");
  EXPECT_EQ(defense_name(DefenseId::kZkGanDef), "ZK-GanDef");
  EXPECT_EQ(defense_name(DefenseId::kFgsmAdv), "FGSM-Adv");
  EXPECT_EQ(defense_name(DefenseId::kPgdAdv), "PGD-Adv");
  EXPECT_EQ(defense_name(DefenseId::kPgdGanDef), "PGD-GanDef");
}

// The zero-knowledge defenses {CLP, CLS, ZK-GanDef} plus Vanilla are the
// four that train without adversarial examples.
TEST(Registry, GroupsPartitionTheSeven) {
  EXPECT_EQ(all_defenses().size(), 7u);
  EXPECT_EQ(full_knowledge_defenses().size(), 3u);
  for (const DefenseId id : full_knowledge_defenses()) {
    EXPECT_TRUE(is_full_knowledge(id));
  }
  const auto zero_knowledge =
      std::count_if(all_defenses().begin(), all_defenses().end(),
                    [](DefenseId id) { return !is_full_knowledge(id); });
  EXPECT_EQ(zero_knowledge, 4);
}

TEST(Registry, FactoryProducesMatchingTrainers) {
  models::Classifier model = fresh_model();
  for (const DefenseId id : all_defenses()) {
    const TrainerPtr trainer = make_trainer(id, model, quick_config());
    ASSERT_NE(trainer, nullptr);
    EXPECT_EQ(trainer->name(), defense_name(id));
  }
}

TEST(TrainResult, ConvergenceHelper) {
  TrainResult result;
  EXPECT_FALSE(result.converged());  // empty
  result.epochs.push_back({0, 2.0f, 0.0f, 1.0});
  result.epochs.push_back({1, 0.5f, 0.0f, 1.0});
  EXPECT_TRUE(result.converged());
  EXPECT_FLOAT_EQ(result.final_loss(), 0.5f);
  EXPECT_NEAR(result.mean_epoch_seconds(), 1.0, 1e-9);

  result.epochs.back().classifier_loss = 1.99f;
  EXPECT_FALSE(result.converged());  // < 10% improvement
  result.epochs.back().classifier_loss =
      std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(result.converged());  // diverged
}

TEST(TrainConfig, Validation) {
  models::Classifier model = fresh_model();
  TrainConfig bad = quick_config();
  bad.epochs = 0;
  EXPECT_THROW(VanillaTrainer(model, bad), InvalidArgument);
  bad = quick_config();
  bad.gamma = -1.0f;
  EXPECT_THROW(ZkGanDefTrainer(model, bad), InvalidArgument);
  bad = quick_config();
  bad.disc_steps = 0;
  EXPECT_THROW(ZkGanDefTrainer(model, bad), InvalidArgument);
}

TEST(TrainConfig, ValidateThrowsTypedConfigError) {
  EXPECT_NO_THROW(quick_config().validate());

  const auto expect_rejected = [](auto&& mutate) {
    TrainConfig bad = quick_config();
    mutate(bad);
    EXPECT_THROW(bad.validate(), ConfigError);
  };
  expect_rejected([](TrainConfig& c) { c.epochs = 0; });
  expect_rejected([](TrainConfig& c) { c.batch_size = 0; });
  expect_rejected([](TrainConfig& c) { c.learning_rate = 0.0f; });
  expect_rejected([](TrainConfig& c) { c.learning_rate = -0.1f; });
  expect_rejected([](TrainConfig& c) { c.sigma = -0.5f; });
  expect_rejected([](TrainConfig& c) { c.lambda = -0.1f; });
  expect_rejected([](TrainConfig& c) { c.gamma = 1.5f; });
  expect_rejected([](TrainConfig& c) { c.gamma = -0.01f; });
  expect_rejected([](TrainConfig& c) { c.disc_steps = 0; });
  expect_rejected([](TrainConfig& c) { c.disc_learning_rate = 0.0f; });
  expect_rejected([](TrainConfig& c) { c.attack.epsilon = -0.1f; });
  expect_rejected([](TrainConfig& c) { c.attack.step_size = 0.0f; });
  expect_rejected([](TrainConfig& c) { c.attack.iterations = 0; });
  expect_rejected([](TrainConfig& c) { c.attack.restarts = 0; });

  // ConfigError derives from InvalidArgument, so older catch sites hold.
  TrainConfig bad = quick_config();
  bad.learning_rate = -1.0f;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  // The boundary values are legal.
  TrainConfig edge = quick_config();
  edge.gamma = 0.0f;
  EXPECT_NO_THROW(edge.validate());
  edge.gamma = 1.0f;
  EXPECT_NO_THROW(edge.validate());
  edge.sigma = 0.0f;
  EXPECT_NO_THROW(edge.validate());
}

TEST(Registry, FactoryValidatesBeforeConstructing) {
  models::Classifier model = fresh_model();
  TrainConfig bad = quick_config();
  bad.learning_rate = 0.0f;
  for (const DefenseId id : all_defenses()) {
    EXPECT_THROW(make_trainer(id, model, bad), ConfigError)
        << defense_name(id);
  }
}

// Records every callback so the tests can assert the observer contract.
class RecordingObserver : public TrainObserver {
 public:
  void on_train_begin(const Trainer&) override { ++begins; }
  void on_batch_end(const Trainer&, std::int64_t epoch, std::int64_t batch,
                    const BatchStats& stats) override {
    ++batch_calls;
    last_epoch = epoch;
    last_batch = batch;
    last_batch_loss = stats.classifier_loss;
  }
  void on_epoch_end(const Trainer&, const EpochStats& stats) override {
    epoch_losses.push_back(stats.classifier_loss);
    epoch_batches.push_back(stats.batches);
  }
  void on_train_end(const Trainer&, const TrainResult& result) override {
    ++ends;
    final_epochs = static_cast<std::int64_t>(result.epochs.size());
  }

  int begins = 0;
  int ends = 0;
  int batch_calls = 0;
  std::int64_t last_epoch = -1;
  std::int64_t last_batch = -1;
  float last_batch_loss = 0.0f;
  std::int64_t final_epochs = 0;
  std::vector<float> epoch_losses;
  std::vector<std::int64_t> epoch_batches;
};

TEST(TrainObserver, ReceivesEveryCallbackInOrder) {
  const data::Dataset train = small_train_set(256);
  models::Classifier model = fresh_model();
  VanillaTrainer trainer(model, quick_config(2));
  RecordingObserver recorder;
  trainer.add_observer(&recorder);
  const TrainResult result = trainer.fit(train);

  const std::int64_t batches_per_epoch = 256 / 64;
  EXPECT_EQ(recorder.begins, 1);
  EXPECT_EQ(recorder.ends, 1);
  EXPECT_EQ(recorder.final_epochs, 2);
  EXPECT_EQ(recorder.batch_calls, 2 * batches_per_epoch);
  EXPECT_EQ(recorder.last_epoch, 1);
  EXPECT_EQ(recorder.last_batch, batches_per_epoch - 1);
  ASSERT_EQ(recorder.epoch_losses.size(), 2u);
  EXPECT_FLOAT_EQ(recorder.epoch_losses.back(), result.final_loss());
  EXPECT_EQ(recorder.epoch_batches.at(0), batches_per_epoch);
  ASSERT_EQ(result.epochs.size(), 2u);
  EXPECT_EQ(result.epochs.at(0).batches, batches_per_epoch);
}

TEST(TrainObserver, MultipleObserversAndClear) {
  const data::Dataset train = small_train_set(128);
  models::Classifier model = fresh_model();
  VanillaTrainer trainer(model, quick_config(1));
  RecordingObserver first;
  RecordingObserver second;
  trainer.add_observer(&first);
  trainer.add_observer(&second);
  trainer.fit(train);
  EXPECT_EQ(first.begins, 1);
  EXPECT_EQ(second.begins, 1);

  trainer.clear_observers();
  trainer.fit(train);
  EXPECT_EQ(first.begins, 1);  // no further callbacks after clear
  EXPECT_EQ(second.begins, 1);

  EXPECT_THROW(trainer.add_observer(nullptr), InvalidArgument);
}

TEST(TrainObserver, ConsoleProgressObserverPrintsPerEpoch) {
  const data::Dataset train = small_train_set(128);
  models::Classifier model = fresh_model();
  VanillaTrainer trainer(model, quick_config(1));
  ConsoleProgressObserver progress;
  trainer.add_observer(&progress);
  ::testing::internal::CaptureStderr();
  trainer.fit(train);
  const std::string output = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(output.find("Vanilla epoch 0"), std::string::npos) << output;
}

TEST(TrainObserver, TelemetryObserverBridgesToRegistry) {
  obs::Telemetry telemetry;  // private registry: no global state involved
  const data::Dataset train = small_train_set(128);
  models::Classifier model = fresh_model();
  VanillaTrainer trainer(model, quick_config(2));
  TelemetryObserver bridge(telemetry);
  trainer.add_observer(&bridge);
  trainer.fit(train);

  EXPECT_EQ(telemetry.counter("train.runs").value(), 1u);
  EXPECT_EQ(telemetry.counter("train.epochs").value(), 2u);
  EXPECT_EQ(telemetry.counter("train.batches").value(),
            static_cast<std::uint64_t>(2 * (128 / 64)));
  EXPECT_GT(telemetry.gauge("train.epoch_seconds").value(), 0.0);
}

TEST(TrainObserver, JsonlObserverEmitsOneRecordPerEvent) {
  const data::Dataset train = small_train_set(128);
  models::Classifier model = fresh_model();
  VanillaTrainer trainer(model, quick_config(2));
  std::ostringstream out;
  JsonlTrainObserver recorder(out);
  trainer.add_observer(&recorder);
  trainer.fit(train);

  std::istringstream lines(out.str());
  std::string line;
  int begin_records = 0, epoch_records = 0, end_records = 0;
  while (std::getline(lines, line)) {
    const obs::Json record = obs::json_parse(line);
    const std::string type = record.at("type").as_string();
    EXPECT_EQ(record.at("defense").as_string(), "Vanilla");
    if (type == "train_begin") ++begin_records;
    if (type == "epoch") ++epoch_records;
    if (type == "train_end") ++end_records;
  }
  EXPECT_EQ(begin_records, 1);
  EXPECT_EQ(epoch_records, 2);
  EXPECT_EQ(end_records, 1);
}

class TrainerLearns : public ::testing::TestWithParam<DefenseId> {};

TEST_P(TrainerLearns, LossDecreasesAndCleanAccuracyRises) {
  const data::Dataset train = small_train_set();
  models::Classifier model = fresh_model();
  const TrainerPtr trainer = make_trainer(GetParam(), model, quick_config(8));
  const TrainResult result = trainer->fit(train);

  ASSERT_EQ(result.epochs.size(), 8u);
  EXPECT_LT(result.final_loss(), result.epochs.front().classifier_loss);
  EXPECT_TRUE(std::isfinite(result.final_loss()));
  // Better than random guessing on the training distribution. CLP/CLS train
  // exclusively on sigma=1 noise-destroyed inputs and are known-slow to
  // converge (paper SV-D) — they only need to beat the 10% chance level
  // here; everything else must be clearly learning.
  models::InferenceSession session(model);
  const double acc =
      eval::accuracy(session.predict(train.images.slice_rows(0, 200)),
                     {train.labels.begin(), train.labels.begin() + 200});
  const bool noisy_only =
      GetParam() == DefenseId::kClp || GetParam() == DefenseId::kCls;
  EXPECT_GT(acc, noisy_only ? 0.15 : 0.35) << trainer->name();
  EXPECT_GT(result.total_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllDefenses, TrainerLearns,
    ::testing::Values(DefenseId::kVanilla, DefenseId::kClp, DefenseId::kCls,
                      DefenseId::kZkGanDef, DefenseId::kFgsmAdv,
                      DefenseId::kPgdAdv, DefenseId::kPgdGanDef),
    [](const ::testing::TestParamInfo<DefenseId>& info) {
      std::string name = defense_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ZkGanDef, DiscriminatorLearnsToSeparateSources) {
  const data::Dataset train = small_train_set();
  models::Classifier model = fresh_model();
  TrainConfig config = quick_config(8);
  config.gamma = 0.0f;  // classifier never hides from D -> D should win
  ZkGanDefTrainer trainer(model, config);
  trainer.fit(train);
  // With sigma = 1 noise the perturbed logits are easily separable, so the
  // discriminator should do (much) better than chance on its last batch.
  EXPECT_GT(trainer.last_discriminator_accuracy(), 0.6f);
}

TEST(ZkGanDef, DiscriminatorAccuracyIsAValidRate) {
  const data::Dataset train = small_train_set(200);
  models::Classifier model = fresh_model();
  ZkGanDefTrainer trainer(model, quick_config(2));
  trainer.fit(train);
  EXPECT_GE(trainer.last_discriminator_accuracy(), 0.0f);
  EXPECT_LE(trainer.last_discriminator_accuracy(), 1.0f);
}

TEST(ZkGanDef, MultipleDiscriminatorStepsSupported) {
  const data::Dataset train = small_train_set(200);
  models::Classifier model = fresh_model();
  TrainConfig config = quick_config(2);
  config.disc_steps = 3;
  ZkGanDefTrainer trainer(model, config);
  const TrainResult result = trainer.fit(train);
  EXPECT_TRUE(std::isfinite(result.final_loss()));
}

TEST(ZkGanDef, GammaChangesTheTrainedModel) {
  const data::Dataset train = small_train_set(300);
  models::Classifier a = fresh_model(11);
  models::Classifier b = fresh_model(11);  // identical init

  TrainConfig config = quick_config(2);
  config.gamma = 0.0f;
  ZkGanDefTrainer(a, config).fit(train);
  config.gamma = 1.0f;
  ZkGanDefTrainer(b, config).fit(train);

  const Tensor probe = train.images.slice_rows(0, 8);
  Tensor ya;
  Tensor yb;
  a.forward_into(probe, ya, false);
  b.forward_into(probe, yb, false);
  EXPECT_FALSE(ya.allclose(yb));
}

TEST(ZkGanDef, DeterministicGivenSeed) {
  const data::Dataset train = small_train_set(200);
  models::Classifier a = fresh_model(11);
  models::Classifier b = fresh_model(11);
  ZkGanDefTrainer(a, quick_config(2)).fit(train);
  ZkGanDefTrainer(b, quick_config(2)).fit(train);
  const Tensor probe = train.images.slice_rows(0, 8);
  Tensor ya;
  Tensor yb;
  a.forward_into(probe, ya, false);
  b.forward_into(probe, yb, false);
  EXPECT_TRUE(ya.equals(yb));
}

// Exposes the classifier half of Algorithm 1 so a test can run it alone.
class ClassifierStepProbe : public ZkGanDefTrainer {
 public:
  using ZkGanDefTrainer::ZkGanDefTrainer;
  using GanDefTrainerBase::update_classifier;
};

TEST(ZkGanDef, ClassifierStepLeavesFrozenDiscriminatorGradients) {
  constexpr float kSentinel = -2.5f;
  const data::Dataset train = small_train_set(16);
  models::Classifier model = fresh_model();
  ClassifierStepProbe trainer(model, quick_config(1));
  std::vector<nn::Parameter*> d_params =
      trainer.discriminator().parameters();
  std::vector<Tensor> d_values;
  for (nn::Parameter* p : d_params) {
    p->grad().fill(kSentinel);
    d_values.push_back(p->value());
  }
  const Tensor classifier_before = model.parameters().front()->value();

  Tensor flags({train.size(), 1});
  for (std::int64_t i = train.size() / 2; i < train.size(); ++i) {
    flags[i] = 1.0f;
  }
  Tensor logits;
  model.forward_into(train.images, logits, /*training=*/true);
  const float ce = trainer.update_classifier(logits, train.labels, flags);
  EXPECT_TRUE(std::isfinite(ce));
  EXPECT_FALSE(model.parameters().front()->value().equals(classifier_before));
  for (std::size_t i = 0; i < d_params.size(); ++i) {
    EXPECT_TRUE(
        d_params[i]->grad().equals(Tensor(d_params[i]->grad().shape(),
                                          kSentinel)))
        << d_params[i]->name();
    EXPECT_TRUE(d_params[i]->value().equals(d_values[i]))
        << d_params[i]->name();
  }
}

TEST(Clp, SingleExampleBatchIsSkippedGracefully) {
  // A batch of one cannot be paired; the trainer must not crash.
  Rng rng(1);
  data::Dataset raw = data::make_synth_digits(65, rng);  // 64 + 1 leftover
  const data::Dataset train = data::scale_pixels(raw);
  models::Classifier model = fresh_model();
  ClpTrainer trainer(model, quick_config(1));
  EXPECT_NO_THROW(trainer.fit(train));
}

TEST(AdversarialTrainer, RequiresAttack) {
  models::Classifier model = fresh_model();
  EXPECT_THROW(
      AdversarialTrainer(model, quick_config(), nullptr, "broken"),
      InvalidArgument);
}

TEST(FgsmAdv, BecomesRobustToItsTrainingAttack) {
  const data::Dataset train = small_train_set(1200);
  models::Classifier vanilla_model = fresh_model(3);
  models::Classifier robust_model = fresh_model(3);

  TrainConfig config = quick_config(10);
  config.attack = {.epsilon = 0.3f, .step_size = 0.3f, .iterations = 1,
                   .restarts = 1};
  VanillaTrainer(vanilla_model, config).fit(train);
  make_trainer(DefenseId::kFgsmAdv, robust_model, config)->fit(train);

  attacks::Fgsm fgsm({.epsilon = 0.3f});
  const Tensor probe = train.images.slice_rows(0, 100);
  const std::vector<std::int64_t> labels(train.labels.begin(),
                                         train.labels.begin() + 100);
  models::InferenceSession vanilla_session(vanilla_model);
  models::InferenceSession robust_session(robust_model);
  const double vanilla_acc = eval::accuracy(
      vanilla_session.predict(fgsm.generate(vanilla_model, probe, labels)),
      labels);
  const double robust_acc = eval::accuracy(
      robust_session.predict(fgsm.generate(robust_model, probe, labels)),
      labels);
  EXPECT_GT(robust_acc, vanilla_acc + 0.2);
}

TEST(Trainers, FitEpochExposesPerEpochTiming) {
  const data::Dataset train = small_train_set(200);
  models::Classifier model = fresh_model();
  VanillaTrainer trainer(model, quick_config(1));
  Rng rng(1);
  data::Batcher batcher(train, 64, rng);
  const EpochStats stats = trainer.fit_epoch(batcher, 3);
  EXPECT_EQ(stats.epoch, 3);
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GT(stats.classifier_loss, 0.0f);
}

}  // namespace
}  // namespace zkg::defense
