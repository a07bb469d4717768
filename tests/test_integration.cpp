// End-to-end integration tests: the full pipeline (generate -> preprocess ->
// train -> attack -> evaluate) at miniature scale, checking the *ordinal*
// claims the paper's evaluation rests on.
#include <gtest/gtest.h>

#include <compare>
#include <memory>
#include <ostream>

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
#include "nn/parameter.hpp"
#include "nn/sequential.hpp"
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

// The Figure 5 claim on counts a loaded machine cannot flake: classifier
// forward and backward passes, and optimizer updates, per training batch.

struct PassCounts {
  std::int64_t forwards = 0;
  std::int64_t backwards = 0;
  // Backwards run under nn::ParamGradOnly: no input gradient computed.
  std::int64_t param_only_backwards = 0;
};

/// Counts the passes through the layer it wraps (the test-side twin of
/// perfbench's TimedLayer).
class CountingLayer : public nn::Module {
 public:
  CountingLayer(nn::Module& inner, PassCounts& counts)
      : inner_(inner), counts_(counts) {}

  void forward_into(const Tensor& input, Tensor& out, bool training) override {
    ++counts_.forwards;
    inner_.forward_into(input, out, training);
  }
  void backward_into(const Tensor& grad_output, Tensor& grad_input) override {
    ++counts_.backwards;
    if (!nn::input_grads_enabled()) ++counts_.param_only_backwards;
    inner_.backward_into(grad_output, grad_input);
  }
  std::vector<nn::Parameter*> parameters() override {
    return inner_.parameters();
  }
  void collect_rngs(std::vector<Rng*>& out) override {
    inner_.collect_rngs(out);
  }
  std::string name() const override { return inner_.name(); }

 private:
  nn::Module& inner_;
  PassCounts& counts_;
};

/// The bench LeNet behind a Sequential of CountingLayers, one per layer.
class CountedLenet {
 public:
  CountedLenet() {
    Rng rng(5);
    base_ = std::make_unique<models::Classifier>(models::build_lenet(
        {1, 28, 28, 10}, models::Preset::kBench, rng));
    nn::Sequential& net = base_->net();
    counts_.resize(net.num_layers());
    nn::Sequential counted;
    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      counted.add(std::make_unique<CountingLayer>(net.layer(i), counts_[i]));
    }
    model_ = std::make_unique<models::Classifier>(
        base_->name(), base_->spec(), std::move(counted));
  }

  models::Classifier& model() { return *model_; }

  /// The network's passes, as layer 0 saw them. Every layer must have seen
  /// each one, and only layer 0 (LeNet's first layer with parameters) may
  /// skip its input gradient.
  PassCounts passes() const {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      EXPECT_EQ(counts_[i].forwards, counts_.front().forwards);
      EXPECT_EQ(counts_[i].backwards, counts_.front().backwards);
      if (i > 0) {
        EXPECT_EQ(counts_[i].param_only_backwards, 0) << "layer " << i;
      }
    }
    return counts_.front();
  }

 private:
  std::unique_ptr<models::Classifier> base_;
  std::vector<PassCounts> counts_;
  std::unique_ptr<models::Classifier> model_;
};

/// Per-batch cost of one defense's training step, ordered by classifier
/// work first: forwards, backwards, then the two players' updates.
struct StepCost {
  std::int64_t forwards = 0;
  std::int64_t backwards = 0;
  std::int64_t classifier_updates = 0;
  std::int64_t discriminator_updates = 0;

  auto operator<=>(const StepCost&) const = default;
};

std::ostream& operator<<(std::ostream& os, const StepCost& cost) {
  return os << "{fwd " << cost.forwards << ", bwd " << cost.backwards
            << ", C updates " << cost.classifier_updates << ", D updates "
            << cost.discriminator_updates << "}";
}

constexpr std::int64_t kCountedBatches = 3;
constexpr std::int64_t kCountedBatchSize = 16;

defense::TrainConfig pass_count_config(std::int64_t disc_steps) {
  defense::TrainConfig config;
  config.epochs = 1;
  config.batch_size = kCountedBatchSize;
  config.disc_steps = disc_steps;
  config.attack = {.epsilon = 0.3f, .step_size = 0.1f, .iterations = 3,
                   .restarts = 2};
  return config;
}

const data::Dataset& pass_count_data() {
  static const data::Dataset train = [] {
    Rng rng(17);
    return data::scale_pixels(
        data::make_synth_digits(kCountedBatches * kCountedBatchSize, rng));
  }();
  return train;
}

StepCost step_cost(defense::DefenseId id, const defense::TrainConfig& config) {
  CountedLenet lenet;
  defense::TrainerPtr trainer =
      defense::make_trainer(id, lenet.model(), config);
  trainer->fit(pass_count_data());
  const PassCounts passes = lenet.passes();
  const ckpt::TrainState state = trainer->capture_state();
  EXPECT_EQ(passes.forwards % kCountedBatches, 0);
  EXPECT_EQ(passes.backwards % kCountedBatches, 0);
  // One training backward per batch, and it computes no image gradient;
  // every other backward is the attack's, which needs one.
  EXPECT_EQ(passes.param_only_backwards, kCountedBatches)
      << defense::defense_name(id);
  StepCost cost;
  cost.forwards = passes.forwards / kCountedBatches;
  cost.backwards = passes.backwards / kCountedBatches;
  cost.classifier_updates = state.optimizers.at(0).step_count / kCountedBatches;
  if (state.optimizers.size() > 1) {
    cost.discriminator_updates =
        state.optimizers.at(1).step_count / kCountedBatches;
  }
  return cost;
}

/// Passes of the training attack alone on one batch.
PassCounts pgd_passes(const defense::TrainConfig& config) {
  CountedLenet lenet;
  const data::Dataset& train = pass_count_data();
  const Tensor images = train.images.slice_rows(0, kCountedBatchSize);
  const std::vector<std::int64_t> labels(
      train.labels.begin(), train.labels.begin() + kCountedBatchSize);
  Rng rng(3);
  attacks::Pgd pgd(config.attack, rng);
  Tensor adv;
  pgd.generate_into(lenet.model(), images, labels, adv);
  return lenet.passes();
}

class DefensePassCounts : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DefensePassCounts, MatchAlgorithmsAndOrderFigure5) {
  using defense::DefenseId;
  const std::int64_t disc_steps = GetParam();
  const defense::TrainConfig config = pass_count_config(disc_steps);
  const PassCounts pgd = pgd_passes(config);
  // 3 iterations x 2 restarts, plus one loss forward per restart to keep
  // the stronger candidate.
  EXPECT_EQ(pgd.forwards, 3 * 2 + 2);
  EXPECT_EQ(pgd.backwards, 3 * 2);
  EXPECT_EQ(pgd.param_only_backwards, 0);  // the attack needs dL/dx

  const StepCost plain{1, 1, 1, 0};
  EXPECT_EQ(step_cost(DefenseId::kVanilla, config), plain);
  EXPECT_EQ(step_cost(DefenseId::kClp, config), plain);
  EXPECT_EQ(step_cost(DefenseId::kCls, config), plain);

  // Algorithm 1: C is frozen while D trains, so one training forward
  // serves every D update and the classifier update, whatever disc_steps.
  const StepCost zk = step_cost(DefenseId::kZkGanDef, config);
  EXPECT_EQ(zk, (StepCost{1, 1, 1, disc_steps}));

  // step_cost checks that one backward per batch is parameter-only, so
  // FGSM-Adv's second backward, and PGD's six, still produce the image
  // gradient the attack steps along.
  const StepCost fgsm_adv = step_cost(DefenseId::kFgsmAdv, config);
  EXPECT_EQ(fgsm_adv, (StepCost{2, 2, 1, 0}));
  const StepCost pgd_adv = step_cost(DefenseId::kPgdAdv, config);
  EXPECT_EQ(pgd_adv, (StepCost{pgd.forwards + 1, pgd.backwards + 1, 1, 0}));
  const StepCost pgd_gandef = step_cost(DefenseId::kPgdGanDef, config);
  EXPECT_EQ(pgd_gandef, (StepCost{pgd.forwards + 1, pgd.backwards + 1, 1,
                                  disc_steps}));

  // Figure 5's order. PGD-GanDef runs PGD-Adv's classifier passes and adds
  // the discriminator's updates on top.
  EXPECT_LE(zk, fgsm_adv);
  EXPECT_LT(fgsm_adv, pgd_adv);
  EXPECT_LT(pgd_adv, pgd_gandef);
}

INSTANTIATE_TEST_SUITE_P(Figure5, DefensePassCounts, ::testing::Values(1, 3),
                         [](const ::testing::TestParamInfo<std::int64_t>& p) {
                           return "disc_steps_" + std::to_string(p.param);
                         });

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
