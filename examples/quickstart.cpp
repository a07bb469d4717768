// Quickstart: train a ZK-GanDef-defended classifier and check its robustness
// against a white-box FGSM adversary — the minimal end-to-end tour of the
// public API.
//
//   $ ./examples/quickstart
//
// Steps: generate data -> preprocess -> train -> attack -> evaluate.
#include <iostream>

#include "attacks/fgsm.hpp"
#include "common/rng.hpp"
#include "data/preprocess.hpp"
#include "defense/observer.hpp"
#include "defense/vanilla.hpp"
#include "defense/zk_gandef.hpp"
#include "eval/evaluator.hpp"
#include "models/lenet.hpp"

int main() {
  using namespace zkg;

  // 1. Data: a synthetic MNIST-like dataset, scaled to [-1, 1] and split.
  Rng rng(42);
  data::Dataset raw = data::make_synth_digits(/*num_samples=*/1400, rng);
  const data::Dataset scaled = data::scale_pixels(raw);
  const data::TrainTestSplit split = data::separate(scaled, /*test=*/200, rng);

  // 2. Model: a small LeNet-style CNN.
  models::Classifier model =
      models::build_lenet(models::InputSpec{1, 28, 28, 10},
                          models::Preset::kBench, rng);
  std::cout << model.net().summary();

  // 3. Defense: ZK-GanDef — zero-knowledge adversarial training. No
  //    adversarial examples are generated at any point during training.
  defense::TrainConfig config;
  config.epochs = 18;
  config.batch_size = 64;
  config.gamma = 0.05f;
  defense::ZkGanDefTrainer trainer(model, config);

  // Progress reporting is observer-based: attach as many as you like
  // (console progress, telemetry bridge, JSONL recorder, your own).
  defense::ConsoleProgressObserver progress;
  trainer.add_observer(&progress);
  const defense::TrainResult result = trainer.fit(split.train);
  std::cout << "trained " << result.epochs.size() << " epochs in "
            << result.total_seconds << "s (mean "
            << result.mean_epoch_seconds() << "s/epoch)\n";

  // 4. Baseline for comparison: an undefended (Vanilla) classifier trained
  //    from the same initial weights.
  Rng baseline_rng(42);
  data::Dataset baseline_raw = data::make_synth_digits(1400, baseline_rng);
  models::Classifier vanilla =
      models::build_lenet(models::InputSpec{1, 28, 28, 10},
                          models::Preset::kBench, baseline_rng);
  defense::VanillaTrainer(vanilla, config).fit(split.train);

  // 5. Attack + evaluate: white-box FGSM (eps = 0.3 on the [-1, 1] scale,
  //    the bench-preset budget; the paper uses 0.6 at full training scale).
  attacks::Fgsm fgsm(attacks::AttackBudget{.epsilon = 0.3f});
  const eval::Evaluator evaluator;
  const eval::Evaluation defended = evaluator.evaluate(model, split.test, {&fgsm});
  const eval::Evaluation undefended =
      evaluator.evaluate(vanilla, split.test, {&fgsm});

  std::cout << "                     Vanilla    ZK-GanDef\n"
            << "clean test accuracy: "
            << undefended.clean_accuracy * 100 << "%     "
            << defended.clean_accuracy * 100 << "%\n"
            << "FGSM test accuracy:  "
            << undefended.attack("FGSM").test_accuracy * 100 << "%        "
            << defended.attack("FGSM").test_accuracy * 100 << "%\n"
            << "(zero-knowledge training buys robustness the undefended "
               "model has none of;\n see `paper table3-digits` for the full "
               "paper comparison)\n";
  return 0;
}
