#include "eval/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "attacks/cw.hpp"
#include "attacks/deepfool.hpp"
#include "attacks/pgd.hpp"
#include "common/env.hpp"
#include "data/preprocess.hpp"
#include "defense/cls.hpp"
#include "defense/zk_gandef.hpp"
#include "eval/scheduler.hpp"
#include "models/allcnn.hpp"
#include "models/lenet.hpp"

namespace zkg::eval {
namespace {

bool paper_preset_requested() {
  return env_or("ZKG_PRESET", "bench") == "paper";
}

attacks::AttackBudget budget(float eps, float step, std::int64_t iters,
                             std::int64_t restarts = 1) {
  attacks::AttackBudget b;
  b.epsilon = eps;
  b.step_size = step;
  b.iterations = iters;
  b.restarts = restarts;
  return b;
}

}  // namespace

defense::TrainConfig base_train_config(const ExperimentScale& scale,
                                       std::uint64_t seed) {
  defense::TrainConfig config;
  config.epochs = scale.epochs;
  config.batch_size = scale.batch_size;
  config.sigma = scale.sigma;
  config.lambda = scale.lambda;
  config.gamma = scale.gamma;
  config.attack = scale.train_attack;
  config.seed = seed + 17;
  return config;
}

ExperimentScale scale_for(data::DatasetId id) {
  const bool paper = paper_preset_requested();
  ExperimentScale s;
  s.model_preset = paper ? models::Preset::kPaper : models::Preset::kBench;
  if (paper) {
    s.lambda = 0.4f;         // Kannan et al.'s published value
    s.gamma = 0.1f;          // line-searched at paper scale
    s.input_dropout = 0.2f;  // allCNN as published
  }

  if (id == data::DatasetId::kObjects) {
    // CIFAR10-like: eps 0.06, BIM step 0.016, PGD 20 x 0.016 (paper §IV-C).
    if (paper) {
      s.train_samples = 50000;
      s.test_samples = 10000;
      s.epochs = 300;
      s.batch_size = 128;
      s.fgsm = budget(0.06f, 0.06f, 1);
      s.bim = budget(0.06f, 0.016f, 8);
      s.pgd = budget(0.06f, 0.016f, 20);
      s.train_attack = budget(0.06f, 0.016f, 20);
    } else {
      s.train_samples = 1000;
      s.test_samples = 150;
      s.epochs = 10;
      s.batch_size = 64;
      s.eval_batch = 50;
      s.generalizability_samples = 100;
      s.fgsm = budget(0.06f, 0.06f, 1);
      s.bim = budget(0.06f, 0.016f, 8);
      s.pgd = budget(0.06f, 0.012f, 8);
      s.train_attack = budget(0.06f, 0.03f, 4);
    }
  } else {
    // MNIST/Fashion-like (paper §IV-C): eps 0.6, BIM step 0.1, PGD 40x0.02.
    // The bench preset halves epsilon to 0.3: at a few hundred gradient
    // updates the noise->adversarial transfer that the paper observes after
    // tens of thousands of updates only manifests inside a smaller ball
    // (EXPERIMENTS.md, "scaling notes").
    if (paper) {
      s.train_samples = 60000;
      s.test_samples = 10000;
      s.epochs = 80;
      s.batch_size = 128;
      s.fgsm = budget(0.6f, 0.6f, 1);
      s.bim = budget(0.6f, 0.1f, 10);
      s.pgd = budget(0.6f, 0.02f, 40);
      s.train_attack = budget(0.6f, 0.02f, 40);
    } else {
      s.train_samples = 1600;
      s.test_samples = 250;
      s.epochs = 20;
      s.batch_size = 64;
      s.fgsm = budget(0.3f, 0.3f, 1);
      s.bim = budget(0.3f, 0.05f, 10);
      s.pgd = budget(0.3f, 0.06f, 10);
      s.train_attack = budget(0.3f, 0.12f, 5);
    }
  }

  s.train_samples = env_or_int("ZKG_TRAIN", s.train_samples);
  s.test_samples = env_or_int("ZKG_TEST", s.test_samples);
  s.epochs = env_or_int("ZKG_EPOCHS", s.epochs);
  return s;
}

PreparedData prepare_data(data::DatasetId id, const ExperimentScale& scale,
                          Rng& rng) {
  const std::int64_t total = scale.train_samples + scale.test_samples;
  data::Dataset raw = data::make_dataset(id, total, rng);
  const data::Dataset scaled = data::scale_pixels(raw);
  data::TrainTestSplit split =
      data::separate(scaled, scale.test_samples, rng);
  return {std::move(split.train), std::move(split.test)};
}

models::Classifier build_model_for(data::DatasetId id,
                                   const ExperimentScale& scale, Rng& rng) {
  if (id == data::DatasetId::kObjects) {
    const models::InputSpec spec{3, 32, 32, 10};
    return models::build_allcnn(spec, scale.model_preset, rng,
                                scale.input_dropout);
  }
  const models::InputSpec spec{1, 28, 28, 10};
  return models::build_lenet(spec, scale.model_preset, rng);
}

// ---------------------------------------------------------------- Table III

const DefenseRun& Table3Result::row(defense::DefenseId id) const {
  for (const DefenseRun& r : rows) {
    if (r.id == id) return r;
  }
  throw InvalidArgument("no Table3 row for defense " +
                        defense::defense_name(id));
}

Table Table3Result::accuracy_table() const {
  Table table({"Defense", "Original", "FGSM", "BIM", "PGD", "s/epoch"});
  for (const DefenseRun& r : rows) {
    table.add_row({r.name, Table::percent(r.acc_original),
                   Table::percent(r.acc_fgsm), Table::percent(r.acc_bim),
                   Table::percent(r.acc_pgd),
                   Table::fixed(r.seconds_per_epoch, 2)});
  }
  return table;
}

Table Table3Result::figure4_series() const {
  Table table({"Series", "x=Original", "x=FGSM", "x=BIM", "x=PGD"});
  for (const DefenseRun& r : rows) {
    table.add_row({r.name, Table::percent(r.acc_original),
                   Table::percent(r.acc_fgsm), Table::percent(r.acc_bim),
                   Table::percent(r.acc_pgd)});
  }
  return table;
}

std::string Table3Result::headline_summary() const {
  const auto find = [this](defense::DefenseId id) -> const DefenseRun* {
    for (const DefenseRun& r : rows) {
      if (r.id == id) return &r;
    }
    return nullptr;
  };
  const DefenseRun* zk = find(defense::DefenseId::kZkGanDef);
  if (zk == nullptr) return "(no ZK-GanDef row)";

  std::ostringstream out;
  const auto adv_cols = [](const DefenseRun& r) {
    return std::vector<double>{r.acc_fgsm, r.acc_bim, r.acc_pgd};
  };

  double best_gain = 0.0;
  for (const defense::DefenseId id :
       {defense::DefenseId::kClp, defense::DefenseId::kCls}) {
    if (const DefenseRun* r = find(id)) {
      const auto zk_cols = adv_cols(*zk);
      const auto other = adv_cols(*r);
      for (std::size_t c = 0; c < zk_cols.size(); ++c) {
        best_gain = std::max(best_gain, zk_cols[c] - other[c]);
      }
    }
  }
  double worst_gap = 0.0;
  for (const defense::DefenseId id : defense::full_knowledge_defenses()) {
    if (const DefenseRun* r = find(id)) {
      const auto zk_cols = adv_cols(*zk);
      const auto other = adv_cols(*r);
      for (std::size_t c = 0; c < zk_cols.size(); ++c) {
        worst_gap = std::max(worst_gap, other[c] - zk_cols[c]);
      }
    }
  }
  out << "ZK-GanDef adversarial-accuracy gain over best zero-knowledge "
         "baseline: up to "
      << Table::percent(best_gain)
      << "; worst gap to full-knowledge defenses: "
      << Table::percent(worst_gap);
  return out.str();
}

namespace {

/// Trains one run_sweep cell per defense on (id, seed) and returns their
/// rows in `defenses` order; a failed cell throws, since a paper table with
/// a missing row is not that table.
std::vector<DefenseRun> sweep_defenses(
    data::DatasetId id, const std::vector<defense::DefenseId>& defenses,
    std::uint64_t seed, const SweepOptions& options) {
  std::vector<SweepCell> cells;
  cells.reserve(defenses.size());
  for (const defense::DefenseId defense_id : defenses) {
    cells.push_back(SweepCell{defense_id, id, seed});
  }
  std::vector<DefenseRun> rows;
  for (const SweepRun& run : run_sweep(cells, options)) {
    if (!run.ok) {
      throw Error("sweep cell " + run.name + " failed: " + run.error);
    }
    rows.push_back(run.run);
  }
  return rows;
}

}  // namespace

Table3Result run_table3(data::DatasetId id,
                        const std::vector<defense::DefenseId>& defenses,
                        std::uint64_t seed, unsigned jobs) {
  SweepOptions options;
  options.jobs = jobs;
  return Table3Result{id, sweep_defenses(id, defenses, seed, options)};
}

// ----------------------------------------------------------------- Table IV

Table4Row run_table4(data::DatasetId id, std::uint64_t seed) {
  const ExperimentScale scale = scale_for(id);
  Rng data_rng(seed);
  const PreparedData data = prepare_data(id, scale, data_rng);

  Rng model_rng(seed ^ 0x6d0de1ULL);
  models::Classifier model = build_model_for(id, scale, model_rng);

  const defense::TrainConfig config = base_train_config(scale, seed);
  defense::ZkGanDefTrainer trainer(model, config);
  trainer.fit(data.train);

  // Evaluate on a subset: DeepFool's per-class gradients are the costly
  // part (see DESIGN.md §5 on scaling).
  const std::int64_t subset =
      std::min<std::int64_t>(scale.generalizability_samples,
                             data.test.size());
  std::vector<std::int64_t> indices(static_cast<std::size_t>(subset));
  for (std::int64_t i = 0; i < subset; ++i) {
    indices[static_cast<std::size_t>(i)] = i;
  }
  const data::Dataset test_subset = data.test.subset(indices);

  // Same budget as PGD (paper §V-B).
  attacks::DeepFool deepfool(scale.pgd);
  attacks::CarliniWagner cw(scale.pgd, /*kappa=*/0.0f,
                            /*adam_lr=*/scale.pgd.epsilon / 4.0f);
  const Evaluator evaluator(scale.eval_batch);
  const Evaluation eval =
      evaluator.evaluate(model, test_subset, {&deepfool, &cw});

  Table4Row row;
  row.dataset = id;
  row.clean_accuracy = eval.clean_accuracy;
  row.deepfool_accuracy = eval.attack("DeepFool").test_accuracy;
  row.cw_accuracy = eval.attack("CW").test_accuracy;
  return row;
}

// ------------------------------------------------- Figure 5 (left / middle)

std::vector<TrainingTimeRow> run_training_time(data::DatasetId id,
                                               std::uint64_t seed,
                                               const SweepOptions& options) {
  SweepOptions train_only = options;
  train_only.evaluate = false;
  std::vector<TrainingTimeRow> rows;
  for (const DefenseRun& run : sweep_defenses(
           id,
           {defense::DefenseId::kZkGanDef, defense::DefenseId::kFgsmAdv,
            defense::DefenseId::kPgdAdv, defense::DefenseId::kPgdGanDef},
           seed, train_only)) {
    rows.push_back({run.name, run.seconds_per_epoch});
  }
  return rows;
}

// -------------------------------------------------------- Figure 5 (right)

std::vector<LossCurve> run_cls_convergence(data::DatasetId id,
                                           std::uint64_t seed,
                                           std::int64_t epochs) {
  ExperimentScale scale = scale_for(id);
  scale.epochs = epochs;
  Rng data_rng(seed);
  const PreparedData data = prepare_data(id, scale, data_rng);

  // The paper's four settings (§V-D): (sigma, lambda).
  const std::vector<std::pair<float, float>> settings = {
      {1.0f, 0.4f}, {1.0f, 0.01f}, {0.1f, 0.4f}, {0.1f, 0.01f}};

  std::vector<LossCurve> curves;
  for (const auto& [sigma, lambda] : settings) {
    Rng model_rng(seed ^ 0x6d0de1ULL);
    models::Classifier model = build_model_for(id, scale, model_rng);

    defense::TrainConfig config = base_train_config(scale, seed);
    config.sigma = sigma;
    config.lambda = lambda;
    defense::ClsTrainer trainer(model, config);
    const defense::TrainResult train = trainer.fit(data.train);

    LossCurve curve;
    curve.sigma = sigma;
    curve.lambda = lambda;
    for (const defense::EpochStats& e : train.epochs) {
      curve.losses.push_back(e.classifier_loss);
    }
    curve.converged = train.converged();
    curves.push_back(std::move(curve));
  }
  return curves;
}

// ------------------------------------------------------------- Ablations

namespace {

std::vector<AblationPoint> run_zk_sweep(
    data::DatasetId id, const std::vector<float>& values, std::uint64_t seed,
    bool sweep_gamma) {
  const ExperimentScale scale = scale_for(id);
  Rng data_rng(seed);
  const PreparedData data = prepare_data(id, scale, data_rng);
  const Evaluator evaluator(scale.eval_batch);

  std::vector<AblationPoint> points;
  for (const float value : values) {
    Rng model_rng(seed ^ 0x6d0de1ULL);
    models::Classifier model = build_model_for(id, scale, model_rng);

    defense::TrainConfig config = base_train_config(scale, seed);
    if (sweep_gamma) {
      config.gamma = value;
    } else {
      config.sigma = value;
    }
    defense::ZkGanDefTrainer trainer(model, config);
    trainer.fit(data.train);

    Rng attack_rng(seed ^ 0xa77ac4ULL);
    attacks::Pgd pgd(scale.pgd, attack_rng);
    const Evaluation eval = evaluator.evaluate(model, data.test, {&pgd});

    AblationPoint point;
    point.value = value;
    point.acc_original = eval.clean_accuracy;
    point.acc_pgd = eval.attack("PGD").test_accuracy;
    points.push_back(point);
  }
  return points;
}

}  // namespace

std::vector<AblationPoint> run_gamma_ablation(data::DatasetId id,
                                              const std::vector<float>& gammas,
                                              std::uint64_t seed) {
  return run_zk_sweep(id, gammas, seed, /*sweep_gamma=*/true);
}

std::vector<AblationPoint> run_sigma_ablation(data::DatasetId id,
                                              const std::vector<float>& sigmas,
                                              std::uint64_t seed) {
  return run_zk_sweep(id, sigmas, seed, /*sweep_gamma=*/false);
}

}  // namespace zkg::eval
