#include "eval/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/env.hpp"
#include "data/preprocess.hpp"
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

  // Signed per-column gap to the better of CLP/CLS: negative when
  // ZK-GanDef trails the zero-knowledge baselines.
  std::vector<double> best_zero_knowledge;
  for (const defense::DefenseId id :
       {defense::DefenseId::kClp, defense::DefenseId::kCls}) {
    if (const DefenseRun* r = find(id)) {
      const auto other = adv_cols(*r);
      if (best_zero_knowledge.empty()) best_zero_knowledge = other;
      for (std::size_t c = 0; c < other.size(); ++c) {
        best_zero_knowledge[c] = std::max(best_zero_knowledge[c], other[c]);
      }
    }
  }
  if (best_zero_knowledge.empty()) {
    out << "no zero-knowledge baseline row";
  } else {
    const auto zk_cols = adv_cols(*zk);
    const char* names[] = {"FGSM", "BIM", "PGD"};
    out << "ZK-GanDef minus best zero-knowledge baseline (CLP/CLS):";
    for (std::size_t c = 0; c < zk_cols.size(); ++c) {
      const double gap = zk_cols[c] - best_zero_knowledge[c];
      out << (c == 0 ? " " : ", ") << names[c] << ' '
          << (gap < 0.0 ? "-" : "+") << Table::percent(std::fabs(gap));
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
  out << "; worst gap to full-knowledge defenses: "
      << Table::percent(worst_gap);
  return out.str();
}

namespace {

/// Runs `cells` as one sweep and returns their runs in cell order; a failed
/// cell throws, since a paper table with a missing row is not that table.
std::vector<SweepRun> sweep_or_throw(const std::vector<SweepCell>& cells,
                                     const SweepOptions& options) {
  std::vector<SweepRun> runs = run_sweep(cells, options);
  for (const SweepRun& run : runs) {
    if (!run.ok) {
      throw Error("sweep cell " + run.name + " failed: " + run.error);
    }
  }
  return runs;
}

std::vector<SweepCell> defense_cells(
    data::DatasetId id, const std::vector<defense::DefenseId>& defenses,
    std::uint64_t seed) {
  std::vector<SweepCell> cells;
  for (const defense::DefenseId defense_id : defenses) {
    cells.emplace_back(defense_id, id, seed);
  }
  return cells;
}

/// One serial ZK-GanDef cell per value of `knob`, trained for `epochs` and
/// evaluated with the Table III suite.
std::vector<AblationPoint> run_zk_ablation(data::DatasetId id,
                                           const std::vector<float>& values,
                                           std::uint64_t seed,
                                           std::int64_t epochs,
                                           float ExperimentScale::*knob) {
  std::vector<SweepCell> cells;
  for (const float value : values) {
    SweepCell& cell =
        cells.emplace_back(defense::DefenseId::kZkGanDef, id, seed);
    cell.scale.epochs = epochs;
    cell.scale.*knob = value;
  }
  SweepOptions options;
  options.jobs = 1;
  std::vector<AblationPoint> points;
  for (const SweepRun& run : sweep_or_throw(cells, options)) {
    points.push_back({run.cell.scale.*knob, run.eval.clean_accuracy,
                      run.eval.attack("PGD").test_accuracy});
  }
  return points;
}

}  // namespace

Table3Result run_table3(data::DatasetId id,
                        const std::vector<defense::DefenseId>& defenses,
                        std::uint64_t seed, unsigned jobs) {
  SweepOptions options;
  options.jobs = jobs;
  Table3Result result{id, {}};
  for (const SweepRun& run :
       sweep_or_throw(defense_cells(id, defenses, seed), options)) {
    DefenseRun row;
    row.id = run.cell.defense;
    row.name = defense::defense_name(run.cell.defense);
    row.acc_original = run.eval.clean_accuracy;
    row.acc_fgsm = run.eval.attack("FGSM").test_accuracy;
    row.acc_bim = run.eval.attack("BIM").test_accuracy;
    row.acc_pgd = run.eval.attack("PGD").test_accuracy;
    row.seconds_per_epoch = run.train.mean_epoch_seconds();
    row.final_loss = run.train.final_loss();
    row.converged = run.train.converged();
    result.rows.push_back(std::move(row));
  }
  return result;
}

// ----------------------------------------------------------------- Table IV

std::vector<Table4Row> run_table4(const std::vector<data::DatasetId>& datasets,
                                  std::uint64_t seed, unsigned jobs) {
  std::vector<SweepCell> cells;
  for (const data::DatasetId id : datasets) {
    cells.emplace_back(defense::DefenseId::kZkGanDef, id, seed);
  }
  SweepOptions options;
  options.jobs = jobs;
  options.evaluate = AttackSuite::kTable4;
  std::vector<Table4Row> rows;
  for (const SweepRun& run : sweep_or_throw(cells, options)) {
    rows.push_back({run.cell.dataset, run.eval.attack("DeepFool").test_accuracy,
                    run.eval.attack("CW").test_accuracy,
                    run.eval.clean_accuracy});
  }
  return rows;
}

// ------------------------------------------------- Figure 5 (left / middle)

std::vector<TrainingTimeRow> run_training_time(data::DatasetId id,
                                               std::uint64_t seed,
                                               std::int64_t epochs,
                                               const SweepOptions& options) {
  std::vector<SweepCell> cells = defense_cells(
      id,
      {defense::DefenseId::kZkGanDef, defense::DefenseId::kFgsmAdv,
       defense::DefenseId::kPgdAdv, defense::DefenseId::kPgdGanDef},
      seed);
  for (SweepCell& cell : cells) cell.scale.epochs = epochs;
  SweepOptions train_only = options;
  train_only.evaluate = AttackSuite::kNone;
  std::vector<TrainingTimeRow> rows;
  for (const SweepRun& run : sweep_or_throw(cells, train_only)) {
    rows.push_back({defense::defense_name(run.cell.defense),
                    run.train.mean_epoch_seconds()});
  }
  return rows;
}

// -------------------------------------------------------- Figure 5 (right)

std::vector<LossCurve> run_cls_convergence(data::DatasetId id,
                                           std::uint64_t seed,
                                           std::int64_t epochs) {
  // The paper's four settings (§V-D): (sigma, lambda).
  std::vector<SweepCell> cells;
  for (const auto& [sigma, lambda] :
       {std::pair{1.0f, 0.4f}, std::pair{1.0f, 0.01f}, std::pair{0.1f, 0.4f},
        std::pair{0.1f, 0.01f}}) {
    SweepCell& cell = cells.emplace_back(defense::DefenseId::kCls, id, seed);
    cell.scale.epochs = epochs;
    cell.scale.sigma = sigma;
    cell.scale.lambda = lambda;
  }
  SweepOptions options;
  options.jobs = 1;
  options.evaluate = AttackSuite::kNone;

  std::vector<LossCurve> curves;
  for (const SweepRun& run : sweep_or_throw(cells, options)) {
    LossCurve curve;
    curve.sigma = run.cell.scale.sigma;
    curve.lambda = run.cell.scale.lambda;
    for (const defense::EpochStats& e : run.train.epochs) {
      curve.losses.push_back(e.classifier_loss);
    }
    curve.converged = run.train.converged();
    curves.push_back(std::move(curve));
  }
  return curves;
}

// ------------------------------------------------------------- Ablations

std::vector<AblationPoint> run_gamma_ablation(data::DatasetId id,
                                              const std::vector<float>& gammas,
                                              std::uint64_t seed,
                                              std::int64_t epochs) {
  return run_zk_ablation(id, gammas, seed, epochs, &ExperimentScale::gamma);
}

std::vector<AblationPoint> run_sigma_ablation(data::DatasetId id,
                                              const std::vector<float>& sigmas,
                                              std::uint64_t seed,
                                              std::int64_t epochs) {
  return run_zk_ablation(id, sigmas, seed, epochs, &ExperimentScale::sigma);
}

}  // namespace zkg::eval
