// The paper's evaluation, one experiment per run (DESIGN.md §4):
//
//   paper <experiment>   regenerates one table or figure
//   paper --list         names the experiments, one per line
//
// Every experiment trains through eval::run_sweep and honours ZKG_PRESET /
// ZKG_TRAIN / ZKG_TEST / ZKG_EPOCHS for scaling and ZKG_SEED for the seed.
// ZKG_JOBS=<n> trains the Table III/IV and Figure 5 (left/middle) cells as
// n concurrent jobs (bit-identical rows at any n — see eval/scheduler.hpp);
// 1, the default, keeps the serial loop. Figure 5 (right) and the
// ablations run their cells serially. No experiment writes checkpoints.
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/table.hpp"
#include "defense/observer.hpp"
#include "eval/experiments.hpp"
#include "eval/scheduler.hpp"

namespace {

using namespace zkg;

struct Settings {
  std::uint64_t seed;
  unsigned jobs;
};

// Table III / Figure 4 for one dataset: the full 7-defense x 4-example-type
// grid, the Figure 4 series and the §V-A headline numbers. The CIFAR10
// column (synth-objects) shows the CLP/CLS convergence failure of §V-D
// footnote 1.
void table3(data::DatasetId id, const Settings& settings) {
  const eval::ExperimentScale scale = eval::scale_for(id);
  std::cout << "=== Paper Table III / Figure 4 — " << data::dataset_name(id)
            << " ===\n"
            << "preset: "
            << (scale.model_preset == models::Preset::kPaper ? "paper"
                                                             : "bench")
            << ", train=" << scale.train_samples
            << ", test=" << scale.test_samples << ", epochs=" << scale.epochs
            << ", eps=" << scale.fgsm.epsilon << ", jobs=" << settings.jobs
            << "\n\n";

  const eval::Table3Result result = eval::run_table3(
      id, defense::all_defenses(), settings.seed, settings.jobs);

  std::cout << "Table III (test accuracy):\n"
            << result.accuracy_table().to_text() << "\n"
            << "Figure 4 series (same data, one series per defense):\n"
            << result.figure4_series().to_text() << "\n"
            << result.headline_summary() << "\n";

  // Convergence notes (the paper's footnote-1 behaviour for CLP/CLS).
  for (const eval::DefenseRun& row : result.rows) {
    if (!row.converged) {
      std::cout << "note: " << row.name
                << " did not converge (final loss " << row.final_loss
                << ") — cf. paper §V-D\n";
    }
  }
}

// Table IV: ZK-GanDef's test accuracy on DeepFool and CW adversarial
// examples across all three datasets — the generalizability claim
// (ZK-GanDef trains only on Gaussian noise, yet defends perturbation
// patterns far from Gaussian). One sweep cell per dataset.
void table4(const Settings& settings) {
  std::cout << "=== Paper Table IV — ZK-GanDef on DeepFool & CW examples "
               "===\n\n";
  Table table({"Dataset", "Clean", "DeepFool", "CW"});
  for (const eval::Table4Row& row : eval::run_table4(
           {data::DatasetId::kDigits, data::DatasetId::kFashion,
            data::DatasetId::kObjects},
           settings.seed, settings.jobs)) {
    table.add_row({data::dataset_name(row.dataset),
                   Table::percent(row.clean_accuracy),
                   Table::percent(row.deepfool_accuracy),
                   Table::percent(row.cw_accuracy)});
  }
  std::cout << table.to_text()
            << "\nExpected shape (paper Table IV): DeepFool accuracy stays "
               "close to clean accuracy\n(DeepFool seeks minimal "
               "perturbations, which are easier to defend); CW is the\n"
               "harder of the two.\n";
}

void fig5_panel(data::DatasetId id, const char* label,
                const Settings& settings, defense::TrainObserver* recorder) {
  std::cout << "--- " << label << " (" << data::dataset_name(id) << ") ---\n";
  eval::SweepOptions options;
  options.jobs = settings.jobs;
  options.observer = recorder;
  const std::vector<eval::TrainingTimeRow> rows =
      eval::run_training_time(id, settings.seed, /*epochs=*/2, options);

  double zk_seconds = 0.0;
  for (const eval::TrainingTimeRow& row : rows) {
    if (row.defense == "ZK-GanDef") zk_seconds = row.seconds_per_epoch;
  }
  Table table({"Defense", "s/epoch", "vs ZK-GanDef"});
  for (const eval::TrainingTimeRow& row : rows) {
    table.add_row({row.defense, Table::fixed(row.seconds_per_epoch, 2),
                   Table::fixed(row.seconds_per_epoch / zk_seconds, 2) + "x"});
  }
  std::cout << table.to_text() << "\n";
}

// Figure 5 (left and middle): training time per epoch of ZK-GanDef vs the
// full-knowledge defenses, on the LeNet datasets (left) and the allCNN
// dataset (middle).
//
// The paper's GTX-1080 numbers (for shape comparison):
//   MNIST/F-MNIST: ZK-GanDef 8.75s, FGSM-Adv 7.83s, PGD-Adv 110.85s,
//                  PGD-GanDef 132.75s
//   CIFAR10:       ZK-GanDef 71.20s, FGSM-Adv 62.85s, PGD-Adv 146.91s,
//                  PGD-GanDef 257.72s
// The claim is ordinal: ZK-GanDef =~ FGSM-Adv << PGD-Adv < PGD-GanDef.
//
// ZKG_JOBS > 1 makes the per-epoch timings measure a loaded machine (jobs
// compete for cores), so serial stays the default for the absolute numbers;
// the parallel run is for quickly checking the ordinal claim.
void fig5_time(const Settings& settings) {
  // ZKG_BENCH_JSON=<path> streams one structured record per trained epoch
  // (train_begin / epoch / train_end, see DESIGN.md §9) to <path> while the
  // human-readable tables still go to stdout. The recorder is attached only
  // serially: concurrent trainers would interleave records mid-line.
  std::ofstream json;
  std::unique_ptr<defense::JsonlTrainObserver> recorder;
  const std::string json_path = env_or("ZKG_BENCH_JSON", "");
  if (settings.jobs == 1 && !json_path.empty()) {
    json.open(json_path, std::ios::trunc);
    if (json.is_open()) {
      recorder = std::make_unique<defense::JsonlTrainObserver>(json);
    }
  }

  std::cout << "=== Paper Figure 5 (left, middle) — training time per epoch "
               "===\n\n";
  fig5_panel(data::DatasetId::kDigits, "Figure 5 left: LeNet datasets",
             settings, recorder.get());
  fig5_panel(data::DatasetId::kObjects, "Figure 5 middle: allCNN dataset",
             settings, recorder.get());
  std::cout << "Expected shape: ZK-GanDef close to FGSM-Adv; PGD-Adv and "
               "PGD-GanDef several times slower\n(they generate an iterative "
               "attack for every training batch).\n";
}

// Figure 5 (right): CLS training-loss curves on the CIFAR10 analogue under
// the four (sigma, lambda) settings of §V-D. In the paper, the three
// settings with sigma=1.0 or lambda=0.4 stay flat (no convergence) and only
// (sigma=0.1, lambda=0.01) — which "falls back to a Vanilla classifier" —
// converges.
void fig5_cls(const Settings& settings) {
  const std::int64_t epochs = env_or_int("ZKG_CONV_EPOCHS", 8);

  std::cout << "=== Paper Figure 5 (right) — CLS training loss on "
            << data::dataset_name(data::DatasetId::kObjects)
            << " under four (sigma, lambda) settings ===\n\n";

  const std::vector<eval::LossCurve> curves = eval::run_cls_convergence(
      data::DatasetId::kObjects, settings.seed, epochs);

  std::vector<std::string> header{"sigma", "lambda"};
  for (std::int64_t e = 0; e < epochs; ++e) {
    header.push_back("ep" + std::to_string(e));
  }
  header.push_back("converged");
  Table table(header);
  for (const eval::LossCurve& curve : curves) {
    std::vector<std::string> row{Table::fixed(curve.sigma, 2),
                                 Table::fixed(curve.lambda, 2)};
    for (const float loss : curve.losses) row.push_back(Table::fixed(loss, 3));
    row.push_back(curve.converged ? "yes" : "NO");
    table.add_row(row);
  }
  std::cout << table.to_text()
            << "\nExpected shape (paper §V-D): the flat curves belong to the "
               "strong-noise / strong-penalty\nsettings; the "
               "(sigma=0.1, lambda=0.01) curve decreases — but that setting "
               "is effectively a\nVanilla classifier with no defensive "
               "value.\n";
}

// The ablations train for 12 epochs unless ZKG_EPOCHS says otherwise: half
// the Table III length, since a sweep compares settings against each
// other, not against the paper.
std::int64_t ablation_epochs() { return env_or_int("ZKG_EPOCHS", 12); }

Table ablation_table(const char* knob,
                     const std::vector<eval::AblationPoint>& points) {
  Table table({knob, "Original", "PGD"});
  for (const eval::AblationPoint& p : points) {
    table.add_row({Table::fixed(p.value, 2), Table::percent(p.acc_original),
                   Table::percent(p.acc_pgd)});
  }
  return table;
}

// Ablation (ours, motivated by §III-D): the ZK-GanDef trade-off gamma.
// gamma = 0 removes the discriminator term entirely, reducing ZK-GanDef to
// plain Gaussian-augmentation training; larger gamma makes the classifier
// prioritise hiding the perturbation signal over classification.
void ablation_gamma(const Settings& settings) {
  std::cout << "=== Ablation: ZK-GanDef gamma sweep (synth-digits, PGD "
               "evaluation) ===\n\n";
  const std::vector<eval::AblationPoint> points =
      eval::run_gamma_ablation(data::DatasetId::kDigits, {0.0f, 0.05f, 0.5f},
                               settings.seed, ablation_epochs());
  std::cout << ablation_table("gamma", points).to_text()
            << "\ngamma = 0 is Gaussian-augmentation training without the "
               "GAN game; the sweep shows\nwhere the discriminator helps and "
               "where it starts to tax clean accuracy.\n";
}

// Ablation (ours, motivated by §IV-B): the Gaussian augmentation strength
// sigma. The paper fixes sigma = 1.0 following Kannan et al. and leaves the
// comparison of augmentation methods as future work — this sweep is that
// comparison at bench scale.
void ablation_sigma(const Settings& settings) {
  std::cout << "=== Ablation: ZK-GanDef augmentation sigma sweep "
               "(synth-digits, PGD evaluation) ===\n\n";
  const std::vector<eval::AblationPoint> points =
      eval::run_sigma_ablation(data::DatasetId::kDigits, {0.25f, 0.5f, 1.0f},
                               settings.seed, ablation_epochs());
  std::cout << ablation_table("sigma", points).to_text()
            << "\nExpected: weak noise (sigma << 1) trains faster but "
               "transfers little robustness;\nthe paper's sigma = 1.0 is "
               "the robust end of the sweep.\n";
}

struct Experiment {
  const char* name;
  void (*run)(const Settings&);
};

const Experiment kExperiments[] = {
    {"table3-digits",
     [](const Settings& s) { table3(data::DatasetId::kDigits, s); }},
    {"table3-fashion",
     [](const Settings& s) { table3(data::DatasetId::kFashion, s); }},
    {"table3-objects",
     [](const Settings& s) { table3(data::DatasetId::kObjects, s); }},
    {"table4", table4},
    {"fig5-time", fig5_time},
    {"fig5-cls", fig5_cls},
    {"ablation-gamma", ablation_gamma},
    {"ablation-sigma", ablation_sigma},
};

void list_experiments(std::ostream& out) {
  for (const Experiment& experiment : kExperiments) {
    out << experiment.name << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc == 2 ? argv[1] : "";
  if (name == "--list") {
    list_experiments(std::cout);
    return 0;
  }
  for (const Experiment& experiment : kExperiments) {
    if (name != experiment.name) continue;
    const Settings settings{
        static_cast<std::uint64_t>(env_or_int("ZKG_SEED", 20190417)),
        static_cast<unsigned>(env_or_int("ZKG_JOBS", 1))};
    try {
      experiment.run(settings);
    } catch (const std::exception& error) {
      std::cerr << "paper " << name << ": " << error.what() << "\n";
      return 1;
    }
    return 0;
  }
  std::cerr << "usage: paper <experiment> | paper --list\nexperiments:\n";
  list_experiments(std::cerr);
  return 2;
}
