#include "eval/scheduler.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <tuple>

#include "attacks/bim.hpp"
#include "attacks/cw.hpp"
#include "attacks/deepfool.hpp"
#include "attacks/fgsm.hpp"
#include "attacks/pgd.hpp"
#include "ckpt/io.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "common/threadpool.hpp"

namespace zkg::eval {

SweepCell::SweepCell(defense::DefenseId defense, data::DatasetId dataset,
                     std::uint64_t seed)
    : defense(defense), dataset(dataset), seed(seed),
      scale(scale_for(dataset)) {}

std::string sweep_cell_name(const SweepCell& cell) {
  std::ostringstream name;
  name << defense::defense_name(cell.defense) << "_"
       << data::dataset_name(cell.dataset) << "_s" << cell.seed;
  const ExperimentScale defaults = scale_for(cell.dataset);
  for (const auto& [label, knob] :
       {std::pair{"sigma", &ExperimentScale::sigma},
        std::pair{"lambda", &ExperimentScale::lambda},
        std::pair{"gamma", &ExperimentScale::gamma}}) {
    if (cell.scale.*knob != defaults.*knob) {
      name << "_" << label << cell.scale.*knob;
    }
  }
  return name.str();
}

namespace {

/// Runs body(i) for every run with at most `concurrency` in flight (0 = the
/// default thread count) and records its outcome and wall-clock in runs[i].
/// Exceptions are captured per job, never propagated, so one failed cell
/// cannot abort a sweep. `concurrency` == 1 runs inline on the calling
/// thread in order — the serial reference the determinism tests compare
/// against.
void run_jobs(std::vector<SweepRun>& runs, unsigned concurrency,
              const std::function<void(std::size_t)>& body) {
  const auto run_one = [&runs, &body](std::size_t i) {
    SweepRun& run = runs[i];
    Stopwatch watch;
    try {
      body(i);
      run.ok = true;
    } catch (const std::exception& e) {
      run.error = e.what();
    } catch (...) {
      run.error = "unknown exception";
    }
    run.wall_seconds = watch.seconds();
  };

  if (concurrency == 1 || runs.size() <= 1) {
    for (std::size_t i = 0; i < runs.size(); ++i) run_one(i);
    return;
  }
  // A dedicated pool, never ThreadPool::shared(): job bodies are
  // long-running, and parking them on the shared pool could starve the
  // short tasks the kernel layer and PrefetchBatcher submit there.
  ThreadPool pool(concurrency == 0 ? ThreadPool::default_thread_count()
                                   : concurrency);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    pool.submit([&run_one, i] { run_one(i); });
  }
  pool.wait_idle();  // run_one never throws, so nothing rethrows here
}

/// Runs `suite` on the trained model. PGD draws from its own stream derived
/// from `seed`; FGSM, BIM, DeepFool and CW draw nothing.
Evaluation evaluate_suite(AttackSuite suite, models::Classifier& model,
                          const data::Dataset& test,
                          const ExperimentScale& scale, std::uint64_t seed) {
  const Evaluator evaluator(scale.eval_batch);
  if (suite == AttackSuite::kTable4) {
    // Evaluate on a subset: DeepFool's per-class gradients are the costly
    // part (see DESIGN.md §5 on scaling). Same budget as PGD (paper §V-B).
    std::vector<std::int64_t> indices(static_cast<std::size_t>(
        std::min<std::int64_t>(scale.generalizability_samples, test.size())));
    std::iota(indices.begin(), indices.end(), std::int64_t{0});
    attacks::DeepFool deepfool(scale.pgd);
    attacks::CarliniWagner cw(scale.pgd, /*kappa=*/0.0f,
                              /*adam_lr=*/scale.pgd.epsilon / 4.0f);
    return evaluator.evaluate(model, test.subset(indices), {&deepfool, &cw});
  }
  Rng attack_rng(seed ^ 0xa77ac4ULL);
  attacks::Fgsm fgsm(scale.fgsm);
  attacks::Bim bim(scale.bim);
  attacks::Pgd pgd(scale.pgd, attack_rng);
  return evaluator.evaluate(model, test, {&fgsm, &bim, &pgd});
}

/// The job body shared by every sweep cell and so by every paper driver:
/// the one place in eval that builds a model and a trainer. Trains
/// (optionally resuming a per-job checkpoint), then runs options.evaluate's
/// attacks. Every RNG stream is derived from cell.seed alone, so the result
/// is independent of which thread runs the job.
void run_cell(const SweepCell& cell, const PreparedData& data,
              const SweepOptions& options, SweepRun& out) {
  const ExperimentScale& scale = cell.scale;
  Rng model_rng(cell.seed ^ 0x6d0de1ULL);
  models::Classifier model =
      build_model_for(cell.dataset, scale, model_rng);

  defense::TrainConfig config = base_train_config(scale, cell.seed);
  if (!options.checkpoint_root.empty()) {
    config.checkpoint.dir = options.checkpoint_root + "/" + out.name;
    if (options.resume) {
      const std::string latest = ckpt::latest_checkpoint(config.checkpoint.dir);
      if (!latest.empty()) config.resume_from = latest;
    }
  }
  defense::TrainerPtr trainer =
      defense::make_trainer(cell.defense, model, config);
  if (options.observer != nullptr) trainer->add_observer(options.observer);

  log::info() << "[sweep] " << out.name << " starting ("
              << scale.epochs << " epochs)";
  out.train = trainer->fit(data.train);
  if (options.evaluate != AttackSuite::kNone) {
    out.eval = evaluate_suite(options.evaluate, model, data.test, scale,
                              cell.seed);
  }
  if (options.keep_params) out.final_params = model.net().state();
}

}  // namespace

std::vector<SweepRun> run_sweep(const std::vector<SweepCell>& cells,
                                const SweepOptions& options) {
  std::vector<SweepRun> runs;
  runs.reserve(cells.size());
  std::set<std::string> names;
  for (const SweepCell& cell : cells) {
    runs.push_back({.cell = cell, .name = sweep_cell_name(cell)});
    if (!names.insert(runs.back().name).second) {
      throw ConfigError("run_sweep: two cells are named " + runs.back().name +
                        " and would share a checkpoint directory");
    }
  }

  // Prepare each distinct dataset once, serially — the exact tensors a
  // serial run would prepare — and share them read-only.
  using DataKey =
      std::tuple<data::DatasetId, std::uint64_t, std::int64_t, std::int64_t>;
  std::map<DataKey, PreparedData> datasets;
  std::vector<const PreparedData*> cell_data;
  cell_data.reserve(cells.size());
  for (const SweepCell& cell : cells) {
    const DataKey key{cell.dataset, cell.seed, cell.scale.train_samples,
                      cell.scale.test_samples};
    auto it = datasets.find(key);
    if (it == datasets.end()) {
      Rng data_rng(cell.seed);
      it = datasets.emplace(key, prepare_data(cell.dataset, cell.scale,
                                              data_rng)).first;
    }
    cell_data.push_back(&it->second);
  }

  run_jobs(runs, options.jobs, [&](std::size_t i) {
    run_cell(cells[i], *cell_data[i], options, runs[i]);
  });
  for (const SweepRun& run : runs) {
    if (!run.ok) {
      log::warn() << "[sweep] " << run.name << " failed: " << run.error;
    }
  }
  return runs;
}

}  // namespace zkg::eval
