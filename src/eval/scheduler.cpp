#include "eval/scheduler.hpp"

#include <fstream>
#include <map>
#include <utility>

#include "attacks/bim.hpp"
#include "attacks/fgsm.hpp"
#include "attacks/pgd.hpp"
#include "ckpt/io.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "common/threadpool.hpp"
#include "defense/observer.hpp"
#include "obs/export.hpp"

namespace zkg::eval {

std::vector<JobOutcome> run_jobs(const std::vector<Job>& jobs,
                                 unsigned concurrency) {
  std::vector<JobOutcome> outcomes(jobs.size());
  const auto run_one = [&jobs, &outcomes](std::size_t i) {
    JobOutcome& outcome = outcomes[i];
    outcome.name = jobs[i].name;
    Stopwatch watch;
    try {
      jobs[i].body();
      outcome.ok = true;
    } catch (const std::exception& e) {
      outcome.error = e.what();
    } catch (...) {
      outcome.error = "unknown exception";
    }
    outcome.seconds = watch.seconds();
  };

  if (concurrency == 1 || jobs.size() <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_one(i);
    return outcomes;
  }
  // A dedicated pool, never ThreadPool::shared(): job bodies are
  // long-running, and parking them on the shared pool could starve the
  // short tasks the kernel layer and PrefetchBatcher submit there.
  ThreadPool pool(concurrency == 0 ? ThreadPool::default_thread_count()
                                   : concurrency);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pool.submit([&run_one, i] { run_one(i); });
  }
  pool.wait_idle();  // run_one never throws, so nothing rethrows here
  return outcomes;
}

std::string sweep_cell_name(const SweepCell& cell) {
  return defense::defense_name(cell.defense) + "_" +
         data::dataset_name(cell.dataset) + "_s" +
         std::to_string(cell.seed);
}

namespace {

/// The job body shared by every sweep cell: train (optionally resuming a
/// per-job checkpoint), then evaluate the Table-3 attack grid. Every RNG
/// stream is derived from cell.seed alone, so the result is independent of
/// which thread runs the job.
void run_cell(const SweepCell& cell, const PreparedData& data,
              const SweepOptions& options, SweepRun& out) {
  ExperimentScale scale = scale_for(cell.dataset);
  if (options.epochs > 0) scale.epochs = options.epochs;

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

  // Per-job telemetry scope: a private registry bridged by the observer,
  // plus per-job JSONL streams when a telemetry dir is configured. Nothing
  // here touches the process-global registry or a shared stream.
  obs::Telemetry telemetry;
  defense::TelemetryObserver telemetry_observer(telemetry);
  trainer->add_observer(&telemetry_observer);
  // Append-only telemetry stream, not recoverable state; crash-safety via
  // atomic_write_file would buffer the whole run in memory for no benefit.
  std::ofstream train_jsonl;  // zkg-lint: allow(atomic-write) reason: append-only telemetry stream, not recoverable state
  std::unique_ptr<defense::JsonlTrainObserver> recorder;
  if (!options.telemetry_dir.empty()) {
    train_jsonl.open(options.telemetry_dir + "/" + out.name + ".train.jsonl",
                     std::ios::trunc);
    if (train_jsonl.is_open()) {
      recorder = std::make_unique<defense::JsonlTrainObserver>(train_jsonl);
      trainer->add_observer(recorder.get());
    }
  }
  if (options.observer != nullptr) trainer->add_observer(options.observer);

  log::info() << "[sweep] " << out.name << " starting ("
              << scale.epochs << " epochs)";
  out.train = trainer->fit(data.train);

  out.run.id = cell.defense;
  out.run.name = defense::defense_name(cell.defense);
  out.run.seconds_per_epoch = out.train.mean_epoch_seconds();
  out.run.final_loss = out.train.final_loss();
  out.run.converged = out.train.converged();
  if (options.evaluate) {
    Rng attack_rng(cell.seed ^ 0xa77ac4ULL);
    attacks::Fgsm fgsm(scale.fgsm);
    attacks::Bim bim(scale.bim);
    attacks::Pgd pgd(scale.pgd, attack_rng);
    std::vector<attacks::Attack*> attack_list{&fgsm, &bim, &pgd};
    const Evaluator evaluator(scale.eval_batch);
    const Evaluation eval = evaluator.evaluate(model, data.test, attack_list);
    out.run.acc_original = eval.clean_accuracy;
    out.run.acc_fgsm = eval.attack("FGSM").test_accuracy;
    out.run.acc_bim = eval.attack("BIM").test_accuracy;
    out.run.acc_pgd = eval.attack("PGD").test_accuracy;
  }
  if (options.keep_params) out.final_params = model.net().state();

  if (!options.telemetry_dir.empty()) {
    std::ofstream obs_jsonl(  // zkg-lint: allow(atomic-write) reason: telemetry snapshot, not recoverable state
        options.telemetry_dir + "/" + out.name + ".obs.jsonl",
        std::ios::trunc);
    if (obs_jsonl.is_open()) obs::write_jsonl(obs_jsonl, telemetry);
  }
}

}  // namespace

void require_private_checkpoint_dirs(std::size_t job_count,
                                     unsigned concurrency,
                                     const std::string& caller) {
  if (concurrency != 1 && job_count > 1 &&
      !env_or("ZKG_CKPT_DIR", "").empty()) {
    throw ConfigError(
        caller +
        ": ZKG_CKPT_DIR points every concurrent job at one checkpoint "
        "directory; unset it and use SweepOptions::checkpoint_root, or run "
        "with jobs = 1");
  }
}

std::vector<SweepRun> run_sweep(const std::vector<SweepCell>& cells,
                                const SweepOptions& options) {
  require_private_checkpoint_dirs(cells.size(), options.jobs, "run_sweep");
  // Prepare each distinct (dataset, seed) pair once, serially — the exact
  // tensors a serial run would prepare — and share them read-only.
  std::map<std::pair<data::DatasetId, std::uint64_t>, PreparedData> datasets;
  for (const SweepCell& cell : cells) {
    const auto key = std::make_pair(cell.dataset, cell.seed);
    if (datasets.count(key) != 0) continue;
    const ExperimentScale scale = scale_for(cell.dataset);
    Rng data_rng(cell.seed);
    datasets.emplace(key, prepare_data(cell.dataset, scale, data_rng));
  }

  std::vector<SweepRun> runs(cells.size());
  std::vector<Job> jobs;
  jobs.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    runs[i].cell = cells[i];
    runs[i].name = sweep_cell_name(cells[i]);
    const PreparedData& data =
        datasets.at(std::make_pair(cells[i].dataset, cells[i].seed));
    jobs.push_back(Job{runs[i].name, [&cells, &runs, &data, &options, i] {
                         run_cell(cells[i], data, options, runs[i]);
                       }});
  }
  const std::vector<JobOutcome> outcomes = run_jobs(jobs, options.jobs);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].ok = outcomes[i].ok;
    runs[i].error = outcomes[i].error;
    runs[i].wall_seconds = outcomes[i].seconds;
    if (!outcomes[i].ok) {
      log::warn() << "[sweep] " << runs[i].name << " failed: "
                  << runs[i].error;
    }
  }
  return runs;
}

}  // namespace zkg::eval
