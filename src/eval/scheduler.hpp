// Parallel experiment scheduler (DESIGN.md §12): runs independent training
// jobs concurrently on a dedicated zkg::ThreadPool so sweep-scale
// experiments (Table 3/4 across defenses, datasets and seeds) saturate the
// machine instead of training one model at a time. Table III and Figure 5
// (eval::run_table3 / run_training_time) run only through run_sweep; its
// jobs == 1 setting is their serial reference.
//
// Isolation contract — why concurrent jobs reproduce serial runs bit-for-bit:
//  * RNG: every stream a job consumes (data, model init, trainer, attacks)
//    is derived from the cell's own seed inside the job body; nothing is
//    drawn from a shared stream, so results are independent of scheduling
//    order and interleaving.
//  * Telemetry: each job gets its own obs::Telemetry registry bridged via
//    defense::TelemetryObserver, optionally exported to a per-job JSONL
//    file. The process-global registry is never required by a job.
//  * Checkpointing: each job writes crash-safe snapshots into its own
//    directory (<checkpoint_root>/<job-name>) and, when `resume` is set,
//    picks its newest loadable snapshot back up — an interrupted sweep
//    restarts where every job left off. The process-wide ZKG_CKPT_DIR
//    override would collapse those directories into one, so concurrent
//    training jobs reject it (require_private_checkpoint_dirs: run_sweep
//    and the Table IV bench call it).
//  * Shared state: the BufferPool and the kernel-level parallel_for layer
//    are thread-safe, and recycled buffers never influence results (the
//    PR 2 dirty-buffer invariant), so jobs share them freely.
//
// Jobs run on their own pool; kernels inside each job keep using the
// process-wide zkg::parallel_for backend, and the PrefetchBatcher fill
// tasks of every Trainer::fit keep using ThreadPool::shared(). Keeping the
// job pool separate means a long-running job can never starve the short
// tasks those layers submit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "eval/experiments.hpp"

namespace zkg::eval {

// ------------------------------------------------------ generic job runner

struct Job {
  std::string name;
  std::function<void()> body;
};

struct JobOutcome {
  std::string name;
  bool ok = false;
  std::string error;       // exception text when !ok
  double seconds = 0.0;    // job wall-clock
};

/// Runs every job with at most `concurrency` in flight (0 = the default
/// thread count). Exceptions are captured per job, never propagated, so one
/// failed cell cannot abort a sweep. `concurrency` == 1 runs inline on the
/// calling thread in order — the serial reference the determinism tests
/// compare against.
std::vector<JobOutcome> run_jobs(const std::vector<Job>& jobs,
                                 unsigned concurrency);

/// Throws zkg::ConfigError naming `caller` when ZKG_CKPT_DIR is set and
/// more than one of `job_count` training jobs may run at once under
/// `concurrency` (as run_jobs reads it). That override replaces every
/// trainer's checkpoint directory with the same one, where concurrent jobs
/// would overwrite and rotate away each other's snapshots. Call it before
/// queueing training jobs on run_jobs; run_sweep does.
void require_private_checkpoint_dirs(std::size_t job_count,
                                     unsigned concurrency,
                                     const std::string& caller);

// ------------------------------------------------------- training sweeps

/// One independent (defense, dataset, seed) training cell.
struct SweepCell {
  defense::DefenseId defense = defense::DefenseId::kVanilla;
  data::DatasetId dataset = data::DatasetId::kDigits;
  std::uint64_t seed = 20190417;
};

struct SweepOptions {
  unsigned jobs = 0;            // concurrent jobs; 0 = default thread count
  std::int64_t epochs = 0;      // > 0 overrides the scale's epoch count
  bool evaluate = true;         // run the Table-3 attack grid after training
  bool keep_params = false;     // snapshot final weights into the result
  std::string checkpoint_root;  // per-job dirs under here; "" disables
  bool resume = true;           // pick up an existing per-job checkpoint
  std::string telemetry_dir;    // per-job JSONL records; "" disables
  /// Non-owning; attached to every cell's trainer after the per-job
  /// telemetry observers. Its callbacks run on each job's thread, so with
  /// jobs != 1 it must tolerate concurrent calls (bench_fig5_training_time
  /// attaches its JSONL recorder only at jobs == 1).
  defense::TrainObserver* observer = nullptr;
};

struct SweepRun {
  SweepCell cell;
  std::string name;             // sweep_cell_name(cell)
  bool ok = false;
  std::string error;
  DefenseRun run;               // accuracy row; valid when options.evaluate
  defense::TrainResult train;
  double wall_seconds = 0.0;    // train + eval wall-clock of this job
  std::vector<Tensor> final_params;  // when options.keep_params
};

/// "<defense>_<dataset>_s<seed>" — filesystem-safe; names the per-job
/// checkpoint directory and telemetry files.
std::string sweep_cell_name(const SweepCell& cell);

/// Trains every cell as an independent job (see the isolation contract
/// above). Results are returned in cell order regardless of completion
/// order. Datasets are prepared once per distinct (dataset, seed) pair —
/// exactly the tensors a serial run would prepare — and shared read-only
/// across jobs. Throws zkg::ConfigError when ZKG_CKPT_DIR is set and more
/// than one cell may run concurrently (require_private_checkpoint_dirs).
std::vector<SweepRun> run_sweep(const std::vector<SweepCell>& cells,
                                const SweepOptions& options = {});

}  // namespace zkg::eval
