// Parallel experiment scheduler (DESIGN.md §12): run_sweep trains
// independent cells concurrently on a dedicated zkg::ThreadPool so
// sweep-scale experiments saturate the machine instead of training one
// model at a time. Every paper driver in eval/experiments.hpp — Table III,
// Table IV, Figure 5 and the gamma/sigma ablations — trains only through
// run_sweep; its jobs == 1 setting is their serial reference.
//
// Isolation contract — why concurrent jobs reproduce serial runs bit-for-bit:
//  * RNG: every stream a job consumes (data, model init, trainer, attacks)
//    is derived from the cell's own seed inside the job body; nothing is
//    drawn from a shared stream, so results are independent of scheduling
//    order and interleaving.
//  * Telemetry: a job's ZKG_SPAN/ZKG_COUNT sites report to the
//    process-global registry (off unless ZKG_TRACE enables it, thread-safe
//    when on); no job reads it back, so it cannot couple results.
//  * Checkpointing: each job writes crash-safe snapshots into its own
//    directory (<checkpoint_root>/<cell-name>) and, when `resume` is set,
//    picks its newest loadable snapshot back up — an interrupted sweep
//    restarts where every job left off. SweepOptions::checkpoint_root is
//    the only way to turn a sweep's checkpointing on.
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

#include <cstdint>
#include <string>
#include <vector>

#include "eval/experiments.hpp"

namespace zkg::eval {

/// One independent training cell: a defense trained on one dataset from
/// one seed at one scale.
struct SweepCell {
  /// Takes the scale from scale_for(dataset); drivers that vary sigma,
  /// lambda, gamma or the epoch count set it on `scale` afterwards.
  SweepCell(defense::DefenseId defense, data::DatasetId dataset,
            std::uint64_t seed);

  defense::DefenseId defense;
  data::DatasetId dataset;
  std::uint64_t seed;
  ExperimentScale scale;
};

/// The attacks run on a cell's model after training.
enum class AttackSuite {
  kNone,
  kTable3,  // FGSM, BIM and PGD on the test split
  kTable4,  // DeepFool and CW on the first scale.generalizability_samples
};

struct SweepOptions {
  unsigned jobs = 0;            // concurrent jobs; 0 = default thread count
  AttackSuite evaluate = AttackSuite::kTable3;
  bool keep_params = false;     // snapshot final weights into the result
  std::string checkpoint_root;  // per-job dirs under here; "" disables
  bool resume = true;           // pick up an existing per-job checkpoint
  /// Non-owning; attached to every cell's trainer. Its callbacks run on
  /// each job's thread, so with jobs != 1 it must tolerate concurrent calls
  /// (`paper fig5-time` attaches its JSONL recorder only at jobs == 1).
  defense::TrainObserver* observer = nullptr;
};

struct SweepRun {
  SweepCell cell;
  std::string name;             // sweep_cell_name(cell)
  bool ok = false;
  std::string error{};
  Evaluation eval{};            // options.evaluate's attacks; empty for kNone
  defense::TrainResult train{};
  double wall_seconds = 0.0;    // train + eval wall-clock of this job
  std::vector<Tensor> final_params{};  // when options.keep_params
};

/// "<defense>_<dataset>_s<seed>", plus "_sigma<v>", "_lambda<v>" and
/// "_gamma<v>" for each of those knobs that differs from scale_for's value
/// — filesystem-safe; names the per-job checkpoint directory.
std::string sweep_cell_name(const SweepCell& cell);

/// Trains every cell as an independent job (see the isolation contract
/// above) and runs options.evaluate's attacks on it. Exceptions are
/// captured per cell (ok / error), so one failed cell cannot abort a sweep.
/// Results are returned in cell order regardless of completion order.
/// Datasets are prepared once per distinct (dataset, seed, train_samples,
/// test_samples) — exactly the tensors a serial run would prepare — and
/// shared read-only across jobs. Throws zkg::ConfigError when two cells
/// share a name.
std::vector<SweepRun> run_sweep(const std::vector<SweepCell>& cells,
                                const SweepOptions& options = {});

}  // namespace zkg::eval
