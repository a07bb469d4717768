// Trainer: the defense interface. Each defense from the paper's evaluation
// (Vanilla, CLP, CLS, ZK-GanDef, FGSM-Adv, PGD-Adv, PGD-GanDef) is a Trainer
// subclass that implements name() and train_batch() (a GanDef variant:
// make_perturbed_into()), deciding how a mini-batch turns into gradients;
// the base class owns the epoch loop, the Adam optimizer, the timing
// bookkeeping that feeds the Figure 5 experiments, and the TrainObserver
// fan-out that replaced ad-hoc verbose printing.
//
// Fault tolerance (DESIGN.md §11) also lives here: fit() can resume from a
// ZKGC checkpoint bit-identically, polls the ckpt stop flag at batch
// boundaries for graceful SIGINT/SIGTERM shutdown, and — when
// TrainConfig::rollback enables it — recovers from a NonFiniteError by
// restoring the last-good in-memory snapshot instead of aborting the run.
// A subclass declares the state its defense adds (noise or attack RNG
// streams, the GanDef discriminator and its Adam) by registering it in its
// constructor with add_rng/add_rngs/add_optimizer/add_network; the base
// registers the "trainer" stream, the model's dropout streams and the
// classifier's Adam.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attacks/attack.hpp"
#include "ckpt/io.hpp"
#include "ckpt/train_state.hpp"
#include "common/rng.hpp"
#include "data/batcher.hpp"
#include "data/dataset.hpp"
#include "models/classifier.hpp"
#include "nn/sequential.hpp"
#include "optim/adam.hpp"

namespace zkg::defense {

class Trainer;

/// NaN-recovery policy (DESIGN.md §11). Disabled by default: a
/// NonFiniteError propagates out of fit() exactly as before. With
/// max_retries > 0 the trainer checks each batch's losses and parameters
/// for NaN/Inf in every build (a CheckedMathObserver), and on a
/// NonFiniteError restores the last-good in-memory snapshot
/// (parameters, optimizer moments, RNG streams, loss accumulators — but
/// never the recovery counters, which would refill the budget), optionally
/// scales the learning rate down, and either skips the offending batch or
/// retries it.
struct RollbackConfig {
  /// Total recoveries allowed per fit(); when exhausted the error rethrows.
  std::int64_t max_retries = 0;
  /// Learning-rate multiplier applied on every rollback (1.0 = keep).
  /// Retrying the same batch is only useful when this is < 1: the divergent
  /// optimizer step is re-taken smaller.
  float lr_decay = 1.0f;
  /// After restoring, skip the offending batch (true) or retry it (false).
  bool skip_batch = true;
};

struct TrainConfig {
  std::int64_t epochs = 10;
  std::int64_t batch_size = 64;
  float learning_rate = 1e-3f;  // Adam, per the paper

  // Zero-knowledge settings.
  float sigma = 1.0f;   // Gaussian augmentation stddev (paper: 1.0)
  float lambda = 0.4f;  // CLP/CLS penalty weight (paper: 0.4)

  // GanDef settings.
  float gamma = 0.1f;          // discriminator trade-off (paper's gamma)
  std::int64_t disc_steps = 1; // discriminator updates per classifier update
  float disc_learning_rate = 1e-3f;  // Adam, per the paper (0.001)

  // Full-knowledge settings (FGSM-Adv / PGD-Adv / PGD-GanDef).
  attacks::AttackBudget attack;

  std::uint64_t seed = 1;

  // --- Fault tolerance (DESIGN.md §11) ---

  /// Auto-checkpointing: a non-empty `checkpoint.dir` installs an owned
  /// CheckpointObserver writing crash-safe ZKGC snapshots on the configured
  /// cadence. This field is the only checkpoint setting: the trainer
  /// reads no environment variable for it.
  ckpt::CheckpointConfig checkpoint;

  /// Resume source: a .zkgc file, or a checkpoint directory whose newest
  /// loadable snapshot is used. Empty = start fresh. The snapshot's defense
  /// name and seed must match this run.
  std::string resume_from;

  /// NaN-recovery policy; see RollbackConfig.
  RollbackConfig rollback;

  /// Throws zkg::ConfigError naming the first invalid field: epochs and
  /// batch_size >= 1, learning rates > 0 and finite, sigma >= 0,
  /// lambda >= 0, gamma in [0, 1], disc_steps >= 1, a sane attack budget,
  /// checkpoint cadences >= 0 with keep_last >= 1, rollback.max_retries
  /// >= 0 and rollback.lr_decay in (0, 1]. Invoked by make_trainer and
  /// every Trainer constructor, so a bad config fails fast instead of
  /// producing NaNs mid-run.
  void validate() const;
};

/// Losses of one training step, reported to TrainObserver::on_batch_end.
struct BatchStats {
  float classifier_loss = 0.0f;
  float discriminator_loss = 0.0f;
};

struct EpochStats {
  std::int64_t epoch = 0;
  float classifier_loss = 0.0f;    // mean over batches
  float discriminator_loss = 0.0f; // GanDef trainers only
  double seconds = 0.0;
  std::int64_t batches = 0;
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  double total_seconds = 0.0;
  /// True when fit() stopped early on the ckpt stop flag (SIGINT/SIGTERM or
  /// ckpt::request_stop()). `epochs` then holds only the finished epochs.
  bool interrupted = false;

  double mean_epoch_seconds() const;
  float final_loss() const;
  /// True when the final loss is finite and decreased vs. the first epoch —
  /// the signal the paper's §V-D convergence study looks at.
  bool converged() const;
};

/// Observer of a training run. All progress reporting — console logging,
/// telemetry counters, structured JSONL records — flows through this
/// interface; the Trainer itself never prints. Default implementations are
/// no-ops, so observers override only the events they care about.
/// Callbacks run synchronously on the training thread, in registration
/// order.
class TrainObserver {
 public:
  virtual ~TrainObserver() = default;

  /// Before the first batch of fit().
  virtual void on_train_begin([[maybe_unused]] const Trainer& trainer) {}

  /// After every train_batch call. `batch` counts from 0 within the epoch.
  virtual void on_batch_end([[maybe_unused]] const Trainer& trainer,
                            [[maybe_unused]] std::int64_t epoch,
                            [[maybe_unused]] std::int64_t batch,
                            [[maybe_unused]] const BatchStats& stats) {}

  /// After each epoch, with that epoch's aggregated stats.
  virtual void on_epoch_end([[maybe_unused]] const Trainer& trainer,
                            [[maybe_unused]] const EpochStats& stats) {}

  /// When fit() stops early on the stop flag, after the last completed
  /// batch and before on_train_end. `epoch`/`batch` is the resume cursor
  /// (batches completed within `epoch`).
  virtual void on_train_interrupted([[maybe_unused]] const Trainer& trainer,
                                    [[maybe_unused]] std::int64_t epoch,
                                    [[maybe_unused]] std::int64_t batch) {}

  /// After the last epoch of fit(), with the complete result. Also fires
  /// (after on_train_interrupted) when the run was interrupted.
  virtual void on_train_end([[maybe_unused]] const Trainer& trainer,
                            [[maybe_unused]] const TrainResult& result) {}
};

class Trainer {
 public:
  Trainer(models::Classifier& model, TrainConfig config);
  virtual ~Trainer() = default;

  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  virtual std::string name() const = 0;

  /// Runs config.epochs epochs over `train` (pixels already in [-1, 1]).
  /// Batches stream through a data::PrefetchBatcher (DESIGN.md §12), which
  /// gathers batch N+1 on the thread pool while train_batch consumes batch
  /// N — bit-identical to a fit_epoch loop over a synchronous Batcher.
  /// With config.resume_from set, restores that snapshot first and
  /// continues from its cursor, bit-identical to an uninterrupted run.
  /// Polls ckpt::stop_requested() at batch boundaries; on a stop it fires
  /// on_train_interrupted and returns with TrainResult::interrupted set.
  TrainResult fit(const data::Dataset& train);

  /// Runs exactly one epoch over any batch stream (the synchronous Batcher
  /// or a PrefetchBatcher); exposed for callers that own their batch
  /// stream, such as perfbench's deadline-bounded training runs. Fires
  /// on_batch_end/on_epoch_end but not the train begin/end events.
  EpochStats fit_epoch(data::BatchSource& source, std::int64_t epoch_index);

  /// Registers a non-owning observer; it must outlive the trainer. For
  /// per-epoch console output attach a ConsoleProgressObserver here.
  void add_observer(TrainObserver* observer);
  /// Removes every observer, including the owned shims.
  void clear_observers();

  /// Complete snapshot of the run: parameters, optimizer state, every RNG
  /// stream, the epoch/batch cursor and (inside fit()) the batcher. Safe to
  /// call from observers at batch/epoch boundaries. Const-qualified for the
  /// same reason as model(): observers hold `const Trainer&`, and capturing
  /// copies state without mutating the training trajectory.
  ckpt::TrainState capture_state() const;

  /// Restores a capture_state()/checkpoint snapshot. Throws
  /// zkg::SerializationError when the snapshot's defense name, seed, or any
  /// tensor shape does not match this trainer.
  void restore_state(const ckpt::TrainState& state);

  /// NaN recoveries performed so far (counted across the trainer lifetime).
  std::int64_t rollback_count() const { return rollbacks_; }
  /// Batches dropped by the skip_batch rollback policy.
  std::int64_t skipped_batch_count() const { return skipped_batches_; }

  /// The model being trained. Const-qualified but returning a mutable
  /// reference: the Trainer never owns the model, and observers receiving
  /// `const Trainer&` legitimately inspect (checked builds: NaN-scan) its
  /// parameters.
  models::Classifier& model() const { return model_; }
  const TrainConfig& config() const { return config_; }

 protected:
  /// Consumes one mini-batch: computes losses, updates weights.
  virtual BatchStats train_batch(const data::Batch& batch) = 0;

  /// Checkpointed state (DESIGN.md §11). Each constructor in a trainer's
  /// hierarchy registers the RNG streams, optimizers and networks its
  /// defense adds; capture_state(), restore_state() and the rollback
  /// learning-rate decay walk these lists, in registration order.
  void add_rng(std::string name, Rng& rng);
  /// Registers the streams owner.collect_rngs() reports (the model, the
  /// discriminator, an attack) as "<prefix>0", "<prefix>1", ...
  template <typename Owner>
  void add_rngs(const std::string& prefix, Owner& owner) {
    std::vector<Rng*> rngs;
    owner.collect_rngs(rngs);
    for (std::size_t i = 0; i < rngs.size(); ++i) {
      add_rng(prefix + std::to_string(i), *rngs[i]);
    }
  }
  /// The snapshot's optimizers[i] is the i-th registered optimizer.
  void add_optimizer(optim::Adam& optimizer);
  /// The network's parameters travel as the named XTRA tensor group.
  void add_network(std::string name, nn::Sequential& net);

  models::Classifier& model_;
  TrainConfig config_;
  Rng rng_;
  std::unique_ptr<optim::Adam> optimizer_;

 private:
  /// Non-const body of capture_state(); `include_batcher` is false for the
  /// in-memory rollback snapshot (the already-drawn batch must not be
  /// re-delivered after a restore).
  ckpt::TrainState capture_state_impl(bool include_batcher);
  /// Shared restore body. Rollback passes include_counters=false so a
  /// restore can never refill its own retry budget, and
  /// include_batcher=false so the batch cursor keeps advancing.
  void apply_state(const ckpt::TrainState& state, bool include_counters,
                   bool include_batcher);
  /// One batch with the rollback policy wrapped around train_batch AND the
  /// observer fan-out (the checked shim surfaces NaNs from on_batch_end).
  void run_batch(const data::Batch& batch);

  std::vector<std::pair<std::string, Rng*>> rngs_;
  std::vector<optim::Adam*> optimizers_;
  std::vector<std::pair<std::string, nn::Sequential*>> networks_;

  std::vector<TrainObserver*> observers_;
  // A CheckedMathObserver installed in ZKG_CHECKED builds and whenever
  // rollback.max_retries > 0, so every such run is NaN-tripwired without
  // call sites opting in; null otherwise.
  std::unique_ptr<TrainObserver> checked_shim_;
  // Owned auto-checkpointing observer (config.checkpoint.dir non-empty).
  std::unique_ptr<TrainObserver> ckpt_shim_;

  // Resume cursor + partial-epoch accumulators (captured into TrainState).
  data::BatchSource* active_batcher_ = nullptr;  // non-null only inside fit()
  data::Batch fit_batch_;  // persistent batch buffer (pooled, reused)
  std::int64_t cur_epoch_ = 0;
  std::int64_t cur_batch_ = 0;  // batches completed within cur_epoch_
  double loss_sum_ = 0.0;
  double disc_sum_ = 0.0;
  std::vector<ckpt::EpochRecord> history_;
  bool resume_mid_epoch_ = false;  // skip the next start_epoch() reshuffle
  bool interrupted_ = false;

  // NaN-rollback machinery.
  std::int64_t rollbacks_ = 0;
  std::int64_t skipped_batches_ = 0;
  std::unique_ptr<ckpt::TrainState> last_good_;
};

using TrainerPtr = std::unique_ptr<Trainer>;

}  // namespace zkg::defense
