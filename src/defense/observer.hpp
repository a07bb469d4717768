// Stock TrainObserver implementations: the console progress printer, the
// telemetry bridge, and a JSON Lines epoch recorder for bench binaries.
#pragma once

#include <iosfwd>

#include "defense/trainer.hpp"
#include "obs/telemetry.hpp"

namespace zkg::defense {

/// Prints one log::info line per epoch: the opt-in console progress
/// channel (attach via Trainer::add_observer).
class ConsoleProgressObserver : public TrainObserver {
 public:
  void on_epoch_end(const Trainer& trainer, const EpochStats& stats) override;
};

/// Bridges training progress into the obs registry: counters train.runs /
/// train.epochs / train.batches, gauges train.classifier_loss /
/// train.discriminator_loss / train.epoch_seconds. Counts regardless of
/// obs::enabled() — attaching the observer is the opt-in.
class TelemetryObserver : public TrainObserver {
 public:
  explicit TelemetryObserver(
      obs::Telemetry& telemetry = obs::Telemetry::global());

  void on_train_begin(const Trainer& trainer) override;
  void on_batch_end(const Trainer& trainer, std::int64_t epoch,
                    std::int64_t batch, const BatchStats& stats) override;
  void on_epoch_end(const Trainer& trainer, const EpochStats& stats) override;

 private:
  obs::Telemetry& telemetry_;
  obs::Counter& runs_;
  obs::Counter& epochs_;
  obs::Counter& batches_;
};

/// The training-loop arm of the ZKG_CHECKED NaN/Inf tripwires: after every
/// batch it verifies the reported classifier/discriminator losses are
/// finite and re-checks every model parameter, throwing zkg::NonFiniteError
/// naming the trainer, epoch/batch and the first offending parameter.
/// Compiled in every build — attach one wherever NaN debugging is needed —
/// and installed automatically on every Trainer in ZKG_CHECKED builds and
/// on any Trainer whose rollback.max_retries > 0.
class CheckedMathObserver : public TrainObserver {
 public:
  void on_batch_end(const Trainer& trainer, std::int64_t epoch,
                    std::int64_t batch, const BatchStats& stats) override;
};

/// Writes one JSON object per line to `out`: a train_begin record, one
/// epoch record per epoch, and a train_end summary. This is the structured
/// BENCH-record source of truth used by `paper fig5-time` and friends; the
/// schema is documented in DESIGN.md §9.
class JsonlTrainObserver : public TrainObserver {
 public:
  /// `out` must outlive the observer.
  explicit JsonlTrainObserver(std::ostream& out) : out_(out) {}

  void on_train_begin(const Trainer& trainer) override;
  void on_epoch_end(const Trainer& trainer, const EpochStats& stats) override;
  void on_train_end(const Trainer& trainer,
                    const TrainResult& result) override;

 private:
  std::ostream& out_;
};

}  // namespace zkg::defense
