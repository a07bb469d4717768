#include "defense/trainer.hpp"

#include <cmath>
#include <sstream>

#include "ckpt/signal.hpp"
#include "common/stopwatch.hpp"
#include "data/prefetch_batcher.hpp"
#include "defense/checkpointing.hpp"
#include "defense/observer.hpp"
#include "obs/telemetry.hpp"

namespace zkg::defense {
namespace {

[[noreturn]] void config_fail(const char* field, const std::string& detail) {
  std::ostringstream message;
  message << "TrainConfig: invalid " << field << " (" << detail << ")";
  throw ConfigError(message.str());
}

template <typename T>
std::string describe(const char* constraint, T value) {
  std::ostringstream out;
  out << "must be " << constraint << ", got " << value;
  return out.str();
}

[[noreturn]] void state_fail(const std::string& what) {
  throw SerializationError("TrainState: " + what);
}

}  // namespace

void TrainConfig::validate() const {
  if (epochs < 1) config_fail("epochs", describe(">= 1", epochs));
  if (batch_size < 1) config_fail("batch_size", describe(">= 1", batch_size));
  if (!(learning_rate > 0.0f) || !std::isfinite(learning_rate)) {
    config_fail("learning_rate", describe("> 0 and finite", learning_rate));
  }
  if (!(sigma >= 0.0f)) config_fail("sigma", describe(">= 0", sigma));
  if (!(lambda >= 0.0f)) config_fail("lambda", describe(">= 0", lambda));
  if (!(gamma >= 0.0f && gamma <= 1.0f)) {
    config_fail("gamma", describe("in [0, 1]", gamma));
  }
  if (disc_steps < 1) config_fail("disc_steps", describe(">= 1", disc_steps));
  if (!(disc_learning_rate > 0.0f) || !std::isfinite(disc_learning_rate)) {
    config_fail("disc_learning_rate",
                describe("> 0 and finite", disc_learning_rate));
  }
  if (!(attack.epsilon >= 0.0f)) {
    config_fail("attack.epsilon", describe(">= 0", attack.epsilon));
  }
  if (!(attack.step_size > 0.0f)) {
    config_fail("attack.step_size", describe("> 0", attack.step_size));
  }
  if (attack.iterations < 1) {
    config_fail("attack.iterations", describe(">= 1", attack.iterations));
  }
  if (attack.restarts < 1) {
    config_fail("attack.restarts", describe(">= 1", attack.restarts));
  }
  if (checkpoint.every_batches < 0) {
    config_fail("checkpoint.every_batches",
                describe(">= 0", checkpoint.every_batches));
  }
  if (checkpoint.every_epochs < 0) {
    config_fail("checkpoint.every_epochs",
                describe(">= 0", checkpoint.every_epochs));
  }
  if (checkpoint.keep_last < 1) {
    config_fail("checkpoint.keep_last", describe(">= 1", checkpoint.keep_last));
  }
  if (rollback.max_retries < 0) {
    config_fail("rollback.max_retries", describe(">= 0", rollback.max_retries));
  }
  if (!(rollback.lr_decay > 0.0f && rollback.lr_decay <= 1.0f)) {
    config_fail("rollback.lr_decay", describe("in (0, 1]", rollback.lr_decay));
  }
}

double TrainResult::mean_epoch_seconds() const {
  if (epochs.empty()) return 0.0;
  double total = 0.0;
  for (const EpochStats& e : epochs) total += e.seconds;
  return total / static_cast<double>(epochs.size());
}

float TrainResult::final_loss() const {
  return epochs.empty() ? 0.0f : epochs.back().classifier_loss;
}

bool TrainResult::converged() const {
  if (epochs.size() < 2) return false;
  const float first = epochs.front().classifier_loss;
  const float last = epochs.back().classifier_loss;
  if (!std::isfinite(last)) return false;
  return last < 0.9f * first;
}

Trainer::Trainer(models::Classifier& model, TrainConfig config)
    : model_(model), config_(config), rng_(config.seed) {
  config_.validate();
  optimizer_ = std::make_unique<optim::Adam>(
      model_.parameters(), optim::AdamConfig{.learning_rate =
                                                 config_.learning_rate});
  add_optimizer(*optimizer_);
  add_rng("trainer", rng_);
  add_rngs("model.rng.", model_);
  if (ZKG_CHECKED_ENABLED || config_.rollback.max_retries > 0) {
    // Checked builds tripwire every training run, and a rollback policy
    // needs a NonFiniteError to act on in every build: losses and
    // parameters are verified finite after each batch. clear_observers()
    // opts out.
    checked_shim_ = std::make_unique<CheckedMathObserver>();
    observers_.push_back(checked_shim_.get());
  }
  if (!config_.checkpoint.dir.empty()) {
    ckpt_shim_ = std::make_unique<CheckpointObserver>(config_.checkpoint);
    observers_.push_back(ckpt_shim_.get());
  }
}

void Trainer::add_observer(TrainObserver* observer) {
  ZKG_REQUIRE(observer != nullptr) << " Trainer::add_observer(nullptr)";
  observers_.push_back(observer);
}

void Trainer::clear_observers() {
  observers_.clear();
  checked_shim_.reset();
  ckpt_shim_.reset();
}

void Trainer::add_rng(std::string name, Rng& rng) {
  rngs_.emplace_back(std::move(name), &rng);
}

void Trainer::add_optimizer(optim::Adam& optimizer) {
  optimizers_.push_back(&optimizer);
}

void Trainer::add_network(std::string name, nn::Sequential& net) {
  networks_.emplace_back(std::move(name), &net);
}

ckpt::TrainState Trainer::capture_state() const {
  // Const body, mutable work: Sequential::state() is non-const but
  // observationally pure (same precedent as model()).
  return const_cast<Trainer*>(this)->capture_state_impl(
      /*include_batcher=*/true);
}

ckpt::TrainState Trainer::capture_state_impl(bool include_batcher) {
  ckpt::TrainState state;
  state.defense = name();
  state.seed = config_.seed;
  state.epoch = cur_epoch_;
  state.batch = cur_batch_;
  state.loss_sum = loss_sum_;
  state.disc_sum = disc_sum_;
  state.completed_epochs = history_;
  state.counters.emplace_back("rollbacks", rollbacks_);
  state.counters.emplace_back("skipped_batches", skipped_batches_);
  state.model_params = model_.net().state();
  for (optim::Adam* optimizer : optimizers_) {
    state.optimizers.push_back(optimizer->state());
  }
  for (const auto& [stream, rng] : rngs_) {
    state.rng_streams.emplace_back(stream, rng->state());
  }
  if (include_batcher && active_batcher_ != nullptr) {
    state.has_batcher = true;
    state.batcher = active_batcher_->state();
  }
  for (const auto& [group, net] : networks_) {
    state.extra_tensors.emplace_back(group, net->state());
  }
  return state;
}

void Trainer::restore_state(const ckpt::TrainState& state) {
  apply_state(state, /*include_counters=*/true, /*include_batcher=*/true);
  // At a mid-epoch cursor the restored batcher already holds this epoch's
  // permutation; at an epoch boundary the next fit_epoch must reshuffle
  // (from the restored shuffle stream) exactly as the original run did.
  resume_mid_epoch_ = state.has_batcher && state.batch > 0;
}

void Trainer::apply_state(const ckpt::TrainState& state, bool include_counters,
                          bool include_batcher) {
  if (state.defense != name()) {
    state_fail("snapshot is for defense '" + state.defense +
               "', this trainer is '" + name() + "'");
  }
  if (state.seed != config_.seed) {
    std::ostringstream out;
    out << "snapshot seed " << state.seed << " != config seed "
        << config_.seed << " — resumed run would not be bit-identical";
    state_fail(out.str());
  }
  if (state.optimizers.size() < optimizers_.size()) {
    std::ostringstream out;
    out << "snapshot holds " << state.optimizers.size()
        << " optimizer(s), this trainer needs " << optimizers_.size();
    state_fail(out.str());
  }
  model_.net().load_state(state.model_params);
  for (std::size_t i = 0; i < optimizers_.size(); ++i) {
    optimizers_[i]->load_state(state.optimizers[i]);
  }
  for (const auto& [stream, rng] : rngs_) {
    rng->set_state(state.rng_stream(stream));
  }
  for (const auto& [group, net] : networks_) {
    net->load_state(state.tensor_group(group));
  }
  cur_epoch_ = state.epoch;
  cur_batch_ = state.batch;
  loss_sum_ = state.loss_sum;
  disc_sum_ = state.disc_sum;
  history_ = state.completed_epochs;
  if (include_counters) {
    rollbacks_ = state.counter_or("rollbacks");
    skipped_batches_ = state.counter_or("skipped_batches");
  }
  if (include_batcher && state.has_batcher) {
    if (active_batcher_ == nullptr) {
      state_fail("snapshot has batcher state but no batcher is active; "
                 "resume via fit(), not restore_state() alone");
    }
    active_batcher_->load_state(state.batcher);
  }
}

void Trainer::run_batch(const data::Batch& batch) {
  const RollbackConfig& rb = config_.rollback;
  while (true) {
    try {
      BatchStats stats;
      {
        ZKG_SPAN("train.batch");
        stats = train_batch(batch);
      }
      loss_sum_ += stats.classifier_loss;
      disc_sum_ += stats.discriminator_loss;
      const std::int64_t index = cur_batch_;
      ++cur_batch_;  // before the fan-out: checkpoints record completed count
      for (TrainObserver* observer : observers_) {
        observer->on_batch_end(*this, cur_epoch_, index, stats);
      }
      if (rb.max_retries > 0) {
        last_good_ = std::make_unique<ckpt::TrainState>(
            capture_state_impl(/*include_batcher=*/false));
      }
      return;
    } catch (const NonFiniteError&) {
      if (rb.max_retries <= 0 || rollbacks_ >= rb.max_retries ||
          last_good_ == nullptr) {
        throw;
      }
      ++rollbacks_;
      ZKG_COUNT("train.rollbacks", 1);
      // Counters stay: the restore must not refill its own retry budget.
      apply_state(*last_good_, /*include_counters=*/false,
                  /*include_batcher=*/false);
      if (rb.lr_decay < 1.0f) {
        for (optim::Adam* optimizer : optimizers_) {
          optimizer->set_learning_rate(optimizer->learning_rate() *
                                       rb.lr_decay);
        }
      }
      // Re-capture so repeated rollbacks compound the LR decay instead of
      // restoring the original rate each time.
      last_good_ = std::make_unique<ckpt::TrainState>(
          capture_state_impl(/*include_batcher=*/false));
      if (rb.skip_batch) {
        ++skipped_batches_;
        ZKG_COUNT("train.skipped_batches", 1);
        return;
      }
      // else: retry the same batch with the decayed learning rate.
    }
  }
}

EpochStats Trainer::fit_epoch(data::BatchSource& source,
                              std::int64_t epoch_index) {
  ZKG_SPAN("train.epoch");
  Stopwatch watch;
  cur_epoch_ = epoch_index;
  if (resume_mid_epoch_) {
    // The restored batcher is already mid-permutation; reshuffling here
    // would replay or drop batches.
    resume_mid_epoch_ = false;
  } else {
    source.start_epoch();
    cur_batch_ = 0;
    loss_sum_ = 0.0;
    disc_sum_ = 0.0;
  }
  if (config_.rollback.max_retries > 0 && last_good_ == nullptr) {
    last_good_ = std::make_unique<ckpt::TrainState>(
        capture_state_impl(/*include_batcher=*/false));
  }
  while (true) {
    if (ckpt::stop_requested()) {
      interrupted_ = true;
      break;
    }
    bool have_batch = false;
    {
      ZKG_SPAN("train.batch_fetch");
      have_batch = source.next_into(fit_batch_);
    }
    if (!have_batch) break;
    run_batch(fit_batch_);
  }
  EpochStats stats;
  stats.epoch = epoch_index;
  stats.classifier_loss =
      cur_batch_ > 0 ? static_cast<float>(loss_sum_ / cur_batch_) : 0.0f;
  stats.discriminator_loss =
      cur_batch_ > 0 ? static_cast<float>(disc_sum_ / cur_batch_) : 0.0f;
  stats.seconds = watch.seconds();
  stats.batches = cur_batch_;
  if (interrupted_) {
    // Partial epoch: the cursor stays where it is for the final checkpoint;
    // no epoch-end events fire.
    return stats;
  }
  history_.push_back(ckpt::EpochRecord{stats.epoch, stats.classifier_loss,
                                       stats.discriminator_loss,
                                       stats.seconds, stats.batches});
  // Advance the cursor before the fan-out so an epoch-boundary checkpoint
  // records "next epoch, batch 0" and resumes with a fresh shuffle.
  cur_epoch_ = epoch_index + 1;
  cur_batch_ = 0;
  loss_sum_ = 0.0;
  disc_sum_ = 0.0;
  last_good_.reset();  // re-captured at the next epoch's start
  for (TrainObserver* observer : observers_) {
    observer->on_epoch_end(*this, stats);
  }
  return stats;
}

TrainResult Trainer::fit(const data::Dataset& train) {
  ZKG_SPAN("train.fit");
  // The prefetcher forks rng_ exactly once, as a synchronous Batcher would,
  // so fit() trains bit-identically to a fit_epoch loop over a Batcher
  // (DESIGN.md §12; tests/test_pipeline.cpp).
  data::PrefetchBatcher source(train, config_.batch_size, rng_);
  active_batcher_ = &source;
  cur_epoch_ = 0;
  cur_batch_ = 0;
  loss_sum_ = 0.0;
  disc_sum_ = 0.0;
  history_.clear();
  resume_mid_epoch_ = false;
  interrupted_ = false;
  last_good_.reset();
  if (!config_.resume_from.empty()) {
    restore_state(ckpt::load_resume_point(config_.resume_from));
  }
  for (TrainObserver* observer : observers_) {
    observer->on_train_begin(*this);
  }
  TrainResult result;
  for (const ckpt::EpochRecord& record : history_) {
    result.epochs.push_back(EpochStats{record.epoch, record.classifier_loss,
                                       record.discriminator_loss,
                                       record.seconds, record.batches});
  }
  Stopwatch watch;
  for (std::int64_t epoch = cur_epoch_; epoch < config_.epochs; ++epoch) {
    const EpochStats stats = fit_epoch(source, epoch);
    if (interrupted_) break;
    result.epochs.push_back(stats);
  }
  result.total_seconds = watch.seconds();
  result.interrupted = interrupted_;
  if (interrupted_) {
    // The final checkpoint for `resume_from` is written here by the
    // CheckpointObserver (or any user observer).
    for (TrainObserver* observer : observers_) {
      observer->on_train_interrupted(*this, cur_epoch_, cur_batch_);
    }
  }
  for (TrainObserver* observer : observers_) {
    observer->on_train_end(*this, result);
  }
  active_batcher_ = nullptr;
  return result;
}

}  // namespace zkg::defense
