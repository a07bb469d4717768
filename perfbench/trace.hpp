// Timing decorators over the library's public virtual interfaces: nn::Module,
// attacks::Attack, data::BatchSource and defense::TrainObserver. Each one
// forwards every call to the object it wraps and reads steady_clock around
// the forwarded call, nothing else, so a traced run computes bit-identically
// to an untraced one (run_train checks this on every run).
//
// All decorators of one run share a Trace. Decorated calls come from one
// thread at a time (the training thread, or the serving engine thread); the
// Trace is read only after that thread has finished with it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "data/batcher.hpp"
#include "defense/checkpointing.hpp"
#include "models/classifier.hpp"

namespace perfbench {

/// Busy time, calls and FLOPs of one layer of the traced network.
struct LayerTimes {
  std::string key;  // "nn.<index>-<kind>", e.g. "nn.0-conv2d"
  bool counts_flops = false;  // conv2d and dense layers
  double fwd_s = 0.0;
  double bwd_s = 0.0;
  std::int64_t fwd_calls = 0;
  double flops = 0.0;  // forward + backward, computed from tensor shapes
};

struct Trace {
  std::vector<LayerTimes> layers;
  double nn_s = 0.0;          // all layer busy time
  double attack_s = 0.0;      // inside Attack::generate(_into)
  double attack_nn_s = 0.0;   // nn time nested inside the attack
  double data_s = 0.0;        // blocked in BatchSource calls
  double ckpt_s = 0.0;        // inside the checkpoint observer
  std::int64_t ckpt_saves = 0;

  /// Zeroes every figure, keeping the layer keys.
  void reset();
};

/// A Classifier whose layers are timing decorators over `model`'s layers.
/// `model` keeps owning the layers and must outlive the result; both share
/// the same parameters. Sizes `trace.layers` to the network.
zkg::models::Classifier traced_classifier(zkg::models::Classifier& model,
                                          Trace& trace);

class TimedAttack : public zkg::attacks::Attack {
 public:
  TimedAttack(zkg::attacks::AttackPtr inner, Trace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  std::string name() const override { return inner_->name(); }
  zkg::Tensor generate(zkg::models::Classifier& model,
                       const zkg::Tensor& images,
                       const std::vector<std::int64_t>& labels) override;
  void generate_into(zkg::models::Classifier& model,
                     const zkg::Tensor& images,
                     const std::vector<std::int64_t>& labels,
                     zkg::Tensor& adv) override;
  void collect_rngs(std::vector<zkg::Rng*>& out) override {
    inner_->collect_rngs(out);
  }

 private:
  zkg::attacks::AttackPtr inner_;
  Trace& trace_;
};

class TimedSource : public zkg::data::BatchSource {
 public:
  TimedSource(zkg::data::BatchSource& inner, Trace& trace)
      : inner_(inner), trace_(trace) {}

  void start_epoch() override;
  bool next_into(zkg::data::Batch& out) override;
  std::int64_t batch_size() const override { return inner_.batch_size(); }
  std::int64_t batches_per_epoch() const override {
    return inner_.batches_per_epoch();
  }
  zkg::data::BatcherState state() const override { return inner_.state(); }
  void load_state(const zkg::data::BatcherState& state) override {
    inner_.load_state(state);
  }

 private:
  zkg::data::BatchSource& inner_;
  Trace& trace_;
};

/// Times every callback of a CheckpointObserver and counts its saves.
class TimedCheckpoints : public zkg::defense::TrainObserver {
 public:
  TimedCheckpoints(zkg::defense::CheckpointObserver& inner, Trace& trace)
      : inner_(inner), trace_(trace) {}

  void on_train_begin(const zkg::defense::Trainer& trainer) override;
  void on_batch_end(const zkg::defense::Trainer& trainer, std::int64_t epoch,
                    std::int64_t batch,
                    const zkg::defense::BatchStats& stats) override;
  void on_epoch_end(const zkg::defense::Trainer& trainer,
                    const zkg::defense::EpochStats& stats) override;
  void on_train_interrupted(const zkg::defense::Trainer& trainer,
                            std::int64_t epoch, std::int64_t batch) override;
  void on_train_end(const zkg::defense::Trainer& trainer,
                    const zkg::defense::TrainResult& result) override;

 private:
  template <typename Call>
  void timed(Call&& call);

  zkg::defense::CheckpointObserver& inner_;
  Trace& trace_;
};

}  // namespace perfbench
