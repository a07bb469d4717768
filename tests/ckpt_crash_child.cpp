// Child process for the fault-injection tests (test_ckpt_fault.cpp,
// test_failpoint.cpp). Trains Vanilla with per-batch checkpointing into
// argv[1]. With argv[2] = N, the first N checkpoint writes go through and
// then ckpt.fsync is armed with the crash policy, so write N + 1 SIGKILLs
// this process with its payload in an unsynced tmp file. Without argv[2]
// the parent arms its failpoints through ZKG_FAILPOINTS.
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "data/preprocess.hpp"
#include "defense/vanilla.hpp"
#include "models/lenet.hpp"

namespace {

// Registered after the trainer's own CheckpointObserver, so on_batch_end
// runs once that batch's checkpoint is published.
class CrashAfterWrites : public zkg::defense::TrainObserver {
 public:
  explicit CrashAfterWrites(std::int64_t writes) : writes_(writes) {}

  void on_batch_end(const zkg::defense::Trainer&, std::int64_t, std::int64_t,
                    const zkg::defense::BatchStats&) override {
    if (++seen_ == writes_) {
      zkg::fail::arm("ckpt.fsync", {zkg::fail::Policy::kCrash});
    }
  }

 private:
  std::int64_t writes_;
  std::int64_t seen_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2 && argc != 3) {
    std::fprintf(stderr, "usage: %s <checkpoint-dir> [writes-before-crash]\n",
                 argv[0]);
    return 2;
  }
  using namespace zkg;
  Rng data_rng(42);
  const data::Dataset train =
      data::scale_pixels(data::make_synth_digits(192, data_rng));
  Rng model_rng(7);
  models::Classifier model =
      models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, model_rng);

  defense::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 32;
  config.checkpoint.dir = argv[1];
  config.checkpoint.every_batches = 1;
  defense::VanillaTrainer trainer(model, config);
  CrashAfterWrites crash(argc == 3 ? std::atoll(argv[2]) : 0);
  if (argc == 3) trainer.add_observer(&crash);
  trainer.fit(train);
  return 0;
}
