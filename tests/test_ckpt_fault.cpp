// Fault-injection harness (DESIGN.md §11): the ckpt.fsync crash failpoint
// SIGKILLs a subprocess in the middle of writing a checkpoint, and the
// published files must still be intact and resumable. The child binary path
// arrives via the ZKG_CRASH_CHILD compile definition.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/io.hpp"
#include "ckpt/train_state.hpp"
#include "common/rng.hpp"
#include "data/preprocess.hpp"
#include "defense/vanilla.hpp"
#include "models/lenet.hpp"

namespace zkg::ckpt {
namespace {

namespace fs = std::filesystem;

TEST(FaultInjection, Kill9MidCheckpointLeavesResumableState) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("zkg_fault_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  // keep_last defaults to 3, so after writes 1..3 publish, the child arms
  // ckpt.fsync with the crash policy and write 4 (epoch 0, after batch 4)
  // dies before its fsync, leaving checkpoints for batches 1..3 plus an
  // unsynced .tmp.
  const std::string command = ZKG_CRASH_CHILD " \"" + dir +
                              "\" 3 >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  ASSERT_NE(status, -1);
  // Depending on the shell, the SIGKILL surfaces as a signal status or as
  // the conventional exit code 128+9.
  const bool killed =
      (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) ||
      (WIFEXITED(status) && WEXITSTATUS(status) == 128 + SIGKILL);
  ASSERT_TRUE(killed) << "child was not killed as expected, status=" << status;

  // A stray .tmp from the interrupted write must exist; published files
  // must not be corrupted by it.
  bool found_tmp = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") found_tmp = true;
  }
  EXPECT_TRUE(found_tmp) << "expected the crashed write's .tmp leftover";

  const std::vector<std::string> published = list_checkpoints(dir);
  ASSERT_FALSE(published.empty());
  // Every published checkpoint — not just the newest — parses cleanly.
  for (const std::string& path : published) {
    EXPECT_NO_THROW(load_train_state(path)) << path;
  }
  const TrainState newest = load_resume_point(dir);
  EXPECT_EQ(newest.defense, "Vanilla");
  EXPECT_EQ(newest.epoch, 0);
  EXPECT_EQ(newest.batch, 3);

  // Resume in-process from the surviving snapshot and finish the run.
  Rng data_rng(42);
  const data::Dataset train =
      data::scale_pixels(data::make_synth_digits(192, data_rng));
  Rng model_rng(7);
  models::Classifier model =
      models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, model_rng);
  defense::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 32;
  config.checkpoint.dir = dir;
  config.resume_from = dir;
  defense::VanillaTrainer trainer(model, config);
  const defense::TrainResult result = trainer.fit(train);
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.epochs.size(), 2u);

  // Rotation during the resumed run swept the crash leftover.
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace zkg::ckpt
