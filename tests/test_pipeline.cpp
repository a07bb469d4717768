// Async pipeline + scheduler tests (DESIGN.md §12): the PrefetchBatcher
// must be bit-identical to the synchronous Batcher — same batch stream,
// same trained weights, checkpoint-exact mid-epoch state — and the
// experiment scheduler must produce the serial results regardless of job
// concurrency. The whole file runs under the CI TSan leg.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/io.hpp"
#include "ckpt/signal.hpp"
#include "common/failpoint.hpp"
#include "data/batcher.hpp"
#include "data/prefetch_batcher.hpp"
#include "data/preprocess.hpp"
#include "defense/cls.hpp"
#include "defense/registry.hpp"
#include "defense/vanilla.hpp"
#include "defense/zk_gandef.hpp"
#include "eval/experiments.hpp"
#include "eval/scheduler.hpp"
#include "models/lenet.hpp"
#include "tensor/backend/backend.hpp"

namespace zkg {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("zkg_pipe_" + tag + "_" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

data::Dataset small_train_set(std::int64_t n = 192) {
  Rng rng(42);
  return data::scale_pixels(data::make_synth_digits(n, rng));
}

models::Classifier fresh_model(std::uint64_t seed = 7) {
  Rng rng(seed);
  return models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
}

std::vector<Tensor> params_of(models::Classifier& model) {
  return model.net().state();
}

void expect_params_identical(std::vector<Tensor> a, std::vector<Tensor> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].equals(b[i])) << "parameter tensor " << i << " differs";
  }
}

void expect_batches_identical(data::BatchSource& a, data::BatchSource& b,
                              int epochs) {
  data::Batch batch_a;
  data::Batch batch_b;
  for (int e = 0; e < epochs; ++e) {
    std::int64_t n = 0;
    while (true) {
      const bool more_a = a.next_into(batch_a);
      const bool more_b = b.next_into(batch_b);
      ASSERT_EQ(more_a, more_b) << "epoch " << e << " batch " << n;
      if (!more_a) break;
      EXPECT_EQ(batch_a.labels, batch_b.labels)
          << "epoch " << e << " batch " << n;
      EXPECT_TRUE(batch_a.images.equals(batch_b.images))
          << "epoch " << e << " batch " << n;
      ++n;
    }
    a.start_epoch();
    b.start_epoch();
  }
}

// --- PrefetchBatcher vs Batcher: the bit-identity contract ---

TEST(PrefetchBatcher, StreamsTheExactSynchronousBatchSequence) {
  const data::Dataset train = small_train_set(100);  // ragged final batch
  Rng sync_rng(11);
  Rng pre_rng(11);
  data::Batcher sync(train, 32, sync_rng);
  data::PrefetchBatcher prefetch(train, 32, pre_rng);
  EXPECT_EQ(prefetch.batch_size(), sync.batch_size());
  EXPECT_EQ(prefetch.batches_per_epoch(), sync.batches_per_epoch());
  expect_batches_identical(sync, prefetch, /*epochs=*/3);
}

TEST(PrefetchBatcher, UnshuffledStreamMatchesToo) {
  const data::Dataset train = small_train_set(64);
  Rng sync_rng(3);
  Rng pre_rng(3);
  data::Batcher sync(train, 16, sync_rng, /*shuffle=*/false);
  data::PrefetchBatcher prefetch(train, 16, pre_rng, /*shuffle=*/false);
  expect_batches_identical(sync, prefetch, /*epochs=*/2);
}

TEST(PrefetchBatcher, StateSnapshotsTheConsumedCursorNotTheReadAhead) {
  const data::Dataset train = small_train_set(96);
  Rng pre_rng(5);
  data::PrefetchBatcher prefetch(train, 16, pre_rng);
  data::Batch batch;
  ASSERT_TRUE(prefetch.next_into(batch));
  ASSERT_TRUE(prefetch.next_into(batch));
  // The producer has read ahead past batch 2, but the snapshot must replay
  // from exactly where the *consumer* stands.
  const data::BatcherState snap = prefetch.state();
  EXPECT_EQ(snap.cursor, 32);

  // The snapshot restores into the synchronous implementation and yields
  // the same remaining sequence — the two are interchangeable mid-epoch.
  Rng sync_rng(999);
  data::Batcher sync(train, 16, sync_rng);
  sync.load_state(snap);
  expect_batches_identical(prefetch, sync, /*epochs=*/2);
}

TEST(PrefetchBatcher, LoadStateRejectsCorruptPermutations) {
  const data::Dataset train = small_train_set(64);
  Rng rng(5);
  data::PrefetchBatcher prefetch(train, 16, rng);
  const data::BatcherState snap = prefetch.state();

  data::BatcherState bad = snap;
  bad.order[0] = bad.order[1];  // duplicate index: not a permutation
  EXPECT_THROW(prefetch.load_state(bad), SerializationError);
  bad = snap;
  bad.cursor = 1000;
  EXPECT_THROW(prefetch.load_state(bad), SerializationError);
  // The rejected loads left the batcher usable: it still streams an epoch.
  prefetch.load_state(snap);
  data::Batch batch;
  std::int64_t batches = 0;
  while (prefetch.next_into(batch)) ++batches;
  EXPECT_EQ(batches, prefetch.batches_per_epoch());
}

// Fill-thread fault injection (DESIGN.md §16): an injected fault on the
// producer surfaces as the consumer's exception, the snapshot still points
// at the consumer's cursor, and the batcher resumes streaming — the exact
// synchronous sequence — once the failpoint is disarmed.
TEST(PrefetchBatcher, FillFaultSurfacesOnTheConsumerAndStaysResumable) {
  const data::Dataset train = small_train_set(96);  // 6 batches of 16
  Rng pre_rng(21);
  data::PrefetchBatcher prefetch(train, 16, pre_rng);
  data::Batch batch;
  ASSERT_TRUE(prefetch.next_into(batch));
  ASSERT_TRUE(prefetch.next_into(batch));

  std::int64_t consumed = 2;
  {
    fail::FailpointScope scope("data.prefetch_fill", fail::Spec{});
    // At most one pre-scope read-ahead can still be in flight, so the
    // injected fault must surface on the consumer within two calls.
    bool surfaced = false;
    for (int i = 0; i < 2 && !surfaced; ++i) {
      try {
        ASSERT_TRUE(prefetch.next_into(batch));
        ++consumed;
      } catch (const fail::InjectedFault&) {
        surfaced = true;
      }
    }
    EXPECT_TRUE(surfaced);
  }

  // The fault left no trace in the snapshot: it replays from exactly the
  // batches the consumer received, none skipped, none repeated.
  const data::BatcherState snap = prefetch.state();
  EXPECT_EQ(snap.cursor, consumed * 16);
  Rng sync_rng(999);
  data::Batcher sync(train, 16, sync_rng);
  sync.load_state(snap);

  // And the faulted batcher itself re-primes and streams the rest of this
  // epoch plus a full next one, bit-identical to the synchronous replay.
  expect_batches_identical(prefetch, sync, /*epochs=*/2);
}

// fit() streams through a PrefetchBatcher; its trained weights must match a
// fit_epoch loop over the synchronous Batcher bitwise — the end-to-end
// statement of the pipeline contract, for a plain defense, a noise-stream
// defense and the GAN defense. The subclass reaches the trainer's own rng_
// so the reference Batcher takes exactly the fork fit() would.
template <typename TrainerT>
class SyncReferenceTrainer : public TrainerT {
 public:
  using TrainerT::TrainerT;

  std::vector<defense::EpochStats> fit_synchronously(
      const data::Dataset& train) {
    data::Batcher batcher(train, this->config_.batch_size, this->rng_);
    std::vector<defense::EpochStats> epochs;
    for (std::int64_t e = 0; e < this->config_.epochs; ++e) {
      epochs.push_back(this->fit_epoch(batcher, e));
    }
    return epochs;
  }
};

template <typename TrainerT>
void run_prefetch_parity_case(std::int64_t epochs) {
  const data::Dataset train = small_train_set();
  defense::TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 32;
  config.gamma = 0.05f;

  models::Classifier sync_model = fresh_model();
  SyncReferenceTrainer<TrainerT> sync_trainer(sync_model, config);
  const std::vector<defense::EpochStats> sync_epochs =
      sync_trainer.fit_synchronously(train);

  models::Classifier pre_model = fresh_model();
  TrainerT pre_trainer(pre_model, config);
  const defense::TrainResult pre_result = pre_trainer.fit(train);

  ASSERT_EQ(pre_result.epochs.size(), sync_epochs.size());
  for (std::size_t i = 0; i < sync_epochs.size(); ++i) {
    EXPECT_EQ(pre_result.epochs[i].classifier_loss,
              sync_epochs[i].classifier_loss)
        << "epoch " << i;
  }
  expect_params_identical(params_of(pre_model), params_of(sync_model));
}

TEST(PrefetchTraining, VanillaWeightsAreBitIdentical) {
  run_prefetch_parity_case<defense::VanillaTrainer>(2);
}

TEST(PrefetchTraining, ClsWeightsAreBitIdentical) {
  run_prefetch_parity_case<defense::ClsTrainer>(2);
}

TEST(PrefetchTraining, ZkGanDefWeightsAreBitIdentical) {
  run_prefetch_parity_case<defense::ZkGanDefTrainer>(2);
}

/// Requests a graceful stop after `batches` completed batches.
class StopAfter : public defense::TrainObserver {
 public:
  explicit StopAfter(std::int64_t batches) : remaining_(batches) {}
  void on_batch_end(const defense::Trainer&, std::int64_t, std::int64_t,
                    const defense::BatchStats&) override {
    if (--remaining_ == 0) ckpt::request_stop();
  }

 private:
  std::int64_t remaining_;
};

// Mid-epoch checkpoint + resume THROUGH the prefetch pipeline: interrupt a
// run mid-epoch, resume it, and land on the uninterrupted run bit-for-bit.
TEST(PrefetchTraining, MidEpochInterruptResumeIsBitIdentical) {
  const data::Dataset train = small_train_set();  // 192/32 = 6 batches/epoch
  defense::TrainConfig config;
  config.epochs = 3;
  config.batch_size = 32;

  models::Classifier ref_model = fresh_model();
  defense::VanillaTrainer reference(ref_model, config);
  const defense::TrainResult ref_result = reference.fit(train);

  TempDir dir("prefetch_resume");
  defense::TrainConfig interrupted_config = config;
  interrupted_config.checkpoint.dir = dir.path();
  models::Classifier mid_model = fresh_model();
  {
    defense::VanillaTrainer trainer(mid_model, interrupted_config);
    StopAfter stopper(8);  // inside epoch 1
    trainer.add_observer(&stopper);
    const defense::TrainResult partial = trainer.fit(train);
    EXPECT_TRUE(partial.interrupted);
  }
  ckpt::clear_stop();
  ASSERT_FALSE(ckpt::list_checkpoints(dir.path()).empty());

  defense::TrainConfig resume_config = interrupted_config;
  resume_config.resume_from = dir.path();
  models::Classifier resumed_model = fresh_model();
  defense::VanillaTrainer resumed(resumed_model, resume_config);
  const defense::TrainResult result = resumed.fit(train);

  EXPECT_FALSE(result.interrupted);
  ASSERT_EQ(result.epochs.size(), ref_result.epochs.size());
  for (std::size_t i = 0; i < result.epochs.size(); ++i) {
    EXPECT_EQ(result.epochs[i].classifier_loss,
              ref_result.epochs[i].classifier_loss)
        << "epoch " << i << " loss diverged";
  }
  expect_params_identical(params_of(resumed_model), params_of(ref_model));
}

// --- Experiment scheduler ---

TEST(Scheduler, RunJobsCapturesErrorsWithoutAbortingTheSweep) {
  std::atomic<int> ran{0};
  const std::vector<eval::Job> jobs = {
      {"ok-1", [&ran] { ran.fetch_add(1); }},
      {"boom", [] { throw InvalidArgument("injected failure"); }},
      {"ok-2", [&ran] { ran.fetch_add(1); }},
  };
  for (const unsigned concurrency : {1u, 3u}) {
    ran.store(0);
    const std::vector<eval::JobOutcome> outcomes =
        eval::run_jobs(jobs, concurrency);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(ran.load(), 2);
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("injected failure"), std::string::npos);
    EXPECT_TRUE(outcomes[2].ok);
    EXPECT_EQ(outcomes[1].name, "boom");
  }
}

// run_sweep sizes cells via scale_for(), which honours ZKG_TRAIN/ZKG_TEST —
// pin a small scale so the sweep tests stay fast under TSan.
class SweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("ZKG_TRAIN", "192", 1);
    setenv("ZKG_TEST", "32", 1);
  }
  void TearDown() override {
    unsetenv("ZKG_TRAIN");
    unsetenv("ZKG_TEST");
    unsetenv("ZKG_EPOCHS");
    unsetenv("ZKG_CKPT_DIR");
  }
};

// Concurrency must not change results: a 4-job sweep trains the exact
// weights of the serial sweep, cell by cell.
TEST_F(SweepTest, ConcurrentSweepMatchesSerialBitwise) {
  const std::uint64_t seed = 20190417;
  std::vector<eval::SweepCell> cells;
  for (const defense::DefenseId id :
       {defense::DefenseId::kVanilla, defense::DefenseId::kCls,
        defense::DefenseId::kZkGanDef, defense::DefenseId::kFgsmAdv}) {
    cells.push_back(eval::SweepCell{id, data::DatasetId::kDigits, seed});
  }

  eval::SweepOptions serial_opts;
  serial_opts.jobs = 1;
  serial_opts.epochs = 1;
  serial_opts.evaluate = false;
  serial_opts.keep_params = true;
  eval::SweepOptions parallel_opts = serial_opts;
  parallel_opts.jobs = 4;

  const std::vector<eval::SweepRun> serial =
      eval::run_sweep(cells, serial_opts);
  const std::vector<eval::SweepRun> parallel =
      eval::run_sweep(cells, parallel_opts);

  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].name << ": " << serial[i].error;
    ASSERT_TRUE(parallel[i].ok)
        << parallel[i].name << ": " << parallel[i].error;
    EXPECT_EQ(parallel[i].name, serial[i].name);
    EXPECT_EQ(parallel[i].train.final_loss(), serial[i].train.final_loss())
        << serial[i].name;
    expect_params_identical(parallel[i].final_params, serial[i].final_params);
  }
}

// Per-job checkpoint directories: an interrupted sweep leaves one resumable
// directory per cell, and re-running the sweep picks each of them up.
TEST_F(SweepTest, SweepWritesAndResumesPerJobCheckpoints) {
  const std::uint64_t seed = 20190417;
  const std::vector<eval::SweepCell> cells = {
      {defense::DefenseId::kVanilla, data::DatasetId::kDigits, seed},
      {defense::DefenseId::kCls, data::DatasetId::kDigits, seed},
  };
  TempDir root("sweep_ckpt");

  eval::SweepOptions options;
  options.jobs = 2;
  options.epochs = 2;
  options.evaluate = false;
  options.keep_params = true;
  options.checkpoint_root = root.path();
  const std::vector<eval::SweepRun> first = eval::run_sweep(cells, options);
  for (const eval::SweepRun& run : first) {
    ASSERT_TRUE(run.ok) << run.name << ": " << run.error;
    EXPECT_FALSE(
        ckpt::list_checkpoints(root.path() + "/" + run.name).empty())
        << run.name;
  }

  // Second pass resumes each finished cell's newest snapshot: no further
  // epochs train, the replayed history and the restored weights match the
  // first pass exactly.
  const std::vector<eval::SweepRun> second = eval::run_sweep(cells, options);
  for (std::size_t i = 0; i < second.size(); ++i) {
    ASSERT_TRUE(second[i].ok) << second[i].name << ": " << second[i].error;
    ASSERT_EQ(second[i].train.epochs.size(), first[i].train.epochs.size());
    EXPECT_EQ(second[i].train.final_loss(), first[i].train.final_loss());
    expect_params_identical(second[i].final_params, first[i].final_params);
  }
}

// ZKG_CKPT_DIR overrides every trainer's checkpoint directory, so concurrent
// cells would write and rotate the same snapshot files: run_sweep refuses it
// unless at most one cell runs at a time.
TEST_F(SweepTest, CheckpointDirOverrideRejectsConcurrentSweeps) {
  const std::uint64_t seed = 20190417;
  const std::vector<eval::SweepCell> cells = {
      {defense::DefenseId::kVanilla, data::DatasetId::kDigits, seed},
      {defense::DefenseId::kCls, data::DatasetId::kDigits, seed},
  };
  TempDir dir("sweep_env_ckpt");
  setenv("ZKG_CKPT_DIR", dir.path().c_str(), 1);

  eval::SweepOptions options;
  options.epochs = 1;
  options.evaluate = false;
  for (const unsigned jobs : {0u, 2u}) {
    options.jobs = jobs;
    try {
      eval::run_sweep(cells, options);
      ADD_FAILURE() << "jobs=" << jobs << ": expected a ConfigError";
    } catch (const ConfigError& error) {
      EXPECT_NE(std::string(error.what()).find("ZKG_CKPT_DIR"),
                std::string::npos)
          << error.what();
    }
  }
  // One job at a time, or a single cell, keeps the override usable.
  options.jobs = 1;
  for (const eval::SweepRun& run : eval::run_sweep(cells, options)) {
    EXPECT_TRUE(run.ok) << run.name << ": " << run.error;
  }
  options.jobs = 2;
  for (const eval::SweepRun& run : eval::run_sweep({cells[0]}, options)) {
    EXPECT_TRUE(run.ok) << run.name << ": " << run.error;
  }
}

// The guard every run_jobs caller that trains (run_sweep, Table IV) calls
// before queueing: ZKG_CKPT_DIR is refused only when jobs may overlap.
TEST_F(SweepTest, CheckpointDirGuardRejectsOnlyOverlappingJobs) {
  EXPECT_NO_THROW(eval::require_private_checkpoint_dirs(3, 3, "table4"));
  TempDir dir("guard_env_ckpt");
  setenv("ZKG_CKPT_DIR", dir.path().c_str(), 1);
  for (const unsigned concurrency : {0u, 3u}) {
    try {
      eval::require_private_checkpoint_dirs(3, concurrency, "table4");
      ADD_FAILURE() << "concurrency=" << concurrency
                    << ": expected a ConfigError";
    } catch (const ConfigError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("table4"), std::string::npos) << what;
      EXPECT_NE(what.find("ZKG_CKPT_DIR"), std::string::npos) << what;
    }
  }
  EXPECT_NO_THROW(eval::require_private_checkpoint_dirs(3, 1, "table4"));
  EXPECT_NO_THROW(eval::require_private_checkpoint_dirs(1, 3, "table4"));
}

// The Table III driver is one sweep: rows come back in `defenses` order
// with the same accuracies whether the cells run serially or concurrently.
TEST_F(SweepTest, Table3RowsMatchAcrossJobCounts) {
  setenv("ZKG_EPOCHS", "1", 1);
  const std::vector<defense::DefenseId> defenses = {
      defense::DefenseId::kVanilla, defense::DefenseId::kCls};
  const eval::Table3Result serial =
      eval::run_table3(data::DatasetId::kDigits, defenses, 20190417, 1);
  const eval::Table3Result parallel =
      eval::run_table3(data::DatasetId::kDigits, defenses, 20190417, 2);

  for (const eval::Table3Result* result : {&serial, &parallel}) {
    EXPECT_EQ(result->dataset, data::DatasetId::kDigits);
    ASSERT_EQ(result->rows.size(), defenses.size());
    for (std::size_t i = 0; i < defenses.size(); ++i) {
      EXPECT_EQ(result->rows[i].id, defenses[i]);
      EXPECT_EQ(result->rows[i].name, defense::defense_name(defenses[i]));
    }
  }
  for (std::size_t i = 0; i < defenses.size(); ++i) {
    const eval::DefenseRun& s = serial.rows[i];
    const eval::DefenseRun& p = parallel.rows[i];
    EXPECT_EQ(p.acc_original, s.acc_original) << s.name;
    EXPECT_EQ(p.acc_fgsm, s.acc_fgsm) << s.name;
    EXPECT_EQ(p.acc_bim, s.acc_bim) << s.name;
    EXPECT_EQ(p.acc_pgd, s.acc_pgd) << s.name;
    EXPECT_EQ(p.final_loss, s.final_loss) << s.name;
  }
}

/// Counts trainings begun and epochs finished; safe under concurrent jobs.
class CountingObserver : public defense::TrainObserver {
 public:
  void on_train_begin(const defense::Trainer&) override { begins.fetch_add(1); }
  void on_epoch_end(const defense::Trainer&,
                    const defense::EpochStats&) override {
    epochs.fetch_add(1);
  }
  std::atomic<int> begins{0};
  std::atomic<int> epochs{0};
};

// The Figure 5 driver trains its four defenses as one sweep, in the figure's
// order, and attaches SweepOptions::observer to every cell's trainer.
TEST_F(SweepTest, TrainingTimeRowsMatchAcrossJobCounts) {
  setenv("ZKG_EPOCHS", "1", 1);
  const std::vector<std::string> expected = {"ZK-GanDef", "FGSM-Adv",
                                             "PGD-Adv", "PGD-GanDef"};
  for (const unsigned jobs : {1u, 2u}) {
    CountingObserver observer;
    eval::SweepOptions options;
    options.jobs = jobs;
    options.observer = &observer;
    const std::vector<eval::TrainingTimeRow> rows =
        eval::run_training_time(data::DatasetId::kDigits, 20190417, options);
    ASSERT_EQ(rows.size(), expected.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].defense, expected[i]) << "jobs=" << jobs;
      EXPECT_GT(rows[i].seconds_per_epoch, 0.0) << rows[i].defense;
    }
    EXPECT_EQ(observer.begins.load(), 4) << "jobs=" << jobs;
    EXPECT_EQ(observer.epochs.load(), 4) << "jobs=" << jobs;
  }
}

// --- Kernel backends, end to end ---

// Training is backend-portable: a short Vanilla fit converges to a
// comparable loss whether the kernels run on the scalar or the SIMD
// backend. Tolerance-based, not bitwise — FMA contraction and blocked
// accumulation legitimately perturb low-order GEMM bits, and training
// amplifies them (DESIGN.md §13). Both runs must still learn the task and
// land on nearby losses.
TEST(KernelBackends, VanillaFitConvergesComparablyUnderBothBackends) {
  const backend::KernelBackend* avx2 = backend::avx2_backend_if_supported();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 backend on this CPU";

  const data::Dataset train = small_train_set();
  defense::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 32;

  auto fit_under = [&](const backend::KernelBackend& kb) {
    backend::BackendScope scope(kb);
    models::Classifier model = fresh_model();
    defense::VanillaTrainer trainer(model, config);
    return trainer.fit(train);
  };
  const defense::TrainResult scalar_run =
      fit_under(backend::scalar_backend());
  const defense::TrainResult simd_run = fit_under(*avx2);

  ASSERT_EQ(scalar_run.epochs.size(), simd_run.epochs.size());
  const float scalar_final = scalar_run.final_loss();
  const float simd_final = simd_run.final_loss();
  // Both backends learn: the final loss improves on the first epoch's.
  EXPECT_LT(scalar_final, scalar_run.epochs.front().classifier_loss);
  EXPECT_LT(simd_final, simd_run.epochs.front().classifier_loss);
  // And they land close together — generous band for divergence amplified
  // over two epochs of training.
  EXPECT_NEAR(scalar_final, simd_final,
              0.1f * std::max(1.0f, std::abs(scalar_final)));

  // Within one backend the fit is deterministic: re-running the SIMD fit
  // reproduces the loss trajectory bit for bit.
  const defense::TrainResult simd_again = fit_under(*avx2);
  ASSERT_EQ(simd_again.epochs.size(), simd_run.epochs.size());
  for (std::size_t i = 0; i < simd_run.epochs.size(); ++i) {
    EXPECT_EQ(simd_again.epochs[i].classifier_loss,
              simd_run.epochs[i].classifier_loss)
        << "epoch " << i;
  }
}

}  // namespace
}  // namespace zkg
