// Robust inference service: the deployment story, end to end. Trains a
// defended model fault-tolerantly (crash-safe train checkpoints, graceful
// Ctrl-C, NaN rollback — DESIGN.md §11; all three are set in the
// TrainConfig below, and main() installs the signal handlers itself, so an
// interrupted run resumes when rerun), loads the trained weights from the
// run's final .zkgc snapshot into a fresh "serving" model, and stands up an
// InferenceServer (DESIGN.md §14): concurrent clients submit single
// images, the micro-batching engine folds them into pooled batched
// forwards, and the ZK-GanDef discriminator scores every request as a
// runtime perturbation alarm — the operational pattern the paper's intro
// motivates for security-sensitive classifiers (spam filtering, face
// recognition).
#include <atomic>
#include <filesystem>
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "attacks/pgd.hpp"
#include "ckpt/io.hpp"
#include "ckpt/signal.hpp"
#include "ckpt/train_state.hpp"
#include "common/backoff.hpp"
#include "common/rng.hpp"
#include "data/preprocess.hpp"
#include "defense/zk_gandef.hpp"
#include "models/lenet.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"

int main() {
  using namespace zkg;
  const std::string train_ckpt_dir = "/tmp/zkg_robust_service_ckpts";

  Rng rng(11);
  data::Dataset raw = data::make_synth_digits(1400, rng);
  const data::Dataset scaled = data::scale_pixels(raw);
  const data::TrainTestSplit split = data::separate(scaled, 200, rng);

  // ---- Training side, fault tolerant ----
  // Every epoch a crash-safe .zkgc snapshot lands in train_ckpt_dir; a
  // SIGINT/SIGTERM stops at the next batch boundary with a final snapshot;
  // a previous interrupted run resumes from its newest snapshot,
  // bit-identical to never having stopped. A non-finite loss or parameter
  // rolls back to the last good batch instead of aborting 18 epochs of
  // work (max_retries > 0 turns on the per-batch NaN check in every build).
  ckpt::install_signal_handlers();
  defense::TrainConfig config;
  config.epochs = 18;
  config.batch_size = 64;
  config.gamma = 0.05f;
  config.checkpoint.dir = train_ckpt_dir;
  if (!ckpt::latest_checkpoint(train_ckpt_dir).empty()) {
    config.resume_from = train_ckpt_dir;
    std::cout << "resuming from " << train_ckpt_dir << "\n";
  }
  config.rollback.max_retries = 3;
  config.rollback.lr_decay = 0.5f;
  models::Classifier trained = models::build_lenet(
      models::InputSpec{1, 28, 28, 10}, models::Preset::kBench, rng);
  defense::ZkGanDefTrainer trainer(trained, config);
  const defense::TrainResult fit_result = trainer.fit(split.train);
  if (fit_result.interrupted) {
    std::cout << "interrupted at a batch boundary; snapshot saved — rerun "
                 "to resume from "
              << train_ckpt_dir << "\n";
    return 0;
  }
  // fit() ends with a final snapshot, so the newest one holds the trained
  // weights.
  const std::string checkpoint = ckpt::latest_checkpoint(train_ckpt_dir);
  std::cout << "serving weights from " << checkpoint << "\n";

  // ---- Serving side: fresh model object, weights restored from disk ----
  Rng serving_rng(999);  // different init; load_state overwrites it
  models::Classifier serving = models::build_lenet(
      models::InputSpec{1, 28, 28, 10}, models::Preset::kBench, serving_rng);
  serving.net().load_state(ckpt::load_train_state(checkpoint).model_params);

  // Sanity: the restored model agrees with the trained one.
  const Tensor probe = split.test.images.slice_rows(0, 16);
  Tensor trained_logits;
  Tensor served_logits;
  trained.forward_into(probe, trained_logits, false);
  serving.forward_into(probe, served_logits, false);
  ZKG_CHECK(trained_logits.allclose(served_logits))
      << " checkpoint round-trip mismatch";
  std::cout << "checkpoint round-trip verified (16-image probe)\n";

  // Build the request mix an attacker-facing service sees: 32 benign test
  // images and the same 32 put through a white-box PGD attack.
  const Tensor benign = split.test.images.slice_rows(0, 32);
  const std::vector<std::int64_t> truth(split.test.labels.begin(),
                                        split.test.labels.begin() + 32);
  Rng attacker_rng(3);
  attacks::Pgd pgd(attacks::AttackBudget{.epsilon = 0.3f, .step_size = 0.06f,
                                         .iterations = 10, .restarts = 1},
                   attacker_rng);
  const Tensor attacked = pgd.generate(serving, benign, truth);

  // ---- Stand up the server: micro-batching + discriminator alarm ----
  serve::ServeConfig serve_config;
  serve_config.max_batch = 16;
  serve_config.max_delay_s = 0.002;  // p99 floor: one deadline + one forward
  serve_config.max_queue = 16;       // bounded: bursts shed, clients retry
  serve_config.watchdog_s = 2.0;     // a stuck forward fails its batch
  serve::InferenceServer server(serving, serve_config,
                                &trainer.discriminator());

  // A load-shedding server needs a retrying client: a burst past the
  // bounded queue throws Overloaded, and the caller backs off with the
  // shared jittered-exponential policy (common/backoff.hpp) instead of
  // hammering the admission path.
  std::atomic<std::uint64_t> retries{0};
  const auto submit_with_retry = [&](const Tensor& image) {
    Backoff backoff;  // 1ms initial, 2x growth, 250ms cap, jittered
    for (;;) {
      try {
        return server.submit(image);
      } catch (const serve::Overloaded&) {
        retries.fetch_add(1, std::memory_order_relaxed);
        backoff.sleep();
      }
    }
  };

  // Two concurrent clients — one benign, one adversarial — each submit 32
  // single-image requests; the engine batches across both streams.
  struct ClientReport {
    std::int64_t correct = 0;
    float mean_alarm = 0.0f;
  };
  const auto run_client = [&](const Tensor& images) {
    std::vector<serve::RequestHandle> handles;
    for (std::int64_t i = 0; i < images.dim(0); ++i) {
      handles.push_back(submit_with_retry(images.slice_rows(i, i + 1)));
    }
    ClientReport report;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const serve::Prediction prediction = handles[i].get();
      if (prediction.label == truth[i]) ++report.correct;
      report.mean_alarm += prediction.alarm_score;
    }
    report.mean_alarm /= static_cast<float>(handles.size());
    return report;
  };
  ClientReport benign_report, attacked_report;
  std::thread benign_client(
      [&] { benign_report = run_client(benign); });
  std::thread attacked_client(
      [&] { attacked_report = run_client(attacked); });
  benign_client.join();
  attacked_client.join();
  server.stop();

  std::cout << "benign requests classified correctly:   "
            << benign_report.correct << "/32\n"
            << "attacked requests classified correctly: "
            << attacked_report.correct << "/32\n";
  std::cout << "discriminator perturbation score (benign):   "
            << benign_report.mean_alarm << "\n"
            << "discriminator perturbation score (attacked): "
            << attacked_report.mean_alarm << "\n";

  const serve::ServerStats stats = server.stats();
  std::cout << "served " << stats.completed << " requests in "
            << stats.batches << " batches (max batch "
            << stats.max_batch_observed << ", " << stats.size_flushes
            << " size / " << stats.deadline_flushes
            << " deadline flushes), p99 latency "
            << stats.p99_latency_s * 1e3 << " ms; " << retries.load()
            << " submissions retried after load shedding\n";

  std::filesystem::remove_all(train_ckpt_dir);
  return 0;
}
