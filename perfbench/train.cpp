// Training workloads: ZK-GanDef on the bench LeNet over SynthDigits, and
// PGD-Adv on the bench allCNN over SynthObjects (the paper's Figure 5 pair).
// Both drive Trainer::fit_epoch over a PrefetchBatcher, exactly like
// Trainer::fit with prefetch on, so the timed run can stop at its deadline.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

#include "attacks/pgd.hpp"
#include "bench.hpp"
#include "data/prefetch_batcher.hpp"
#include "data/preprocess.hpp"
#include "defense/adv_training.hpp"
#include "defense/zk_gandef.hpp"
#include "eval/experiments.hpp"
#include "tensor/pool.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace zkg;

constexpr std::int64_t kBatch = 64;
constexpr std::int64_t kCheckpointEvery = 25;  // batches between saves
constexpr double kForever = std::numeric_limits<double>::infinity();

struct Workload {
  bool zk_gandef;  // else PGD-Adv
  data::DatasetId dataset;
  std::int64_t samples;       // a multiple of kBatch: every step is full
  std::int64_t warmup_steps;  // trained during set-up, before timing
  std::int64_t gate_steps;    // traced steps checked when trace is off
};

Workload workload_for(const std::string& name) {
  if (name == "train-zk-lenet") {
    return {true, data::DatasetId::kDigits, 25 * kBatch, 4, 8};
  }
  if (name == "train-pgdadv-allcnn") {
    return {false, data::DatasetId::kObjects, 8 * kBatch, 2, 3};
  }
  throw InvalidArgument("unknown training workload " + name);
}

/// Ends the current epoch early once the run's step or time budget is
/// spent; otherwise forwards to the batch stream it wraps.
class Budget : public data::BatchSource {
 public:
  explicit Budget(data::BatchSource& inner) : inner_(inner) {}

  void arm(std::int64_t steps, double seconds) {
    steps_left_ = steps;
    deadline_ = std::isfinite(seconds)
                    ? Clock::now() + std::chrono::duration_cast<
                                         Clock::duration>(
                                         std::chrono::duration<double>(
                                             seconds))
                    : Clock::time_point::max();
  }
  bool spent() const {
    return steps_left_ <= 0 || Clock::now() >= deadline_;
  }

  void start_epoch() override { inner_.start_epoch(); }
  bool next_into(data::Batch& out) override {
    if (spent()) return false;
    --steps_left_;
    return inner_.next_into(out);
  }
  std::int64_t batch_size() const override { return inner_.batch_size(); }
  std::int64_t batches_per_epoch() const override {
    return inner_.batches_per_epoch();
  }
  data::BatcherState state() const override { return inner_.state(); }
  void load_state(const data::BatcherState& state) override {
    inner_.load_state(state);
  }

 private:
  data::BatchSource& inner_;
  std::int64_t steps_left_ = 0;
  Clock::time_point deadline_;
};

/// Registered last, so a step spans everything between two batch ends:
/// data wait, train_batch and the other observers (checkpoint saves).
class StepClock : public defense::TrainObserver {
 public:
  void restart() {
    steps.clear();
    last_ = Clock::now();
  }
  void on_batch_end(const defense::Trainer& /*trainer*/,
                    std::int64_t /*epoch*/, std::int64_t /*batch*/,
                    const defense::BatchStats& stats) override {
    const Clock::time_point now = Clock::now();
    steps.push_back(seconds_between(last_, now));
    last_ = now;
    losses.push_back(stats.classifier_loss);
  }

  std::vector<double> steps;  // seconds, since the last restart()
  std::vector<float> losses;  // every step of the session

 private:
  Clock::time_point last_;
};

/// Everything one training run needs, built from the seed alone. With a
/// Trace, the classifier layers, the attack, the batch stream and the
/// checkpoint observer are wrapped in timing decorators.
class Session {
 public:
  Session(const Workload& w, const Args& args, Trace* trace) {
    const eval::ExperimentScale scale = eval::scale_for(w.dataset);
    Rng data_rng(args.seed);
    train_ = data::scale_pixels(
        data::make_dataset(w.dataset, w.samples, data_rng));
    Rng model_rng(args.seed + 1);
    model_ = std::make_unique<models::Classifier>(
        eval::build_model_for(w.dataset, scale, model_rng));
    models::Classifier* trained = model_.get();
    if (trace != nullptr) {
      traced_ = std::make_unique<models::Classifier>(
          traced_classifier(*model_, *trace));
      trained = traced_.get();
    }

    const defense::TrainConfig config = eval::base_train_config(scale,
                                                                args.seed);
    if (w.zk_gandef) {
      trainer_ = std::make_unique<defense::ZkGanDefTrainer>(*trained, config);
      ckpt_ = std::make_unique<defense::CheckpointObserver>(
          ckpt::CheckpointConfig{args.scratch + "/ckpt", kCheckpointEvery,
                                 /*every_epochs=*/0, /*keep_last=*/2});
      if (trace != nullptr) {
        timed_ckpt_ = std::make_unique<TimedCheckpoints>(*ckpt_, *trace);
        trainer_->add_observer(timed_ckpt_.get());
      } else {
        trainer_->add_observer(ckpt_.get());
      }
    } else {
      Rng attack_rng(config.seed ^ 0xadf00dULL);
      attacks::AttackPtr attack =
          std::make_unique<attacks::Pgd>(config.attack, attack_rng);
      if (trace != nullptr) {
        attack = std::make_unique<TimedAttack>(std::move(attack), *trace);
      }
      trainer_ = std::make_unique<defense::AdversarialTrainer>(
          *trained, config, std::move(attack), "PGD-Adv");
    }
    trainer_->add_observer(&clock);

    Rng batch_rng(args.seed + 2);
    prefetch_ = std::make_unique<data::PrefetchBatcher>(train_, kBatch,
                                                        batch_rng);
    data::BatchSource* source = prefetch_.get();
    if (trace != nullptr) {
      timed_source_ = std::make_unique<TimedSource>(*prefetch_, *trace);
      source = timed_source_.get();
    }
    budget_ = std::make_unique<Budget>(*source);
  }

  /// Trains until `max_steps` steps or `seconds` have passed, whichever
  /// comes first; clock.steps then holds this call's step times.
  void run(std::int64_t max_steps, double seconds) {
    budget_->arm(max_steps, seconds);
    clock.restart();
    do {
      trainer_->fit_epoch(*budget_, epoch_++);
    } while (!budget_->spent());
  }

  const defense::Trainer& trainer() const { return *trainer_; }

  StepClock clock;

 private:
  data::Dataset train_;
  std::unique_ptr<models::Classifier> model_;
  std::unique_ptr<models::Classifier> traced_;
  std::unique_ptr<defense::Trainer> trainer_;
  std::unique_ptr<defense::CheckpointObserver> ckpt_;
  std::unique_ptr<TimedCheckpoints> timed_ckpt_;
  std::unique_ptr<data::PrefetchBatcher> prefetch_;
  std::unique_ptr<TimedSource> timed_source_;
  std::unique_ptr<Budget> budget_;
  std::int64_t epoch_ = 0;
};

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

std::vector<Event> step_events(const std::vector<double>& steps) {
  std::vector<Event> events;
  for (const double step : steps) events.push_back({step});
  return events;
}

/// Checks that `run` trained bit-identically to `reference` over the steps
/// both ran, with a finite loss.
bool check_losses(const std::vector<float>& reference,
                  const std::vector<float>& run, const std::string& what,
                  Result& result) {
  const std::size_t n = std::min(reference.size(), run.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(&reference[i], &run[i], sizeof(float)) != 0) {
      char line[200];
      std::snprintf(line, sizeof(line),
                    "%s: step %zu classifier loss %.9g, first session %.9g",
                    what.c_str(), i, run[i], reference[i]);
      result.fail(line);
      return false;
    }
  }
  if (n == 0 || !std::isfinite(run[n - 1])) {
    result.fail(what + ": final classifier loss is not finite");
    return false;
  }
  return true;
}

void add_layer_metrics(const Trace& trace, double steps, double step_s,
                       double traced_tput, double untraced_tput,
                       const PoolStats& pool, Result& result) {
  for (const LayerTimes& layer : trace.layers) {
    result.add(layer.key + ".fwd_ms", layer.fwd_s * 1e3 / steps, "ms");
    result.add(layer.key + ".bwd_ms", layer.bwd_s * 1e3 / steps, "ms");
    if (layer.counts_flops) {
      const double busy = layer.fwd_s + layer.bwd_s;
      result.add(layer.key + ".gflop_per_s",
                 busy > 0.0 ? layer.flops / busy * 1e-9 : 0.0, "GFLOP/s");
    }
  }
  const double attack_self_s = trace.attack_s - trace.attack_nn_s;
  const double defense_self_s =
      step_s - trace.nn_s - attack_self_s - trace.data_s - trace.ckpt_s;
  const double lookups = static_cast<double>(pool.hits + pool.misses);
  result.add("nn.fwd_calls_per_step",
             static_cast<double>(trace.layers.front().fwd_calls) / steps,
             "count");
  result.add("attacks.generate_ms", trace.attack_s * 1e3 / steps, "ms");
  result.add("attacks.self_ms", attack_self_s * 1e3 / steps, "ms");
  result.add("defense.self_ms", defense_self_s * 1e3 / steps, "ms");
  result.add("data.wait_ms", trace.data_s * 1e3 / steps, "ms");
  result.add("ckpt.save_ms", trace.ckpt_s * 1e3 / steps, "ms");
  result.add("ckpt.saves", static_cast<double>(trace.ckpt_saves), "count");
  result.add("ckpt.stall_share", trace.ckpt_s / step_s, "share");
  result.add("tensor.pool_misses_per_step",
             static_cast<double>(pool.misses) / steps, "count");
  result.add("tensor.pool_hit_rate",
             lookups > 0.0 ? static_cast<double>(pool.hits) / lookups : 1.0,
             "share");
  result.add("trace.step_ms", step_s * 1e3 / steps, "ms");
  result.add("trace.overhead_share", 1.0 - traced_tput / untraced_tput,
             "share");

  char line[256];
  std::snprintf(line, sizeof(line),
                "accounting per step: step %.3f ms = nn %.3f + attacks.self "
                "%.3f + data %.3f + ckpt %.3f + defense.self %.3f ms",
                step_s * 1e3 / steps, trace.nn_s * 1e3 / steps,
                attack_self_s * 1e3 / steps, trace.data_s * 1e3 / steps,
                trace.ckpt_s * 1e3 / steps, defense_self_s * 1e3 / steps);
  result.report.push_back(line);
  if (defense_self_s < 0.0 || attack_self_s < 0.0) {
    result.fail("negative residual: layer busy times exceed the step time");
  }
}

PoolStats pool_delta(const PoolStats& before, const PoolStats& after) {
  PoolStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  return d;
}

}  // namespace

Result run_train(const Args& args) {
  const Workload w = workload_for(args.workload);
  const double session_s = args.seconds / kSessions;
  const std::int64_t unlimited = std::numeric_limits<std::int64_t>::max();
  Result result;

  // Untraced sessions, each set up from scratch (data synthesis, model,
  // trainer, warm-up steps) and then timed. The first set-up counts from
  // process start. Every session trains the same steps from the same seed.
  std::vector<double> setups, lengths;
  std::vector<std::vector<Event>> events;
  std::vector<float> losses;  // the first session's, per step
  // Peak memory of one session: later sessions would add the allocator's
  // fragmentation from repeated set-ups, which no real run has.
  double rss = 0.0;
  for (int i = 0; i < kSessions; ++i) {
    const Clock::time_point t0 = i == 0 ? process_start() : Clock::now();
    Session session(w, args, nullptr);
    session.run(w.warmup_steps, kForever);
    setups.push_back(seconds_between(t0, Clock::now()));
    session.run(unlimited, session_s);
    events.push_back(step_events(session.clock.steps));
    lengths.push_back(sum(session.clock.steps));
    result.attempted += static_cast<std::int64_t>(session.clock.steps.size());
    result.failed += session.trainer().skipped_batch_count();
    if (i == 0) {
      rss = peak_rss_mb();
      losses = session.clock.losses;
    }
    check_losses(losses, session.clock.losses,
                 "session " + std::to_string(i), result);
  }
  const Figures figures = summarize(events, lengths);
  const double untraced_tput = figures.rate * kBatch;

  // The traced session: as long as an untraced one with trace on, else a
  // few steps that only feed the bit-identity gate.
  Trace trace;
  Session traced(w, args, &trace);
  traced.run(w.warmup_steps, kForever);
  trace.reset();
  const PoolStats pool_before = BufferPool::global().stats();
  traced.run(args.trace ? unlimited : w.gate_steps,
             args.trace ? session_s : kForever);
  const PoolStats pool = pool_delta(pool_before, BufferPool::global().stats());
  char line[200];
  if (check_losses(losses, traced.clock.losses, "traced", result)) {
    std::snprintf(line, sizeof(line),
                  "gate: classifier loss bit-identical over %zu traced "
                  "steps, final %.9g",
                  traced.clock.losses.size(), traced.clock.losses.back());
    result.report.push_back(line);
  }

  if (!args.trace) {
    result.report.insert(result.report.end(), figures.lines.begin(),
                         figures.lines.end());
    std::snprintf(line, sizeof(line),
                  "%s: %lld steps of %lld samples, %lld skipped",
                  args.workload.c_str(),
                  static_cast<long long>(result.attempted),
                  static_cast<long long>(kBatch),
                  static_cast<long long>(result.failed));
    result.report.push_back(line);
    result.add("setup_s", second_best(setups, false), "s");
    result.add("throughput_per_s", untraced_tput, "1/s");
    result.add("p50_ms", figures.p50_s * 1e3, "ms");
    result.add("tail_ms", figures.p90_s * 1e3, "ms");
    result.add("peak_rss_mb", rss, "MB");
    return result;
  }

  const std::vector<double>& traced_steps = traced.clock.steps;
  const double n = static_cast<double>(traced_steps.size());
  const double traced_s = sum(traced_steps);
  result.attempted = static_cast<std::int64_t>(traced_steps.size());
  result.failed = traced.trainer().skipped_batch_count();
  add_layer_metrics(trace, n, traced_s, n * kBatch / traced_s, untraced_tput,
                    pool, result);
  return result;
}

}  // namespace perfbench
