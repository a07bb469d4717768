// Serving benchmark: throughput and tail latency of the micro-batching
// InferenceServer against a batch-1 serial baseline, over a mixed
// clean/FGSM/PGD traffic corpus (the deployment the paper's intro
// motivates: a defended classifier plus the discriminator perturbation
// alarm in front of incoming, possibly adversarial, requests).
//
// Three phases:
//   serial    one thread, one InferenceSession, batch-1 predictions
//   batched   closed-loop: ZKG_SERVE_CLIENTS threads submitting
//             back-to-back through the server
//   overload  open-loop: requests fired far beyond capacity into a small
//             bounded queue — the server must shed load (reject), not
//             queue unboundedly
//
// Model choice (ZKG_SERVE_MODEL): `mlp` (default) is the memory-bound
// case where CPU micro-batching pays hardest — a batch-1 dense forward
// streams every weight matrix once PER REQUEST (arithmetic intensity
// ~1 FLOP/byte, and an M=1 GEMM wastes the packed microkernel's row
// tile), while a batch-B forward streams them once per batch. `lenet`
// is the compute-bound contrast: its implicit-GEMM convs already span
// out_h*out_w output positions at batch 1, so per-request cost is nearly linear
// in batch and the speedup is modest on a single core (it reappears on
// multi-core, where one batch forward fans out across cores that batch-1
// requests can't use).
//
// The closed-loop phase clamps the server's max_batch to the client
// count: C closed-loop clients can never have more than C requests
// outstanding, so a larger max_batch can't fill and only buys deadline
// latency.
//
// Writes BENCH_serve.json (override with ZKG_BENCH_JSON). Exits non-zero
// if the closed-loop phase rejected anything (it runs below the admission
// threshold) or — with ZKG_SERVE_STRICT=1 — if batched throughput is below
// 3x serial.
//
// Knobs: ZKG_SERVE_SECONDS (per measured phase), ZKG_SERVE_CLIENTS,
// ZKG_SERVE_BATCH, ZKG_SERVE_DELAY_US, ZKG_SERVE_MODEL, ZKG_SEED.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "attacks/fgsm.hpp"
#include "attacks/pgd.hpp"
#include "common/env.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "data/dataset.hpp"
#include "data/preprocess.hpp"
#include "models/discriminator.hpp"
#include "models/lenet.hpp"
#include "models/mlp.hpp"
#include "models/session.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"

namespace {

using namespace zkg;

/// Pre-generated single-image requests: 50% clean, 25% FGSM, 25% PGD.
std::vector<Tensor> make_traffic(models::Classifier& model,
                                 std::int64_t requests, std::uint64_t seed) {
  Rng data_rng(seed);
  const data::Dataset clean =
      data::scale_pixels(data::make_synth_digits(requests, data_rng));

  attacks::AttackBudget budget;
  budget.epsilon = 0.3f;
  budget.step_size = 0.1f;
  budget.iterations = 5;
  attacks::Fgsm fgsm(budget);
  Rng pgd_rng(seed + 1);
  attacks::Pgd pgd(budget, pgd_rng);

  std::vector<Tensor> traffic;
  traffic.reserve(static_cast<std::size_t>(requests));
  const std::int64_t chunk = 32;
  for (std::int64_t begin = 0; begin < requests; begin += chunk) {
    const std::int64_t end = std::min(begin + chunk, requests);
    const Tensor images = clean.images.slice_rows(begin, end);
    const std::vector<std::int64_t> labels(
        clean.labels.begin() + begin, clean.labels.begin() + end);
    // Round-robin the mix: clean, clean, FGSM, PGD.
    Tensor batch;
    switch ((begin / chunk) % 4) {
      case 2: batch = fgsm.generate(model, images, labels); break;
      case 3: batch = pgd.generate(model, images, labels); break;
      default: batch = images; break;
    }
    for (std::int64_t i = 0; i < end - begin; ++i) {
      traffic.push_back(batch.slice_rows(i, i + 1));
    }
  }
  return traffic;
}

struct PhaseResult {
  std::uint64_t requests = 0;
  double seconds = 0.0;
  double rps() const { return seconds > 0.0 ? requests / seconds : 0.0; }
};

/// Batch-1 serial baseline: the cost of serving without micro-batching.
PhaseResult run_serial(models::Classifier& model,
                       models::Discriminator& alarm,
                       const std::vector<Tensor>& traffic, double seconds) {
  models::InferenceSession session(model, &alarm);
  session.predict(traffic[0]);  // warmup
  session.alarm_scores();
  PhaseResult result;
  const Stopwatch watch;
  while (watch.seconds() < seconds) {
    const Tensor& image = traffic[result.requests % traffic.size()];
    session.predict(image);
    session.alarm_scores();
    ++result.requests;
  }
  result.seconds = watch.seconds();
  return result;
}

/// Closed-loop load: each client submits, waits, submits again.
PhaseResult run_batched(serve::InferenceServer& server,
                        const std::vector<Tensor>& traffic, int clients,
                        double seconds) {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  const Stopwatch watch;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      std::size_t cursor = static_cast<std::size_t>(c) * 37;
      while (!stop.load(std::memory_order_relaxed)) {
        const Tensor& image = traffic[cursor++ % traffic.size()];
        server.submit(image).get();
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // One computed sleep for the whole phase (tools/analyze.py flags
  // sleep-in-loop polling); the closed-loop clients keep the server busy.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::max(0.0, seconds - watch.seconds())));
  stop.store(true);
  for (std::thread& worker : workers) worker.join();
  PhaseResult result;
  result.requests = completed.load();
  result.seconds = watch.seconds();
  return result;
}

struct OverloadResult {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t served = 0;
  std::uint64_t shed_low = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t faulted = 0;
  double p99_under_faults_ms = 0.0;
};

/// Open-loop burst far beyond capacity: fire-and-forget submissions into a
/// deliberately small queue, with the mixed population the hardened server
/// exists for — ~25% low priority, ~33% tight deadlines, ~10% client
/// cancellations — and a probabilistic delay failpoint armed on the batch
/// forward. The server must shed with typed outcomes (never buffer
/// forever), and the recorded p99 is the tail under injected stalls.
OverloadResult run_overload(models::Classifier& model,
                            models::Discriminator& alarm,
                            const std::vector<Tensor>& traffic,
                            std::int64_t burst) {
  serve::ServeConfig config;
  config.max_batch = 16;
  config.max_delay_s = 0.001;
  config.max_queue = 64;
  config.watchdog_s = 5.0;  // far above any injected stall: must not fire
  serve::InferenceServer server(model, config, &alarm);

  fail::Spec stall;
  stall.policy = fail::Policy::kDelay;
  stall.probability = 0.2;  // ~1 in 5 batches eats an injected stall
  stall.seed = 20190417;
  stall.delay_s = 0.002;
  fail::FailpointScope scope("serve.batch_forward", stall);

  OverloadResult result;
  std::vector<serve::RequestHandle> handles;
  handles.reserve(static_cast<std::size_t>(burst));
  for (std::int64_t i = 0; i < burst; ++i) {
    serve::SubmitOptions options;
    if (i % 4 == 0) options.priority = serve::Priority::kLow;
    // A hair over the flush deadline: back-of-queue requests and batches
    // that eat an injected stall overrun it, front-of-queue ones make it.
    if (i % 3 == 0) options.deadline_s = 0.002;
    try {
      handles.push_back(server.submit(
          traffic[static_cast<std::size_t>(i) % traffic.size()], options));
      ++result.accepted;
    } catch (const serve::Overloaded&) {
      ++result.rejected;
      continue;
    }
    if (i % 10 == 0) static_cast<void>(handles.back().cancel());
  }
  for (serve::RequestHandle& handle : handles) {
    try {
      static_cast<void>(handle.get());
      ++result.served;
    } catch (const serve::DeadlineExceeded&) {
      ++result.deadline_expired;
    } catch (const serve::Cancelled&) {
      ++result.cancelled;
    } catch (const serve::Overloaded&) {
      ++result.shed_low;  // accepted, then evicted for a normal request
    } catch (const Error&) {
      ++result.faulted;  // unexpected under a delay-only failpoint
    }
  }
  result.p99_under_faults_ms = server.stats().p99_latency_s * 1e3;
  return result;
}

}  // namespace

int main() {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(env_or_int("ZKG_SEED", 20190417));
  const double seconds =
      static_cast<double>(env_or_int("ZKG_SERVE_SECONDS", 2));
  const int clients = static_cast<int>(env_or_int("ZKG_SERVE_CLIENTS", 16));
  // A closed loop with C clients can't queue more than C requests, so cap
  // the batch there — a larger one never fills and only adds deadline wait.
  const std::int64_t max_batch =
      std::min<std::int64_t>(env_or_int("ZKG_SERVE_BATCH", 32), clients);
  const double max_delay_s =
      static_cast<double>(env_or_int("ZKG_SERVE_DELAY_US", 2000)) * 1e-6;
  const bool strict = env_or_int("ZKG_SERVE_STRICT", 0) != 0;
  const std::string model_kind = env_or("ZKG_SERVE_MODEL", "mlp");

  Rng model_rng(seed);
  models::Classifier model =
      model_kind == "lenet"
          ? models::build_lenet({1, 28, 28, 10}, models::Preset::kBench,
                                model_rng)
          : models::build_mlp({1, 28, 28, 10}, {256, 128}, model_rng);
  Rng disc_rng(seed + 2);
  models::Discriminator alarm(10, disc_rng);

  std::cout << "=== Serving: micro-batched vs batch-1 serial, mixed "
               "clean/FGSM/PGD traffic ===\n\n";
  const std::vector<Tensor> traffic = make_traffic(model, 512, seed + 3);
  std::cout << "corpus: " << traffic.size()
            << " single-image requests (50% clean, 25% FGSM, 25% PGD), "
            << model_kind << " classifier + alarm head\n"
            << "phase length " << seconds << "s, " << clients
            << " closed-loop clients, max_batch " << max_batch
            << ", max_delay " << max_delay_s * 1e3 << "ms\n\n";

  const PhaseResult serial = run_serial(model, alarm, traffic, seconds);

  serve::ServeConfig config;
  config.max_batch = max_batch;
  config.max_delay_s = max_delay_s;
  serve::InferenceServer server(model, config, &alarm);
  const PhaseResult batched = run_batched(server, traffic, clients, seconds);
  const serve::ServerStats stats = server.stats();
  server.stop();

  const OverloadResult overload =
      run_overload(model, alarm, traffic, /*burst=*/4096);

  const double speedup = serial.rps() > 0.0 ? batched.rps() / serial.rps()
                                            : 0.0;
  Table table({"Phase", "requests", "req/s", "p50 ms", "p99 ms",
               "mean batch"});
  table.add_row({"serial batch-1", std::to_string(serial.requests),
                 Table::fixed(serial.rps(), 0), "-", "-", "1.0"});
  table.add_row(
      {"micro-batched", std::to_string(batched.requests),
       Table::fixed(batched.rps(), 0),
       Table::fixed(stats.p50_latency_s * 1e3, 2),
       Table::fixed(stats.p99_latency_s * 1e3, 2),
       Table::fixed(stats.batches > 0
                        ? static_cast<double>(stats.completed) /
                              static_cast<double>(stats.batches)
                        : 0.0,
                    1)});
  std::cout << table.to_text() << "\n";
  std::cout << "speedup " << Table::fixed(speedup, 2) << "x  ("
            << stats.size_flushes << " size flushes, "
            << stats.deadline_flushes << " deadline flushes, max batch "
            << stats.max_batch_observed << ")\n";
  std::cout << "overload burst: " << overload.accepted << " accepted, "
            << overload.rejected << " rejected at the door; of accepted: "
            << overload.served << " served, " << overload.shed_low
            << " low-priority shed, " << overload.deadline_expired
            << " deadlines expired, " << overload.cancelled
            << " cancelled (p99 under injected stalls "
            << Table::fixed(overload.p99_under_faults_ms, 2) << " ms)\n";

  obs::JsonObject doc;
  {
    obs::JsonObject cfg;
    cfg["model"] = model_kind;
    cfg["max_batch"] = max_batch;
    cfg["max_delay_s"] = max_delay_s;
    cfg["clients"] = clients;
    cfg["phase_seconds"] = seconds;
    cfg["corpus"] = static_cast<std::int64_t>(traffic.size());
    doc["config"] = std::move(cfg);
  }
  {
    obs::JsonObject phase;
    phase["requests"] = static_cast<std::int64_t>(serial.requests);
    phase["seconds"] = serial.seconds;
    phase["rps"] = serial.rps();
    doc["serial"] = std::move(phase);
  }
  {
    obs::JsonObject phase;
    phase["requests"] = static_cast<std::int64_t>(batched.requests);
    phase["seconds"] = batched.seconds;
    phase["rps"] = batched.rps();
    phase["speedup_vs_serial"] = speedup;
    phase["p50_ms"] = stats.p50_latency_s * 1e3;
    phase["p95_ms"] = stats.p95_latency_s * 1e3;
    phase["p99_ms"] = stats.p99_latency_s * 1e3;
    phase["max_ms"] = stats.max_latency_s * 1e3;
    phase["mean_batch_ms"] = stats.mean_batch_s * 1e3;
    phase["batches"] = static_cast<std::int64_t>(stats.batches);
    phase["size_flushes"] = static_cast<std::int64_t>(stats.size_flushes);
    phase["deadline_flushes"] =
        static_cast<std::int64_t>(stats.deadline_flushes);
    phase["max_batch_observed"] = stats.max_batch_observed;
    phase["rejected"] = static_cast<std::int64_t>(stats.rejected);
    doc["batched"] = std::move(phase);
  }
  {
    obs::JsonObject phase;
    phase["accepted"] = static_cast<std::int64_t>(overload.accepted);
    phase["rejected"] = static_cast<std::int64_t>(overload.rejected);
    phase["served"] = static_cast<std::int64_t>(overload.served);
    phase["shed_low"] = static_cast<std::int64_t>(overload.shed_low);
    phase["deadline_expired"] =
        static_cast<std::int64_t>(overload.deadline_expired);
    phase["cancelled"] = static_cast<std::int64_t>(overload.cancelled);
    phase["faulted"] = static_cast<std::int64_t>(overload.faulted);
    phase["p99_under_faults_ms"] = overload.p99_under_faults_ms;
    doc["overload"] = std::move(phase);
  }
  const std::string json_path = env_or("ZKG_BENCH_JSON", "BENCH_serve.json");
  {
    std::ofstream out(json_path, std::ios::trunc);
    out << obs::Json(std::move(doc)).dump() << "\n";
  }
  std::cout << "report: " << json_path << "\n";

  // Closed-loop traffic ran below the admission threshold: any rejection
  // there is a bug (CI asserts this on every run).
  if (stats.rejected != 0) {
    std::cerr << "FAIL: closed-loop phase rejected " << stats.rejected
              << " requests below the admission threshold\n";
    return 1;
  }
  if (overload.rejected == 0) {
    std::cerr << "FAIL: overload burst was never load-shed\n";
    return 1;
  }
  // Every accepted request must resolve to exactly one typed outcome.
  if (overload.served + overload.shed_low + overload.deadline_expired +
          overload.cancelled + overload.faulted !=
      overload.accepted) {
    std::cerr << "FAIL: overload outcomes do not sum to accepted requests\n";
    return 1;
  }
  if (strict && speedup < 3.0) {
    std::cerr << "FAIL: micro-batching speedup " << speedup
              << "x below the 3x floor (ZKG_SERVE_STRICT=1)\n";
    return 1;
  }
  return 0;
}
