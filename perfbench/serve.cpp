// Serving workload serve-lenet-saturated: an InferenceServer with the
// default ServeConfig serving the bench LeNet plus the Discriminator alarm
// head, over bench_serve's mixed traffic (50% clean, 25% FGSM, 25% PGD
// SynthDigits images). One thread runs a closed loop that keeps kInFlight
// requests outstanding; latency runs from submit() to the result being
// taken. One load thread, not many clients, keeps the run on few cores so
// its figures repeat on a small machine.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>

#include "attacks/fgsm.hpp"
#include "attacks/pgd.hpp"
#include "bench.hpp"
#include "data/preprocess.hpp"
#include "models/discriminator.hpp"
#include "models/lenet.hpp"
#include "models/session.hpp"
#include "serve/server.hpp"
#include "tensor/pool.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace zkg;

constexpr std::int64_t kCorpus = 512;
// Four max_batch batches: one in the forward, three queued. With only two,
// any pause of the load thread starves the engine into deadline flushes,
// and the p90 then follows the host's scheduling rather than the server.
constexpr std::size_t kInFlight = 128;
constexpr std::int64_t kWarmupRequests = 4096;
constexpr double kMaxRate = 100000.0;  // requests/s; sizes the event log

/// bench_serve's corpus: round-robin chunks of 32 clean, clean, FGSM, PGD
/// images, with each image's batch-1 InferenceSession label as reference.
struct Corpus {
  std::vector<Tensor> images;
  std::vector<std::int64_t> reference;
};

Corpus make_corpus(models::Classifier& model, std::uint64_t seed) {
  Rng data_rng(seed);
  const data::Dataset clean =
      data::scale_pixels(data::make_synth_digits(kCorpus, data_rng));
  attacks::AttackBudget budget;
  budget.epsilon = 0.3f;
  budget.step_size = 0.1f;
  budget.iterations = 5;
  attacks::Fgsm fgsm(budget);
  Rng pgd_rng(seed + 1);
  attacks::Pgd pgd(budget, pgd_rng);

  Corpus corpus;
  const std::int64_t chunk = 32;
  for (std::int64_t begin = 0; begin < kCorpus; begin += chunk) {
    const std::int64_t end = std::min(begin + chunk, kCorpus);
    const Tensor images = clean.images.slice_rows(begin, end);
    const std::vector<std::int64_t> labels(clean.labels.begin() + begin,
                                           clean.labels.begin() + end);
    Tensor batch;
    switch ((begin / chunk) % 4) {
      case 2: batch = fgsm.generate(model, images, labels); break;
      case 3: batch = pgd.generate(model, images, labels); break;
      default: batch = images; break;
    }
    for (std::int64_t i = 0; i < end - begin; ++i) {
      corpus.images.push_back(batch.slice_rows(i, i + 1));
    }
  }
  models::InferenceSession session(model);
  for (const Tensor& image : corpus.images) {
    corpus.reference.push_back(session.predict(image).front());
  }
  return corpus;
}

/// What one load phase observed.
struct Outcome {
  explicit Outcome(double run_s) : failed_latency_s(run_s) {}

  Clock::time_point begin = Clock::now();
  /// Latency recorded for a failed request: the whole run, so that it
  /// misses any tail.
  double failed_latency_s;
  std::int64_t attempted = 0;
  std::int64_t served = 0;
  std::int64_t overloaded = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t other_errors = 0;
  std::int64_t mismatches = 0;
  std::int64_t collected = 0;  // handles taken from the server
  std::vector<Event> events;  // every attempted request
  double submit_s = 0.0;      // time inside submit()
  double elapsed_s = 0.0;     // first send to last result

  std::int64_t failed() const {
    return overloaded + deadline_exceeded + other_errors;
  }
  void record(Clock::time_point start, bool ok) {
    events.push_back(
        {ok ? seconds_between(start, Clock::now()) : failed_latency_s, ok});
  }
};

struct Pending {
  serve::RequestHandle handle;
  Clock::time_point start;
  std::size_t index = 0;
};

/// Takes one result; classifies its failure or checks its label.
void collect(Pending& p, const Corpus& corpus, Outcome& out) {
  bool ok = false;
  ++out.collected;
  try {
    const serve::Prediction prediction = p.handle.get();
    ok = true;
    ++out.served;
    if (prediction.label != corpus.reference[p.index]) ++out.mismatches;
  } catch (const serve::Overloaded&) {
    ++out.overloaded;
  } catch (const serve::DeadlineExceeded&) {
    ++out.deadline_exceeded;
  } catch (const Error&) {
    ++out.other_errors;
  }
  out.record(p.start, ok);
}

/// Submits one request; false when submit() itself refused it.
bool submit(serve::InferenceServer& server, const Corpus& corpus,
            std::size_t index, Outcome& out, Pending& pending) {
  ++out.attempted;
  const Clock::time_point start = Clock::now();
  try {
    pending.handle = server.submit(corpus.images[index]);
  } catch (const serve::Overloaded&) {
    ++out.overloaded;
    out.record(start, false);
    return false;
  } catch (const Error&) {
    ++out.other_errors;
    out.record(start, false);
    return false;
  }
  out.submit_s += seconds_between(start, Clock::now());
  pending.start = start;
  pending.index = index;
  return true;
}

/// Closed loop: keeps kInFlight requests outstanding, waiting on the
/// oldest before sending the next. Sends `requests` requests, or as many
/// as fit in `seconds` when that is > 0. A failed request is recorded as
/// taking `run_s`.
Outcome run_closed(serve::InferenceServer& server, const Corpus& corpus,
                   std::int64_t requests, double seconds, double run_s) {
  Outcome out(run_s);
  // Reserved up front so the event log grows linearly, without the
  // reallocation peaks that would show in peak_rss_mb.
  out.events.reserve(static_cast<std::size_t>(
      seconds > 0.0 ? seconds * kMaxRate : static_cast<double>(requests)));
  std::deque<Pending> inflight;
  const Clock::time_point deadline =
      seconds > 0.0 ? out.begin + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds))
                    : Clock::time_point::max();
  std::size_t cursor = 0;
  while (true) {
    const bool sending =
        out.attempted < requests && Clock::now() < deadline;
    if (sending && inflight.size() < kInFlight) {
      Pending pending;
      const std::size_t index = cursor++ % corpus.images.size();
      if (submit(server, corpus, index, out, pending)) {
        inflight.push_back(std::move(pending));
      }
      continue;
    }
    if (inflight.empty()) break;
    collect(inflight.front(), corpus, out);
    inflight.pop_front();
  }
  out.elapsed_s = seconds_between(out.begin, Clock::now());
  return out;
}

/// Model, alarm head, corpus and a running server, built from the seed.
/// With a Trace, the served classifier's layers are timing decorators.
class Session {
 public:
  Session(const Args& args, Trace* trace) {
    const models::InputSpec spec{1, 28, 28, 10};
    Rng model_rng(args.seed);
    model_ = std::make_unique<models::Classifier>(
        models::build_lenet(spec, models::Preset::kBench, model_rng));
    Rng alarm_rng(args.seed + 2);
    alarm_ = std::make_unique<models::Discriminator>(spec.num_classes,
                                                     alarm_rng);
    corpus = make_corpus(*model_, args.seed + 3);
    models::Classifier* served = model_.get();
    if (trace != nullptr) {
      traced_ = std::make_unique<models::Classifier>(
          traced_classifier(*model_, *trace));
      served = traced_.get();
    }
    server = std::make_unique<serve::InferenceServer>(
        *served, serve::ServeConfig{}, alarm_.get());
  }

  Corpus corpus;

 private:
  std::unique_ptr<models::Classifier> model_;
  std::unique_ptr<models::Discriminator> alarm_;
  std::unique_ptr<models::Classifier> traced_;

 public:
  // Declared last: destroyed (stopped) before the models it serves.
  std::unique_ptr<serve::InferenceServer> server;
};

std::string summary(const Outcome& out, const std::string& phase) {
  char line[240];
  std::snprintf(line, sizeof(line),
                "%s: %lld attempted, %lld served, %lld Overloaded, %lld "
                "DeadlineExceeded, %lld other errors, %lld label mismatches",
                phase.c_str(), static_cast<long long>(out.attempted),
                static_cast<long long>(out.served),
                static_cast<long long>(out.overloaded),
                static_cast<long long>(out.deadline_exceeded),
                static_cast<long long>(out.other_errors),
                static_cast<long long>(out.mismatches));
  return line;
}

/// One load phase with the server's counters read around it.
struct Phase {
  Outcome out;
  serve::ServerStats before;
  serve::ServerStats after;
};

/// Runs run_closed() and checks it: every served label matches the
/// reference, and the server fulfilled exactly the handles the client took.
Phase run_phase(serve::InferenceServer& server, const Corpus& corpus,
                std::int64_t requests, double seconds, double run_s,
                const std::string& name, Result& result) {
  const serve::ServerStats before = server.stats();
  Outcome out = run_closed(server, corpus, requests, seconds, run_s);
  const serve::ServerStats after = server.stats();
  if (out.mismatches > 0) {
    result.fail(name + ": served labels differ from the batch-1 reference");
  }
  if (after.completed - before.completed !=
      static_cast<std::uint64_t>(out.collected)) {
    result.fail(name + ": the server completed " +
                std::to_string(after.completed - before.completed) +
                " requests, the client took " +
                std::to_string(out.collected));
  }
  return {std::move(out), before, after};
}

}  // namespace


Result run_serve(const Args& args) {
  if (args.workload != "serve-lenet-saturated") {
    throw InvalidArgument("unknown serving workload " + args.workload);
  }
  const double session_s = args.seconds / kSessions;
  const std::int64_t unlimited = std::numeric_limits<std::int64_t>::max();
  Result result;

  // Untraced sessions, each set up from scratch (corpus and reference
  // labels, model, server start, warm-up requests) and then timed. The
  // first set-up counts from process start.
  std::vector<double> setups, lengths;
  std::vector<std::vector<Event>> events;
  Outcome total(args.seconds);
  // Peak memory of one session: later sessions would add the allocator's
  // fragmentation from repeated set-ups, which no real run has.
  double rss = 0.0;
  for (int i = 0; i < kSessions; ++i) {
    const Clock::time_point t0 = i == 0 ? process_start() : Clock::now();
    Session session(args, nullptr);
    run_phase(*session.server, session.corpus, kWarmupRequests, 0.0,
              args.seconds, "warm-up", result);
    setups.push_back(seconds_between(t0, Clock::now()));
    Outcome out = run_phase(*session.server, session.corpus, unlimited,
                            session_s, args.seconds,
                            "session " + std::to_string(i), result)
                      .out;
    session.server->stop();
    if (i == 0) rss = peak_rss_mb();
    total.attempted += out.attempted;
    total.served += out.served;
    total.overloaded += out.overloaded;
    total.deadline_exceeded += out.deadline_exceeded;
    total.other_errors += out.other_errors;
    total.mismatches += out.mismatches;
    lengths.push_back(out.elapsed_s);
    events.push_back(std::move(out.events));
  }
  result.report.push_back(summary(total, "measured"));
  const Figures figures = summarize(events, lengths);
  result.attempted = total.attempted;
  result.failed = total.failed();

  if (!args.trace) {
    result.report.insert(result.report.end(), figures.lines.begin(),
                         figures.lines.end());
    result.add("setup_s", second_best(setups, false), "s");
    result.add("throughput_per_s", figures.rate, "1/s");
    result.add("p50_ms", figures.p50_s * 1e3, "ms");
    result.add("tail_ms", figures.p90_s * 1e3, "ms");
    result.add("peak_rss_mb", rss, "MB");
    return result;
  }

  // The traced session, as long as an untraced one.
  Trace trace;
  Session traced(args, &trace);
  run_phase(*traced.server, traced.corpus, kWarmupRequests, 0.0,
            args.seconds, "traced warm-up", result);
  trace.reset();
  const PoolStats pool_before = BufferPool::global().stats();
  const Phase phase = run_phase(*traced.server, traced.corpus, unlimited,
                                session_s, args.seconds, "traced", result);
  traced.server->stop();  // joins the engine: the trace is complete
  const PoolStats pool_after = BufferPool::global().stats();
  const Outcome& out = phase.out;
  const serve::ServerStats& before = phase.before;
  const serve::ServerStats& after = phase.after;
  result.report.push_back(summary(out, "traced"));
  const Figures traced_figures = summarize({out.events}, {out.elapsed_s});
  result.attempted = out.attempted;
  result.failed = out.failed();

  const double batches = static_cast<double>(after.batches - before.batches);
  const double batch_s =
      (after.mean_batch_s * static_cast<double>(after.batches) -
       before.mean_batch_s * static_cast<double>(before.batches)) /
      batches;
  const double forward_s = trace.nn_s / batches;
  // mean_batch_s stops before the engine scatters the results. The
  // saturated loop keeps the engine busy, so the rest of its time per
  // batch is the scatter and the hand-off to the next batch.
  const double engine_s = out.elapsed_s / batches;
  for (const LayerTimes& layer : trace.layers) {
    result.add(layer.key + ".fwd_ms", layer.fwd_s * 1e3 / batches, "ms");
    result.add(layer.key + ".bwd_ms", layer.bwd_s * 1e3 / batches, "ms");
    if (layer.counts_flops) {
      result.add(layer.key + ".gflop_per_s",
                 layer.fwd_s > 0.0 ? layer.flops / layer.fwd_s * 1e-9 : 0.0,
                 "GFLOP/s");
    }
  }
  const double misses =
      static_cast<double>(pool_after.misses - pool_before.misses);
  const double lookups =
      misses + static_cast<double>(pool_after.hits - pool_before.hits);
  result.add("nn.fwd_calls_per_step",
             static_cast<double>(trace.layers.front().fwd_calls) / batches,
             "count");
  result.add("tensor.pool_misses_per_step", misses / batches, "count");
  result.add("tensor.pool_hit_rate",
             lookups > 0.0 ? (lookups - misses) / lookups : 1.0, "share");
  result.add("serve.submit_us",
             out.submit_s * 1e6 / static_cast<double>(out.attempted), "us");
  result.add("serve.batch_size_mean",
             static_cast<double>(after.completed - before.completed) /
                 batches,
             "count");
  result.add("serve.deadline_flush_share",
             static_cast<double>(after.deadline_flushes -
                                 before.deadline_flushes) /
                 batches,
             "share");
  result.add("serve.batch_ms", batch_s * 1e3, "ms");
  result.add("serve.batch_self_ms", (batch_s - forward_s) * 1e3, "ms");
  result.add("serve.scatter_ms", (engine_s - batch_s) * 1e3, "ms");
  result.add("serve.queue_ms", (traced_figures.p50_s - batch_s) * 1e3, "ms");
  result.add("trace.overhead_share", 1.0 - traced_figures.rate / figures.rate,
             "share");

  char line[240];
  std::snprintf(line, sizeof(line),
                "accounting per batch: engine %.4f ms = classifier forward "
                "%.4f + batch.self %.4f + scatter %.4f ms",
                engine_s * 1e3, forward_s * 1e3, (batch_s - forward_s) * 1e3,
                (engine_s - batch_s) * 1e3);
  result.report.push_back(line);
  if (batch_s < forward_s || engine_s < batch_s) {
    result.fail("negative residual: a part exceeds the time that holds it");
  }
  return result;
}

}  // namespace perfbench
