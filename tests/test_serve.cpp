// InferenceServer tests: config validation, deadline-flush vs size-flush
// batch assembly, scatter correctness under concurrent clients, overload
// rejection determinism, clean shutdown with in-flight requests, the
// discriminator alarm head, and the hardening layer — per-request
// deadlines, cancellation, priority shedding and the batch watchdog. Uses
// pause()/resume() to make batch assembly deterministic where the test
// needs it, and FailpointScope to stall the forward deterministically.
// NOTE: this suite asserts fault-free label correctness, so CI never runs
// it with ZKG_FAILPOINTS set (that's tests/test_serve_chaos.cpp's job).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "models/mlp.hpp"
#include "models/session.hpp"
#include "serve/server.hpp"
#include "tensor/random.hpp"

namespace zkg::serve {
namespace {

constexpr models::InputSpec kSpec{1, 8, 8, 10};

models::Classifier tiny_model(std::uint64_t seed = 7) {
  Rng rng(seed);
  return models::build_mlp(kSpec, {16}, rng);
}

/// A corpus of distinct single images plus the labels the model assigns
/// them when predicted one at a time (the ground truth batching must
/// reproduce request-for-request).
struct Corpus {
  std::vector<Tensor> images;
  std::vector<std::int64_t> labels;
};

Corpus make_corpus(models::Classifier& model, std::int64_t n,
                   std::uint64_t seed) {
  Corpus corpus;
  Rng rng(seed);
  models::InferenceSession session(model);
  for (std::int64_t i = 0; i < n; ++i) {
    Tensor image = rand_uniform(kSpec.batch_shape(1), rng);
    corpus.labels.push_back(session.predict(image)[0]);
    corpus.images.push_back(std::move(image));
  }
  return corpus;
}

TEST(ServeConfig, ValidateRejectsBadFields) {
  ServeConfig config;
  EXPECT_NO_THROW(config.validate());
  config.max_batch = 0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = ServeConfig{};
  config.max_delay_s = -1.0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = ServeConfig{};
  config.max_queue = 0;
  EXPECT_THROW(config.validate(), ConfigError);
  config = ServeConfig{};
  config.watchdog_s = -1.0;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(InferenceServer, SingleRequestMatchesSerialPrediction) {
  models::Classifier model = tiny_model();
  const Corpus corpus = make_corpus(model, 1, 11);
  InferenceServer server(model, ServeConfig{});
  RequestHandle future = server.submit(corpus.images[0]);
  const Prediction prediction = future.get();
  EXPECT_EQ(prediction.label, corpus.labels[0]);
  EXPECT_FLOAT_EQ(prediction.alarm_score, -1.0f);  // no alarm head attached
  EXPECT_FALSE(server.has_alarm());
}

TEST(InferenceServer, AcceptsLeadingUnitBatchDim) {
  models::Classifier model = tiny_model();
  Rng rng(3);
  InferenceServer server(model, ServeConfig{});
  // [C, H, W] and [1, C, H, W] are both one request.
  EXPECT_NO_THROW(
      server.submit(rand_uniform({kSpec.channels, kSpec.height, kSpec.width},
                                 rng)).get());
  EXPECT_NO_THROW(server.submit(rand_uniform(kSpec.batch_shape(1), rng)).get());
  EXPECT_THROW(server.submit(Tensor({2, 8, 8})), InvalidArgument);
  EXPECT_THROW(server.submit(Tensor({2, 1, 8, 8})), InvalidArgument);
  EXPECT_THROW(server.submit(Tensor({64})), InvalidArgument);
}

TEST(InferenceServer, DeadlineFlushDispatchesPartialBatch) {
  models::Classifier model = tiny_model();
  const Corpus corpus = make_corpus(model, 3, 13);
  ServeConfig config;
  config.max_batch = 64;       // far more than we submit: size flush can't fire
  config.max_delay_s = 0.001;  // so the deadline must
  InferenceServer server(model, config);
  std::vector<RequestHandle> futures;
  for (const Tensor& image : corpus.images) {
    futures.push_back(server.submit(image));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().label, corpus.labels[i]);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_GE(stats.deadline_flushes, 1u);
  EXPECT_EQ(stats.size_flushes, 0u);
  EXPECT_LE(stats.max_batch_observed, 3);
}

TEST(InferenceServer, SizeFlushDispatchesFullBatch) {
  models::Classifier model = tiny_model();
  const Corpus corpus = make_corpus(model, 8, 17);
  ServeConfig config;
  config.max_batch = 8;
  config.max_delay_s = 60.0;  // deadline can't fire within the test
  InferenceServer server(model, config);
  server.pause();  // assemble the full batch deterministically
  std::vector<RequestHandle> futures;
  for (const Tensor& image : corpus.images) {
    futures.push_back(server.submit(image));
  }
  server.resume();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().label, corpus.labels[i]);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.size_flushes, 1u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_EQ(stats.max_batch_observed, 8);
  EXPECT_EQ(stats.batches, 1u);
}

TEST(InferenceServer, ScatterIsCorrectUnderConcurrentClients) {
  models::Classifier model = tiny_model();
  constexpr int kClients = 4;
  constexpr int kPerClient = 32;
  const Corpus corpus = make_corpus(model, kClients * kPerClient, 19);
  ServeConfig config;
  config.max_batch = 16;
  config.max_delay_s = 0.0005;
  InferenceServer server(model, config);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t index =
            static_cast<std::size_t>(c * kPerClient + i);
        const Prediction prediction =
            server.submit(corpus.images[index]).get();
        if (prediction.label != corpus.labels[index]) ++mismatches;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  // Every caller got the label for ITS image, not a neighbour's row.
  EXPECT_EQ(mismatches.load(), 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.p99_latency_s, 0.0);
  EXPECT_GE(stats.p99_latency_s, stats.p50_latency_s);
}

TEST(InferenceServer, OverloadRejectsAtMaxQueueDeterministically) {
  models::Classifier model = tiny_model();
  const Corpus corpus = make_corpus(model, 5, 23);
  ServeConfig config;
  config.max_batch = 64;
  config.max_delay_s = 60.0;
  config.max_queue = 4;
  InferenceServer server(model, config);
  server.pause();  // nothing drains: queue depth is exactly what we submit
  std::vector<RequestHandle> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit(corpus.images[static_cast<std::size_t>(i)]));
  }
  try {
    server.submit(corpus.images[4]);
    FAIL() << "5th submit above max_queue=4 must throw Overloaded";
  } catch (const Overloaded& error) {
    EXPECT_EQ(error.queue_depth(), 4);
  }
  // Queue (4) is below max_batch (64) and the deadline is a minute out, so
  // drain through stop() rather than waiting on a flush.
  server.stop();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().label, corpus.labels[i]);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST(InferenceServer, StopDrainsQueuedRequestsThenRefusesNewOnes) {
  models::Classifier model = tiny_model();
  const Corpus corpus = make_corpus(model, 6, 31);
  ServeConfig config;
  config.max_batch = 4;
  config.max_delay_s = 60.0;
  InferenceServer server(model, config);
  server.pause();  // hold all six in the queue until stop()
  std::vector<RequestHandle> futures;
  for (const Tensor& image : corpus.images) {
    futures.push_back(server.submit(image));
  }
  server.stop();  // overrides the pause and drains (in max_batch chunks)
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().label, corpus.labels[i]);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_GE(stats.drain_flushes, 1u);
  EXPECT_THROW(server.submit(corpus.images[0]), ShutDown);
  server.stop();  // idempotent
}

TEST(InferenceServer, DestructorCompletesOutstandingFutures) {
  models::Classifier model = tiny_model();
  const Corpus corpus = make_corpus(model, 3, 37);
  std::vector<RequestHandle> futures;
  {
    ServeConfig config;
    config.max_delay_s = 60.0;
    InferenceServer server(model, config);
    server.pause();
    for (const Tensor& image : corpus.images) {
      futures.push_back(server.submit(image));
    }
  }  // ~InferenceServer: stop() drains — no future may dangle
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().label, corpus.labels[i]);
  }
}

TEST(InferenceServer, AlarmHeadScoresEveryRequest) {
  models::Classifier model = tiny_model();
  Rng disc_rng(41);
  models::Discriminator alarm(kSpec.num_classes, disc_rng);
  const Corpus corpus = make_corpus(model, 4, 43);
  InferenceServer server(model, ServeConfig{}, &alarm);
  EXPECT_TRUE(server.has_alarm());
  for (const Tensor& image : corpus.images) {
    const Prediction prediction = server.submit(image).get();
    EXPECT_GE(prediction.alarm_score, 0.0f);
    EXPECT_LE(prediction.alarm_score, 1.0f);
  }
}

TEST(InferenceServer, RejectsInvalidConfigAtConstruction) {
  models::Classifier model = tiny_model();
  ServeConfig config;
  config.max_batch = -2;
  EXPECT_THROW(InferenceServer(model, config), ConfigError);
}

TEST(InferenceServer, DeadlineExceededCompletesTypedWithoutForward) {
  models::Classifier model = tiny_model();
  const Corpus corpus = make_corpus(model, 2, 47);
  ServeConfig config;
  config.max_batch = 64;
  config.max_delay_s = 60.0;  // flush can't fire; only the deadline can
  InferenceServer server(model, config);
  server.pause();  // both requests are queued before the engine looks
  RequestHandle r1 = server.submit(corpus.images[0], 0.005);
  RequestHandle r2 = server.submit(corpus.images[1], 0.005);
  server.resume();
  // The engine wakes for the nearest per-request deadline (5 ms), so the
  // typed completion arrives without waiting out the 60 s flush deadline.
  EXPECT_THROW(r1.get(), DeadlineExceeded);
  EXPECT_THROW(r2.get(), DeadlineExceeded);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_expired, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.batches, 0u);  // expired requests never reach a forward
}

TEST(InferenceServer, SubmitRejectsInvalidDeadline) {
  models::Classifier model = tiny_model();
  const Corpus corpus = make_corpus(model, 1, 49);
  InferenceServer server(model, ServeConfig{});
  EXPECT_THROW(server.submit(corpus.images[0], -0.5), InvalidArgument);
}

TEST(InferenceServer, CancelBeforeDispatchFailsFutureTyped) {
  models::Classifier model = tiny_model();
  const Corpus corpus = make_corpus(model, 2, 53);
  ServeConfig config;
  config.max_batch = 64;
  config.max_delay_s = 60.0;
  InferenceServer server(model, config);
  server.pause();  // hold both in the queue
  RequestHandle r1 = server.submit(corpus.images[0]);
  RequestHandle r2 = server.submit(corpus.images[1]);
  EXPECT_TRUE(r1.cancel());
  EXPECT_FALSE(r1.cancel());  // already completed by the first cancel
  EXPECT_THROW(r1.get(), Cancelled);
  server.stop();  // drains the survivor
  EXPECT_EQ(r2.get().label, corpus.labels[1]);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.max_batch_observed, 1);  // the cancelled row never shipped
}

TEST(InferenceServer, CancelAfterDispatchReturnsFalse) {
  models::Classifier model = tiny_model();
  const Corpus corpus = make_corpus(model, 1, 59);
  InferenceServer server(model, ServeConfig{});
  RequestHandle handle = server.submit(corpus.images[0]);
  EXPECT_EQ(handle.get().label, corpus.labels[0]);
  // The request was dispatched (and completed): cancellation is too late.
  EXPECT_FALSE(handle.cancel());
  EXPECT_EQ(server.stats().cancelled, 0u);
}

TEST(InferenceServer, LowPriorityShedsBeforeNormalUnderOverload) {
  models::Classifier model = tiny_model();
  const Corpus corpus = make_corpus(model, 7, 61);
  ServeConfig config;
  config.max_batch = 64;
  config.max_delay_s = 60.0;
  config.max_queue = 4;
  InferenceServer server(model, config);
  server.pause();  // queue depth is exactly what we submit
  SubmitOptions low;
  low.priority = Priority::kLow;
  RequestHandle l1 = server.submit(corpus.images[0], low);
  RequestHandle n1 = server.submit(corpus.images[1]);
  RequestHandle n2 = server.submit(corpus.images[2]);
  RequestHandle l2 = server.submit(corpus.images[3], low);
  // Full queue: an incoming LOW request is rejected outright...
  EXPECT_THROW(server.submit(corpus.images[4], low), Overloaded);
  // ...while an incoming NORMAL evicts the newest queued low (l2)...
  RequestHandle n3 = server.submit(corpus.images[4]);
  EXPECT_THROW(l2.get(), Overloaded);
  // ...then the remaining low (l1)...
  RequestHandle n4 = server.submit(corpus.images[5]);
  EXPECT_THROW(l1.get(), Overloaded);
  // ...and once the queue is all-normal, normal admission fails too.
  EXPECT_THROW(server.submit(corpus.images[6]), Overloaded);
  server.stop();  // drains the four surviving normal requests
  EXPECT_EQ(n1.get().label, corpus.labels[1]);
  EXPECT_EQ(n2.get().label, corpus.labels[2]);
  EXPECT_EQ(n3.get().label, corpus.labels[4]);
  EXPECT_EQ(n4.get().label, corpus.labels[5]);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_low, 2u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.completed, 6u);  // 4 served + 2 shed futures
}

TEST(InferenceServer, WatchdogFailsStalledBatchWithoutHangingOtherClients) {
  models::Classifier model = tiny_model();
  const Corpus corpus = make_corpus(model, 2, 67);
  ServeConfig config;
  config.max_delay_s = 0.001;
  config.watchdog_s = 0.02;
  InferenceServer server(model, config);
  {
    // Stall the forward far beyond the watchdog budget.
    fail::Spec stall;
    stall.policy = fail::Policy::kDelay;
    stall.delay_s = 0.25;
    fail::FailpointScope scope("serve.batch_forward", stall);
    RequestHandle stuck = server.submit(corpus.images[0]);
    // The watchdog completes the future at ~20 ms while the forward is
    // still sleeping — the client is NOT held hostage by the stall.
    EXPECT_THROW(stuck.get(), WatchdogTimeout);
  }
  // The engine itself survived: once the stalled forward finishes, new
  // requests are served normally (the failpoint is disarmed by now).
  RequestHandle next = server.submit(corpus.images[1]);
  EXPECT_EQ(next.get().label, corpus.labels[1]);
  const ServerStats stats = server.stats();
  EXPECT_GE(stats.watchdog_batches, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

}  // namespace
}  // namespace zkg::serve
