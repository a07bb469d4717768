// Diagnostics that exist only in ZKG_CHECKED builds: bounds-checked
// indexing with located messages, NaN/Inf tripwires naming the producing
// layer/parameter, and buffer-pool poisoning. This binary is only compiled
// when the build was configured with -DZKG_CHECKED=ON (tests/CMakeLists.txt
// gates it), so every tripwire below is expected to fire.
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "data/batcher.hpp"
#include "defense/observer.hpp"
#include "defense/trainer.hpp"
#include "models/classifier.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "optim/adam.hpp"
#include "tensor/contracts.hpp"
#include "tensor/pool.hpp"
#include "tensor/tensor.hpp"

namespace zkg {
namespace {

static_assert(ZKG_CHECKED_ENABLED == 1,
              "test_checked must be built with -DZKG_CHECKED=ON");

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

std::string message_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(CheckedIndexing, MultiDimAtNamesIndexAxisAndShape) {
  Tensor t({2, 3});
  const std::string msg = message_of([&] { t.at(1, 5); });
  EXPECT_NE(msg.find("index 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[0, 3)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("axis 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[2, 3]"), std::string::npos) << msg;
  EXPECT_THROW(t.at(-1, 0), InvalidArgument);
  EXPECT_THROW(t.at(2, 0), InvalidArgument);
  EXPECT_NO_THROW(t.at(1, 2));  // in-range access stays quiet
}

TEST(CheckedIndexing, ConstAtSharesTheCheckedIndexer) {
  const Tensor t({2, 2}, std::vector<float>{1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t.at(1, 1), 4.0f);
  EXPECT_THROW(t.at(0, 2), InvalidArgument);
}

TEST(CheckedIndexing, FlatIndexNamesBoundAndShape) {
  Tensor t({4});
  const std::string msg = message_of([&] { t[9] = 1.0f; });
  EXPECT_NE(msg.find("flat index 9"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[0, 4)"), std::string::npos) << msg;
  const Tensor& ct = t;
  EXPECT_THROW(ct[-1], InvalidArgument);
}

TEST(CheckedMath, ForwardTripwireNamesTheHiddenLayer) {
  Rng rng(7);
  nn::Sequential net;
  net.emplace<nn::Dense>(4, 3, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Dense>(3, 2, rng);
  // Seed a NaN into the *hidden* Dense weight: the first layer's output is
  // poisoned, and the tripwire must blame that layer, not the last one.
  net.parameters()[0]->value()[0] = kNaN;

  const Tensor input({1, 4}, 1.0f);
  Tensor out;
  try {
    net.forward_into(input, out, /*training=*/false);
    FAIL() << "expected NonFiniteError";
  } catch (const NonFiniteError& e) {
    EXPECT_EQ(e.where(), "Dense(4 -> 3)");
    EXPECT_EQ(e.phase(), "forward");
    EXPECT_NE(std::string(e.what()).find("Dense(4 -> 3)"),
              std::string::npos);
  }
}

TEST(CheckedMath, OptimizerStepTripwireNamesTheParameter) {
  nn::Parameter p("toy.weight", Tensor({2}, std::vector<float>{1, 2}));
  optim::Adam adam({&p});
  p.accumulate_grad(Tensor({2}, std::vector<float>{kNaN, 0.0f}));
  try {
    adam.step();
    FAIL() << "expected NonFiniteError";
  } catch (const NonFiniteError& e) {
    EXPECT_EQ(e.where(), "toy.weight");
    EXPECT_EQ(e.phase(), "optimizer-step");
  }
}

TEST(CheckedMath, CheckFiniteLocatesFirstBadElement) {
  Tensor t({3}, std::vector<float>{1.0f, kNaN, kNaN});
  EXPECT_EQ(checked::first_non_finite(t), 1);
  EXPECT_FALSE(checked::all_finite(t));
  const std::string msg =
      message_of([&] { checked::check_finite(t, "unit", "test"); });
  EXPECT_NE(msg.find("flat index 1"), std::string::npos) << msg;
  t[1] = 0.0f;
  t[2] = 0.0f;
  EXPECT_TRUE(checked::all_finite(t));
  EXPECT_NO_THROW(checked::check_finite(t, "unit", "test"));
}

TEST(CheckedMathObserver, ThrowsOnNonFiniteLoss) {
  Rng rng(3);
  nn::Sequential net;
  net.emplace<nn::Dense>(4, 2, rng);
  models::Classifier model(
      "toy", models::InputSpec{.channels = 1, .height = 2, .width = 2,
                               .num_classes = 2},
      std::move(net));

  class NullTrainer : public defense::Trainer {
   public:
    using Trainer::Trainer;
    std::string name() const override { return "null"; }

   protected:
    defense::BatchStats train_batch(const data::Batch&) override {
      return {};
    }
  };
  NullTrainer trainer(model, defense::TrainConfig{});

  defense::CheckedMathObserver observer;
  defense::BatchStats good;
  EXPECT_NO_THROW(observer.on_batch_end(trainer, 0, 0, good));

  defense::BatchStats bad;
  bad.classifier_loss = kNaN;
  EXPECT_THROW(observer.on_batch_end(trainer, 0, 1, bad), NonFiniteError);
}

TEST(PoolPoison, PoisonValueIsADistinguishedNaN) {
  const float poison = BufferPool::poison_value();
  EXPECT_TRUE(std::isnan(poison));
  EXPECT_TRUE(BufferPool::is_poison(poison));
  EXPECT_FALSE(BufferPool::is_poison(0.0f));
  // A garden-variety quiet NaN has a different payload.
  EXPECT_FALSE(BufferPool::is_poison(kNaN));
}

TEST(PoolPoison, WriteAfterReleaseTripsOnReacquire) {
  BufferPool pool;
  FloatBuffer buffer = pool.acquire(512);
  float* stale = buffer.data();
  pool.release(std::move(buffer));
  stale[3] = 42.0f;  // write through a pointer that outlived the release
  const std::string msg = message_of([&] { pool.acquire(512); });
  EXPECT_NE(msg.find("use-after-release"), std::string::npos) << msg;
  EXPECT_NE(msg.find("element 3"), std::string::npos) << msg;
}

TEST(PoolPoison, UnwrittenGrowthIsPoisonedNotZero) {
  // Growing a buffer writes nothing, so checked builds poison what a fresh
  // bucket or an in-capacity regrowth exposes: a reader assuming zeros
  // trips the NaN tripwires instead of passing by luck.
  BufferPool pool;
  FloatBuffer fresh = pool.acquire(512);
  for (const float v : fresh) ASSERT_TRUE(BufferPool::is_poison(v));
  pool.release(std::move(fresh));

  Tensor t;
  ensure_shape(t, {16, 32}, pool);
  t.fill(1.0f);
  ensure_shape(t, {8, 32}, pool);
  ensure_shape(t, {16, 32}, pool);  // regrows within capacity
  for (std::int64_t i = 0; i < 8 * 32; ++i) ASSERT_EQ(t[i], 1.0f);
  for (std::int64_t i = 8 * 32; i < t.numel(); ++i) {
    ASSERT_TRUE(BufferPool::is_poison(t[i])) << "element " << i;
  }
}

TEST(PoolPoison, CleanRecycleRoundTripsQuietly) {
  BufferPool pool;
  FloatBuffer buffer = pool.acquire(512);
  pool.release(std::move(buffer));
  FloatBuffer again = pool.acquire(512);  // poison intact: no throw
  again.assign(again.size(), 1.0f);
  pool.release(std::move(again));  // releasing a re-acquired buffer is legal
  EXPECT_EQ(pool.stats().hits, 1u);
}

}  // namespace
}  // namespace zkg
