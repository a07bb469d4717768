// BufferPool / Workspace / ensure_shape tests, plus the steady-state
// regression: after one warmup iteration, a CLS training step and a
// PGD/CW/DeepFool/SPSA attack step must run with zero pool misses, and
// results computed through dirty recycled buffers must be bit-identical to
// freshly allocated ones.
#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "attacks/cw.hpp"
#include "attacks/deepfool.hpp"
#include "attacks/pgd.hpp"
#include "attacks/spsa.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "data/preprocess.hpp"
#include "defense/adv_training.hpp"
#include "defense/cls.hpp"
#include "eval/experiments.hpp"
#include "models/discriminator.hpp"
#include "models/lenet.hpp"
#include "models/session.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "tensor/linalg.hpp"
#include "tensor/ops.hpp"
#include "tensor/pool.hpp"
#include "tensor/random.hpp"

namespace zkg {
namespace {

TEST(BufferPool, BucketForRoundsUpToPowerOfTwo) {
  EXPECT_EQ(BufferPool::bucket_for(0), BufferPool::kMinBucket);
  EXPECT_EQ(BufferPool::bucket_for(1), BufferPool::kMinBucket);
  EXPECT_EQ(BufferPool::bucket_for(256), 256u);
  EXPECT_EQ(BufferPool::bucket_for(257), 512u);
  EXPECT_EQ(BufferPool::bucket_for(512), 512u);
  EXPECT_EQ(BufferPool::bucket_for(1000), 1024u);
}

TEST(BufferPool, AcquireMissesThenHitsAfterRelease) {
  BufferPool pool;
  FloatBuffer a = pool.acquire(300);
  EXPECT_EQ(a.size(), 300u);
  EXPECT_GE(a.capacity(), 512u);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);

  pool.release(std::move(a));
  EXPECT_EQ(pool.stats().free_buffers, 1u);

  // Any request that fits the same bucket is served from the free list.
  FloatBuffer b = pool.acquire(400);
  EXPECT_EQ(b.size(), 400u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().free_buffers, 0u);
}

// Alignment regression: every float buffer in the system — pool
// acquisitions across several buckets, Tensor storage however constructed,
// and workspace tensors — must start on a 64-byte boundary so SIMD
// backends can assume aligned panels and full cache lines.
TEST(BufferPool, AllFloatStorageIs64ByteAligned) {
  static_assert(kTensorAlignment == 64);
  BufferPool pool;
  for (std::size_t n : {1u, 300u, 4096u, 100000u}) {
    FloatBuffer buf = pool.acquire(n);
    EXPECT_TRUE(is_tensor_aligned(buf.data())) << "pool bucket " << n;
    pool.release(std::move(buf));
    // Recycled buffers come back with the same alignment guarantee.
    FloatBuffer again = pool.acquire(n);
    EXPECT_TRUE(is_tensor_aligned(again.data())) << "recycled bucket " << n;
    pool.release(std::move(again));
  }

  Tensor shaped({3, 5});
  Tensor filled({7}, 1.5f);
  Tensor from_vector({4}, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_TRUE(is_tensor_aligned(shaped.data()));
  EXPECT_TRUE(is_tensor_aligned(filled.data()));
  EXPECT_TRUE(is_tensor_aligned(from_vector.data()));

  Workspace ws(pool);
  EXPECT_TRUE(is_tensor_aligned(ws.get({8, 128}).data()));

  Tensor grown;
  ensure_shape(grown, {16, 64}, pool);
  EXPECT_TRUE(is_tensor_aligned(grown.data()));
}

TEST(BufferPool, TinyBuffersAreDroppedOnRelease) {
  BufferPool pool;
  FloatBuffer tiny(BufferPool::kMinBucket - 1);
  pool.release(std::move(tiny));
  EXPECT_EQ(pool.stats().free_buffers, 0u);
}

TEST(BufferPool, TrimEmptiesFreeListAndResetStatsKeepsGauges) {
  BufferPool pool;
  pool.release(pool.acquire(1024));
  EXPECT_EQ(pool.stats().free_buffers, 1u);
  pool.reset_stats();
  EXPECT_EQ(pool.stats().misses, 0u);
  EXPECT_EQ(pool.stats().free_buffers, 1u);  // gauge survives the reset
  pool.trim();
  EXPECT_EQ(pool.stats().free_buffers, 0u);
  EXPECT_EQ(pool.stats().free_bytes, 0u);
}

TEST(EnsureShape, NoOpOnMatchingShape) {
  BufferPool pool;
  Tensor t({4, 8}, 3.0f);
  const float* before = t.data();
  ensure_shape(t, {4, 8}, pool);
  EXPECT_EQ(t.data(), before);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 0u);
  EXPECT_FLOAT_EQ(t[0], 3.0f);  // contents untouched
}

TEST(EnsureShape, ReusesCapacityInPlaceOnShrink) {
  BufferPool pool;
  Tensor t({64, 64});
  ensure_shape(t, {32, 32}, pool);
  EXPECT_EQ(t.shape(), Shape({32, 32}));
  // Shrinking fits in the existing capacity: no pool traffic at all.
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 0u);
  // Growing back within the original capacity is also pool-free.
  ensure_shape(t, {64, 64}, pool);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 0u);
}

TEST(EnsureShape, RoutesRealGrowthThroughPool) {
  BufferPool pool;
  Tensor t;
  ensure_shape(t, {16, 64}, pool);
  EXPECT_EQ(t.shape(), Shape({16, 64}));
  EXPECT_EQ(pool.stats().misses, 1u);

  // Growth beyond capacity releases the old buffer and acquires a larger
  // one, so a same-size follow-up acquire hits.
  ensure_shape(t, {64, 64}, pool);
  EXPECT_EQ(pool.stats().misses, 2u);
  FloatBuffer again = pool.acquire(16 * 64);
  EXPECT_EQ(pool.stats().hits, 1u);
  pool.release(std::move(again));
}

TEST(Workspace, BuffersReturnToPoolAtScopeExit) {
  BufferPool pool;
  {
    Workspace ws(pool);
    Tensor& a = ws.get({8, 128});
    Tensor& z = ws.zeros({8, 128});
    EXPECT_EQ(a.shape(), Shape({8, 128}));
    for (std::int64_t i = 0; i < z.numel(); ++i) {
      ASSERT_EQ(z[i], 0.0f);
    }
    EXPECT_EQ(ws.size(), 2u);
    EXPECT_EQ(pool.stats().misses, 2u);
  }
  EXPECT_EQ(pool.stats().free_buffers, 2u);
  {
    Workspace ws(pool);
    ws.get({8, 128});
    ws.get({8, 128});
    EXPECT_EQ(pool.stats().hits, 2u);  // recycled, no new allocations
  }
}

TEST(Workspace, ScratchGrowsThroughPool) {
  BufferPool pool;
  {
    Workspace ws(pool);
    Tensor& s = ws.scratch();
    EXPECT_TRUE(s.empty());
    ensure_shape(s, {4, 256}, pool);
    EXPECT_EQ(pool.stats().misses, 1u);
  }
  EXPECT_EQ(pool.stats().free_buffers, 1u);
}

// Runs `kernel` into a fresh, empty destination and then into `dirty`, a
// recycled one of the wrong shape and stale contents: the two results (and
// any scalar the kernel returns) must be bit-identical.
template <typename Kernel>
void expect_dirty_matches_fresh(Tensor& dirty, Kernel kernel) {
  Tensor fresh;
  if constexpr (std::is_void_v<std::invoke_result_t<Kernel, Tensor&>>) {
    kernel(fresh);
    kernel(dirty);
  } else {
    const auto value = kernel(fresh);
    EXPECT_EQ(kernel(dirty), value);
  }
  EXPECT_TRUE(dirty.equals(fresh));
}

TEST(IntoKernels, BitIdenticalOverDirtyDestinations) {
  Rng rng(3);
  const Tensor a = randn({9, 17}, rng);
  const Tensor b = randn({17, 11}, rng);
  const Tensor bt = randn({11, 17}, rng);

  Tensor dirty({123}, 42.0f);  // wrong shape, garbage contents
  expect_dirty_matches_fresh(dirty, [&](Tensor& c) { matmul_into(c, a, b); });
  expect_dirty_matches_fresh(dirty,
                             [&](Tensor& c) { matmul_nt_into(c, a, bt); });
  expect_dirty_matches_fresh(dirty,
                             [&](Tensor& c) { matmul_tn_into(c, a, a); });
  expect_dirty_matches_fresh(dirty, [&](Tensor& c) { col_sum_into(c, a); });
  expect_dirty_matches_fresh(dirty,
                             [&](Tensor& c) { softmax_rows_into(c, a); });
  expect_dirty_matches_fresh(dirty,
                             [&](Tensor& c) { concat_rows_into(c, a, a); });
}

TEST(IntoKernels, FusedSignStepMatchesAxpyOfSign) {
  Rng rng(5);
  const Tensor grad = randn({3, 50}, rng);
  Tensor fused = randn({3, 50}, rng);
  Tensor reference = fused;

  Tensor signs(grad.shape());
  for (std::int64_t i = 0; i < grad.numel(); ++i) {
    signs[i] = grad[i] > 0.0f ? 1.0f : (grad[i] < 0.0f ? -1.0f : 0.0f);
  }
  add_scaled_sign_(fused, 0.07f, grad);
  axpy_(reference, 0.07f, signs);
  EXPECT_TRUE(fused.equals(reference));

  // Exact zeros in the gradient contribute exactly nothing.
  Tensor zeros({3, 50});
  Tensor before = fused;
  add_scaled_sign_(fused, 0.07f, zeros);
  EXPECT_TRUE(fused.equals(before));
}

TEST(IntoKernels, LossesBitIdenticalOverDirtyDestinations) {
  Rng rng(7);
  const Tensor logits = randn({6, 10}, rng);
  const std::vector<std::int64_t> labels{0, 3, 9, 2, 5, 1};
  const Tensor d_logits = randn({6, 1}, rng);
  const Tensor targets({6, 1}, 1.0f);

  Tensor dirty({77}, -3.0f);
  expect_dirty_matches_fresh(dirty, [&](Tensor& grad) {
    return nn::softmax_cross_entropy_into(logits, labels, grad);
  });
  expect_dirty_matches_fresh(dirty, [&](Tensor& grad) {
    return nn::clean_logit_squeezing_into(logits, 0.4f, grad);
  });
  expect_dirty_matches_fresh(dirty, [&](Tensor& grad) {
    return nn::bce_with_logits_into(d_logits, targets, grad);
  });
}

TEST(IntoKernels, GaussianAugmentIntoIsBitIdenticalOverDirtyDestination) {
  Rng rng_a(11);
  Rng rng_b(11);
  Rng images_rng(13);
  const Tensor images = rand_uniform({4, 1, 8, 8}, images_rng, -1.0f, 1.0f);

  Tensor fresh;
  data::gaussian_augment_into(fresh, images, rng_a, 0.5f);
  Tensor dirty({10}, 9.0f);
  data::gaussian_augment_into(dirty, images, rng_b, 0.5f);
  EXPECT_TRUE(dirty.equals(fresh));
  // Both rngs must have advanced identically.
  EXPECT_EQ(rng_a.uniform(0.0f, 1.0f), rng_b.uniform(0.0f, 1.0f));
}

models::Classifier small_model(std::uint64_t seed) {
  Rng rng(seed);
  return models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
}

data::Dataset tiny_train_set(std::int64_t n) {
  Rng rng(42);
  return data::scale_pixels(data::make_synth_digits(n, rng));
}

// The tentpole regression: after a warmup iteration the CLS training loop
// runs with zero BufferPool misses — every buffer it needs already exists
// and is either reused in place or recycled through the pool.
TEST(SteadyState, ClsTrainingStepHasZeroPoolMissesAfterWarmup) {
  // 128 samples / batch 32: every batch has the same shape.
  const data::Dataset train = tiny_train_set(128);
  auto model = small_model(7);
  defense::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 32;
  defense::ClsTrainer trainer(model, config);

  trainer.fit(train);  // warmup: shapes stabilise, pool fills

  BufferPool::global().reset_stats();
  trainer.fit(train);
  const PoolStats stats = BufferPool::global().stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);  // the workspace ping-pong recycles every step
  EXPECT_EQ(stats.bytes_allocated, 0u);
  EXPECT_GT(stats.bytes_recycled, 0u);
}

// PGD-Adv on the bench allCNN with input dropout, as perfbench's
// train-pgdadv-allcnn trains it: the attack forwards and backwards the
// batch of 64 with dropout off (its eval pass-through copies), then the
// training step forwards clean + adversarial rows as a batch of 128, so
// every layer cache shrinks and regrows each step. After a warmup fit at
// both sizes, another fit takes no buffer from the allocator and leaves no
// more buffers parked on the pool's free list than it found.
TEST(SteadyState, PgdAdvAllCnnStepHasZeroPoolMissesAfterWarmup) {
  const eval::ExperimentScale scale =
      eval::scale_for(data::DatasetId::kObjects);
  ASSERT_GT(scale.input_dropout, 0.0f);
  Rng data_rng(3);
  const data::Dataset train =
      data::scale_pixels(data::make_synth_objects(128, data_rng));
  Rng model_rng(4);
  models::Classifier model =
      eval::build_model_for(data::DatasetId::kObjects, scale, model_rng);
  defense::TrainConfig config = eval::base_train_config(scale, 5);
  config.epochs = 1;
  config.batch_size = 64;
  const defense::TrainerPtr trainer = defense::make_pgd_adv(model, config);

  trainer->fit(train);  // warmup: both batch sizes seen, pool fills
  const std::uint64_t parked = BufferPool::global().stats().free_buffers;

  BufferPool::global().reset_stats();
  trainer->fit(train);
  const PoolStats stats = BufferPool::global().stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bytes_allocated, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LE(stats.free_buffers, parked);
}

// Same property for a white-box PGD attack step driven through
// generate_into with a persistent destination buffer.
TEST(SteadyState, PgdAttackStepHasZeroPoolMissesAfterWarmup) {
  auto model = small_model(9);
  Rng data_rng(21);
  const Tensor images = rand_uniform({16, 1, 28, 28}, data_rng, -1.0f, 1.0f);
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < 16; ++i) labels.push_back(i % 10);

  Rng attack_rng(5);
  attacks::Pgd pgd({.epsilon = 0.3f, .step_size = 0.1f, .iterations = 3,
                    .restarts = 1},
                   attack_rng);
  Tensor adv;
  pgd.generate_into(model, images, labels, adv);  // warmup

  BufferPool::global().reset_stats();
  pgd.generate_into(model, images, labels, adv);
  const PoolStats stats = BufferPool::global().stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.bytes_allocated, 0u);
}

// Drives `attack` through generate_into on a 16-image LeNet batch: after
// one warmup call, a second call must take no new buffer from the pool.
void expect_attack_zero_pool_misses_after_warmup(attacks::Attack& attack) {
  auto model = small_model(27);
  Rng data_rng(25);
  const Tensor images = rand_uniform({16, 1, 28, 28}, data_rng, -1.0f, 1.0f);
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < 16; ++i) labels.push_back(i % 10);

  Tensor adv;
  attack.generate_into(model, images, labels, adv);  // warmup

  BufferPool::global().reset_stats();
  attack.generate_into(model, images, labels, adv);
  const PoolStats stats = BufferPool::global().stats();
  EXPECT_EQ(adv.shape(), images.shape());
  EXPECT_EQ(stats.misses, 0u) << attack.name();
  EXPECT_EQ(stats.bytes_allocated, 0u) << attack.name();
}

// Restart selection scores each restart by per-example loss, through the
// attack's member scratch.
TEST(SteadyState, PgdWithRestartsHasZeroPoolMissesAfterWarmup) {
  Rng attack_rng(5);
  attacks::Pgd pgd({.epsilon = 0.3f, .step_size = 0.1f, .iterations = 3,
                    .restarts = 2},
                   attack_rng);
  expect_attack_zero_pool_misses_after_warmup(pgd);
}

// The Table IV attacks keep their logits, backward seeds and input
// gradients in member scratch; the returned batch is a plain allocation.
TEST(SteadyState, CarliniWagnerHasZeroPoolMissesAfterWarmup) {
  attacks::CarliniWagner cw({.epsilon = 0.3f, .iterations = 5});
  expect_attack_zero_pool_misses_after_warmup(cw);
}

TEST(SteadyState, DeepFoolHasZeroPoolMissesAfterWarmup) {
  attacks::DeepFool deepfool({.epsilon = 0.3f, .iterations = 3});
  expect_attack_zero_pool_misses_after_warmup(deepfool);
}

// The inference path behind the Evaluator and the serving engine: once the
// batch shape has been seen, repeated predictions through an
// InferenceSession (forward_into + argmax_rows_into + pooled alarm head)
// must never touch the allocator.
TEST(SteadyState, InferenceSessionPredictHasZeroPoolMissesAfterWarmup) {
  auto model = small_model(17);
  Rng disc_rng(19);
  models::Discriminator alarm(10, disc_rng);
  Rng data_rng(29);
  const Tensor images = rand_uniform({16, 1, 28, 28}, data_rng);

  models::InferenceSession session(model, &alarm);
  session.predict(images);  // warmup
  session.alarm_scores();

  BufferPool::global().reset_stats();
  for (int i = 0; i < 3; ++i) {
    const std::vector<std::int64_t>& labels = session.predict(images);
    EXPECT_EQ(labels.size(), 16u);
    const Tensor& scores = session.alarm_scores();
    EXPECT_EQ(scores.shape(), Shape({16, 1}));
  }
  const PoolStats stats = BufferPool::global().stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bytes_allocated, 0u);
}

// A conv layer at the training batch (64) and the serving batch (1): once
// both have been seen, alternating forward/backward passes at either size
// take every buffer from the pool. The offset table is kept across batch
// sizes; dX's packed weights and the dW partials are pooled per call, and
// the forward's packed weights are per-thread scratch.
TEST(SteadyState, Conv2dHasZeroPoolMissesAfterWarmup) {
  Rng rng(37);
  nn::Conv2d conv({.in_channels = 16, .out_channels = 32, .kernel = 3,
                   .stride = 1, .padding = 1},
                  rng);
  const Tensor train_batch = randn({64, 16, 16, 16}, rng);
  const Tensor serve_batch = randn({1, 16, 16, 16}, rng);
  const Tensor train_grad = randn({64, 32, 16, 16}, rng);
  const Tensor serve_grad = randn({1, 32, 16, 16}, rng);
  Tensor out;
  Tensor grad_input;
  const auto step = [&](const Tensor& x, const Tensor& grad_y) {
    conv.forward_into(x, out, /*training=*/true);
    conv.backward_into(grad_y, grad_input);
  };
  step(train_batch, train_grad);  // warmup at both sizes
  step(serve_batch, serve_grad);

  BufferPool::global().reset_stats();
  for (int i = 0; i < 3; ++i) {
    step(train_batch, train_grad);
    step(serve_batch, serve_grad);
  }
  const PoolStats stats = BufferPool::global().stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bytes_allocated, 0u);
}

// Black-box SPSA routes every probe through member scratch, so after a
// warmup call it too must be pool-miss-free (it used to allocate fresh
// direction/probe/logit tensors on every finite-difference sample).
TEST(SteadyState, SpsaAttackStepHasZeroPoolMissesAfterWarmup) {
  auto model = small_model(13);
  Rng data_rng(23);
  const Tensor images = rand_uniform({8, 1, 28, 28}, data_rng, -1.0f, 1.0f);
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < 8; ++i) labels.push_back(i % 10);

  Rng attack_rng(6);
  attacks::Spsa spsa({.epsilon = 0.3f, .step_size = 0.1f, .iterations = 2,
                      .restarts = 1},
                     attack_rng, /*delta=*/0.01f, /*samples=*/2);
  Tensor adv;
  spsa.generate_into(model, images, labels, adv);  // warmup

  BufferPool::global().reset_stats();
  spsa.generate_into(model, images, labels, adv);
  const PoolStats stats = BufferPool::global().stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bytes_allocated, 0u);
}

// Recycled (dirty) buffers must never leak state between steps: a model
// stepped twice on different inputs gives bit-identical logits to a fresh
// identical model that only ever saw the second input.
TEST(SteadyState, DirtyBuffersDoNotAffectResults) {
  auto warmed = small_model(31);
  auto fresh = small_model(31);
  Rng data_rng(77);
  const Tensor first = rand_uniform({8, 1, 28, 28}, data_rng, -1.0f, 1.0f);
  const Tensor second = rand_uniform({8, 1, 28, 28}, data_rng, -1.0f, 1.0f);

  // Pollute every scratch buffer in `warmed` with first-batch values.
  Tensor scratch_logits;
  warmed.forward_into(first, scratch_logits, /*training=*/false);

  Tensor warmed_logits;
  Tensor fresh_logits;
  warmed.forward_into(second, warmed_logits, /*training=*/false);
  fresh.forward_into(second, fresh_logits, /*training=*/false);
  EXPECT_TRUE(warmed_logits.equals(fresh_logits));
}

}  // namespace
}  // namespace zkg
