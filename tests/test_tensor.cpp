// Unit tests for the Tensor value type and element-wise/reduction kernels.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace zkg {
namespace {

TEST(Shape, NumelAndToString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_numel({}), 1);
  EXPECT_EQ(shape_numel({5, 0}), 0);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
  EXPECT_THROW(shape_numel({2, -1}), InvalidArgument);
}

TEST(Tensor, DefaultIsEmpty) {
  const Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.numel(), 0);
}

TEST(Tensor, FillConstructor) {
  const Tensor t({2, 3}, 1.5f);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.ndim(), 2);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(t[i], 1.5f);
}

TEST(Tensor, DataConstructorValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3}), InvalidArgument);
}

TEST(Tensor, VectorFactory) {
  const Tensor t = Tensor::vector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.shape(), Shape({3}));
  EXPECT_FLOAT_EQ(t.at(1), 2.0f);
}

TEST(Tensor, DimNegativeIndexing) {
  const Tensor t({2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
  EXPECT_THROW(t.dim(3), InvalidArgument);
  EXPECT_THROW(t.dim(-4), InvalidArgument);
}

TEST(Tensor, MultiDimAccess) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(t[5], 7.0f);
  Tensor u({2, 2, 2, 2});
  u.at(1, 1, 1, 1) = 3.0f;
  EXPECT_FLOAT_EQ(u[15], 3.0f);
  EXPECT_THROW(t.at(0), InvalidArgument);         // wrong arity
  EXPECT_THROW(u.at(0, 0, 0), InvalidArgument);   // wrong arity
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshape({3, 2});
  EXPECT_EQ(r.shape(), Shape({3, 2}));
  EXPECT_FLOAT_EQ(r.at(2, 1), 6.0f);
  EXPECT_THROW(t.reshape({4, 2}), InvalidArgument);
}

TEST(Tensor, SliceRows) {
  Tensor t({4, 2}, std::vector<float>{0, 1, 2, 3, 4, 5, 6, 7});
  const Tensor s = t.slice_rows(1, 3);
  EXPECT_EQ(s.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(s.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(s.at(1, 1), 5.0f);
  EXPECT_THROW(t.slice_rows(3, 2), InvalidArgument);
  EXPECT_THROW(t.slice_rows(0, 5), InvalidArgument);
}

TEST(Tensor, EqualsAndAllclose) {
  const Tensor a({2}, std::vector<float>{1.0f, 2.0f});
  Tensor b = a;
  EXPECT_TRUE(a.equals(b));
  b[0] += 1e-6f;
  EXPECT_FALSE(a.equals(b));
  EXPECT_TRUE(a.allclose(b, 1e-5f));
  EXPECT_FALSE(a.allclose(Tensor({3}), 1.0f));  // shape mismatch
}

TEST(Ops, ElementwiseBinary) {
  const Tensor a({3}, std::vector<float>{1, 2, 3});
  const Tensor b({3}, std::vector<float>{4, 5, 6});
  Tensor out;
  add_into(out, a, b);
  EXPECT_TRUE(out.equals(Tensor({3}, std::vector<float>{5, 7, 9})));
  sub_into(out, b, a);
  EXPECT_TRUE(out.equals(Tensor({3}, std::vector<float>{3, 3, 3})));
  mul_into(out, a, b);
  EXPECT_TRUE(out.equals(Tensor({3}, std::vector<float>{4, 10, 18})));
  EXPECT_THROW(add_into(out, a, Tensor({2})), InvalidArgument);
}

TEST(Ops, InPlaceForms) {
  Tensor a({2}, std::vector<float>{1, 2});
  add_(a, Tensor({2}, std::vector<float>{10, 20}));
  EXPECT_TRUE(a.equals(Tensor({2}, std::vector<float>{11, 22})));
  mul_(a, 2.0f);
  EXPECT_TRUE(a.equals(Tensor({2}, std::vector<float>{22, 44})));
  add_(a, -22.0f);
  EXPECT_TRUE(a.equals(Tensor({2}, std::vector<float>{0, 22})));
  mul_(a, Tensor({2}, std::vector<float>{2, 0}));
  EXPECT_TRUE(a.equals(Tensor({2})));
}

TEST(Ops, Axpy) {
  Tensor y({3}, std::vector<float>{1, 1, 1});
  axpy_(y, 2.0f, Tensor({3}, std::vector<float>{1, 2, 3}));
  EXPECT_TRUE(y.equals(Tensor({3}, std::vector<float>{3, 5, 7})));
  Tensor z({2});
  EXPECT_THROW(axpy_(z, 1.0f, y), InvalidArgument);
}

TEST(Ops, Clamp) {
  Tensor a({4}, std::vector<float>{-2, -0.5f, 0, 3});
  const Tensor expected({4}, std::vector<float>{-1, -0.5f, 0, 1});
  Tensor out;
  clamp_into(out, a, -1.0f, 1.0f);
  EXPECT_TRUE(out.equals(expected));
  EXPECT_THROW(clamp_into(out, a, 1.0f, -1.0f), InvalidArgument);
  clamp_(a, -1.0f, 1.0f);
  EXPECT_TRUE(a.equals(expected));
  EXPECT_THROW(clamp_(a, 1.0f, -1.0f), InvalidArgument);
}

TEST(Ops, Reductions) {
  const Tensor a({4}, std::vector<float>{1, -2, 3, -4});
  EXPECT_FLOAT_EQ(sum(a), -2.0f);
  EXPECT_FLOAT_EQ(mean(a), -0.5f);
  EXPECT_FLOAT_EQ(max_value(a), 3.0f);
  EXPECT_FLOAT_EQ(min_value(a), -4.0f);
  EXPECT_FLOAT_EQ(max_abs(a), 4.0f);
  EXPECT_NEAR(l2_norm(a), std::sqrt(30.0f), 1e-5f);
  EXPECT_FLOAT_EQ(dot(a, a), 30.0f);
  EXPECT_THROW(mean(Tensor()), InvalidArgument);
}

TEST(Ops, ArgmaxRows) {
  const Tensor a({2, 3}, std::vector<float>{1, 5, 2, -1, 0, -3});
  std::vector<std::int64_t> argmax;
  argmax_rows_into(argmax, a);
  const std::vector<std::int64_t> expected{1, 1};
  EXPECT_EQ(argmax, expected);
}

TEST(Ops, SoftmaxRowsSumsToOne) {
  Rng rng(3);
  const Tensor logits = randn({5, 7}, rng);
  Tensor probs;
  softmax_rows_into(probs, logits);
  for (std::int64_t r = 0; r < 5; ++r) {
    double row = 0.0;
    for (std::int64_t c = 0; c < 7; ++c) {
      EXPECT_GT(probs[r * 7 + c], 0.0f);
      row += probs[r * 7 + c];
    }
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxShiftInvariance) {
  const Tensor logits({1, 3}, std::vector<float>{1, 2, 3});
  Tensor shifted;
  add_into(shifted, logits, 100.0f);
  Tensor probs;
  Tensor shifted_probs;
  softmax_rows_into(probs, logits);
  softmax_rows_into(shifted_probs, shifted);
  EXPECT_TRUE(probs.allclose(shifted_probs, 1e-5f));
}

TEST(Ops, SoftmaxNumericallyStableAtExtremes) {
  const Tensor logits({1, 2}, std::vector<float>{1000.0f, -1000.0f});
  Tensor probs;
  softmax_rows_into(probs, logits);
  EXPECT_NEAR(probs[0], 1.0f, 1e-6f);
  EXPECT_NEAR(probs[1], 0.0f, 1e-6f);
}

TEST(Ops, ConcatRows) {
  const Tensor a({1, 2}, std::vector<float>{1, 2});
  const Tensor b({2, 2}, std::vector<float>{3, 4, 5, 6});
  Tensor c;
  concat_rows_into(c, a, b);
  EXPECT_EQ(c.shape(), Shape({3, 2}));
  EXPECT_FLOAT_EQ(c.at(2, 1), 6.0f);
  EXPECT_THROW(concat_rows_into(c, a, Tensor({1, 3})), InvalidArgument);
}

TEST(Ops, GatherRows) {
  const Tensor a({3, 2}, std::vector<float>{0, 1, 2, 3, 4, 5});
  Tensor g;
  gather_rows_into(g, a, {2, 0, 2});
  EXPECT_EQ(g.shape(), Shape({3, 2}));
  EXPECT_FLOAT_EQ(g.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(g.at(2, 0), 4.0f);
  EXPECT_THROW(gather_rows_into(g, a, {3}), InvalidArgument);
}

TEST(Ops, IntoFormsReuseOneDestination) {
  const Tensor a({2, 3}, std::vector<float>{1, 5, 2, -1, 0.25f, -3});
  Tensor out;  // reused across every call below, changing shape once
  add_into(out, a, 1.5f);
  EXPECT_TRUE(out.equals(Tensor(
      {2, 3}, std::vector<float>{2.5f, 6.5f, 3.5f, 0.5f, 1.75f, -1.5f})));
  mul_into(out, a, -2.0f);
  EXPECT_TRUE(out.equals(
      Tensor({2, 3}, std::vector<float>{-2, -10, -4, 2, -0.5f, 6})));
  gather_rows_into(out, a, {1, 1, 0});
  EXPECT_TRUE(out.equals(Tensor(
      {3, 3}, std::vector<float>{-1, 0.25f, -3, -1, 0.25f, -3, 1, 5, 2})));
}

TEST(Ops, IntoFormsRejectAliasedDestination) {
  Tensor a({2, 2}, std::vector<float>{1, 2, 3, 4});
  EXPECT_THROW(softmax_rows_into(a, a), InvalidArgument);
  EXPECT_THROW(gather_rows_into(a, a, {0}), InvalidArgument);
}

TEST(Random, NormalMoments) {
  Rng rng(7);
  const Tensor t = randn({10000}, rng, 2.0f, 3.0f);
  EXPECT_NEAR(mean(t), 2.0f, 0.15f);
  Tensor centered;
  add_into(centered, t, -mean(t));
  const float stddev =
      l2_norm(centered) / std::sqrt(static_cast<float>(centered.numel()));
  EXPECT_NEAR(stddev, 3.0f, 0.15f);
}

TEST(Random, UniformBounds) {
  Rng rng(8);
  const Tensor t = rand_uniform({5000}, rng, -0.25f, 0.5f);
  EXPECT_GE(min_value(t), -0.25f);
  EXPECT_LT(max_value(t), 0.5f);
  EXPECT_NEAR(mean(t), 0.125f, 0.02f);
}

TEST(Random, DropoutMaskInvertedScaling) {
  Rng rng(9);
  Tensor mask({20000});
  fill_dropout_mask(mask, rng, 0.8f);
  // Entries are 0 or 1/keep_prob and the mean is ~1.
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(mask[i] == 0.0f || std::fabs(mask[i] - 1.25f) < 1e-6f);
  }
  EXPECT_NEAR(mean(mask), 1.0f, 0.02f);
  Tensor small({4});
  EXPECT_THROW(fill_dropout_mask(small, rng, 0.0f), InvalidArgument);
}

// fill_dropout_mask draws through one hoisted bernoulli_distribution; it
// must consume the stream exactly as one Rng::bernoulli call per element.
TEST(Random, DropoutMaskMatchesPerElementBernoulliDraws) {
  Rng rng(41);
  Rng reference(41);
  Tensor mask({5000});
  fill_dropout_mask(mask, rng, 0.7f);
  const float scale = 1.0f / 0.7f;
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    const float expected = reference.bernoulli(0.7f) ? scale : 0.0f;
    ASSERT_EQ(mask[i], expected) << "element " << i;
  }
  EXPECT_EQ(rng.engine()(), reference.engine()());  // streams stay in step
}

TEST(RngDeterminism, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.randint(0, 1000), b.randint(0, 1000));
  }
}

TEST(RngDeterminism, ForkDecorrelates) {
  Rng a(123);
  Rng child = a.fork();
  // The child stream should differ from a fresh same-seed parent stream.
  Rng fresh(123);
  int same = 0;
  for (int i = 0; i < 20; ++i) {
    if (child.randint(0, 1 << 30) == fresh.randint(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, PermutationIsBijective) {
  Rng rng(5);
  const std::vector<std::int64_t> perm = rng.permutation(100);
  std::vector<bool> seen(100, false);
  for (const std::int64_t v : perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

TEST(Rng, BernoulliProbability) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3f) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

}  // namespace
}  // namespace zkg
