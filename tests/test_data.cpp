// Dataset, glyph, preprocessing and batcher tests, including parameterized
// generator invariants across all three synthetic datasets.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "data/batcher.hpp"
#include "data/dataset.hpp"
#include "data/glyphs.hpp"
#include "data/preprocess.hpp"
#include "tensor/ops.hpp"

namespace zkg::data {
namespace {

class GeneratorInvariants : public ::testing::TestWithParam<DatasetId> {};

TEST_P(GeneratorInvariants, ShapeRangeAndBalance) {
  Rng rng(1);
  const Dataset ds = make_dataset(GetParam(), 200, rng);
  ds.validate();
  EXPECT_EQ(ds.size(), 200);
  EXPECT_EQ(ds.num_classes, 10);
  EXPECT_EQ(ds.name, dataset_name(GetParam()));
  // Raw pixel range is [0, 255] like the original datasets' files.
  EXPECT_GE(min_value(ds.images), 0.0f);
  EXPECT_LE(max_value(ds.images), 255.0f);
  // Balanced classes.
  for (const std::int64_t count : ds.class_histogram()) EXPECT_EQ(count, 20);
  // Expected geometry.
  if (GetParam() == DatasetId::kObjects) {
    EXPECT_EQ(ds.images.shape(), Shape({200, 3, 32, 32}));
  } else {
    EXPECT_EQ(ds.images.shape(), Shape({200, 1, 28, 28}));
  }
}

TEST_P(GeneratorInvariants, DeterministicGivenSeed) {
  Rng rng_a(7), rng_b(7);
  const Dataset a = make_dataset(GetParam(), 30, rng_a);
  const Dataset b = make_dataset(GetParam(), 30, rng_b);
  EXPECT_TRUE(a.images.equals(b.images));
  EXPECT_EQ(a.labels, b.labels);
}

TEST_P(GeneratorInvariants, SamplesVaryWithinAClass) {
  Rng rng(9);
  const Dataset ds = make_dataset(GetParam(), 40, rng);
  // Rows 0 and 10 share a label but must not be identical images.
  ASSERT_EQ(ds.label(0), ds.label(10));
  EXPECT_FALSE(ds.image(0).equals(ds.image(10)));
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, GeneratorInvariants,
                         ::testing::Values(DatasetId::kDigits,
                                           DatasetId::kFashion,
                                           DatasetId::kObjects));

TEST(Dataset, SubsetPreservesOrderAndLabels) {
  Rng rng(2);
  const Dataset ds = make_synth_digits(30, rng);
  const Dataset sub = ds.subset({5, 0, 17});
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.label(0), ds.label(5));
  EXPECT_EQ(sub.label(2), ds.label(17));
  EXPECT_TRUE(sub.image(1).equals(ds.image(0)));
}

TEST(Dataset, ValidateRejectsCorruption) {
  Rng rng(3);
  Dataset ds = make_synth_digits(10, rng);
  ds.labels.pop_back();
  EXPECT_THROW(ds.validate(), InvalidArgument);
  ds.labels.push_back(99);
  EXPECT_THROW(ds.validate(), InvalidArgument);
}

TEST(Glyphs, DigitGlyphsWellFormed) {
  for (std::int64_t d = 0; d < 10; ++d) {
    const Glyph& g = digit_glyph(d);
    ASSERT_EQ(g.size(), 7u);
    for (const std::string& row : g) EXPECT_EQ(row.size(), 5u);
  }
  EXPECT_THROW(digit_glyph(10), InvalidArgument);
}

TEST(Glyphs, FashionGlyphsWellFormed) {
  for (std::int64_t c = 0; c < 10; ++c) {
    const Glyph& g = fashion_glyph(c);
    ASSERT_EQ(g.size(), 14u);
    for (const std::string& row : g) EXPECT_EQ(row.size(), 10u);
  }
  EXPECT_THROW(fashion_glyph(-1), InvalidArgument);
}

TEST(Glyphs, DrawClipsOutOfBounds) {
  std::vector<float> plane(16, 0.0f);  // 4x4
  // Glyph larger than plane, drawn partially off-canvas: must not crash and
  // must only touch in-bounds pixels.
  draw_glyph(plane.data(), 4, 4, digit_glyph(8), 2, -3, -3, 1.0f);
  for (const float v : plane) EXPECT_TRUE(v == 0.0f || v == 1.0f);
}

TEST(Glyphs, ExtentMatchesScale) {
  const GlyphExtent e = glyph_extent(digit_glyph(0), 3);
  EXPECT_EQ(e.height, 21);
  EXPECT_EQ(e.width, 15);
}

TEST(Preprocess, ScaleMapsToUnitRange) {
  const Tensor raw({4}, std::vector<float>{0.0f, 127.5f, 255.0f, 51.0f});
  const Tensor scaled = scale_pixels(raw);
  EXPECT_NEAR(scaled[0], -1.0f, 1e-5f);
  EXPECT_NEAR(scaled[1], 0.0f, 1e-5f);
  EXPECT_NEAR(scaled[2], 1.0f, 1e-5f);
  EXPECT_TRUE(unscale_pixels(scaled).allclose(raw, 1e-3f));
}

TEST(Preprocess, DatasetOverloadKeepsMetadata) {
  Rng rng(4);
  const Dataset raw = make_synth_digits(10, rng);
  const Dataset scaled = scale_pixels(raw);
  EXPECT_EQ(scaled.labels, raw.labels);
  EXPECT_EQ(scaled.name, raw.name);
  EXPECT_GE(min_value(scaled.images), kPixelMin);
  EXPECT_LE(max_value(scaled.images), kPixelMax);
}

TEST(Preprocess, SeparateIsDisjointAndComplete) {
  Rng rng(5);
  const Dataset ds = make_synth_digits(50, rng);
  const TrainTestSplit split = separate(ds, 10, rng);
  EXPECT_EQ(split.train.size(), 40);
  EXPECT_EQ(split.test.size(), 10);
  // No image can be (bit-exactly) in both sides: compare checksums.
  std::multiset<float> train_sums, test_sums;
  for (std::int64_t i = 0; i < split.train.size(); ++i) {
    train_sums.insert(sum(split.train.image(i)));
  }
  for (std::int64_t i = 0; i < split.test.size(); ++i) {
    test_sums.insert(sum(split.test.image(i)));
  }
  for (const float s : test_sums) {
    EXPECT_EQ(train_sums.count(s), 0u) << "image leaked across the split";
  }
  EXPECT_THROW(separate(ds, 50, rng), InvalidArgument);
  EXPECT_THROW(separate(ds, 0, rng), InvalidArgument);
}

TEST(Preprocess, GaussianAugmentClampsAndPerturbs) {
  Rng rng(6);
  const Tensor images({2, 1, 4, 4}, 0.5f);
  Tensor augmented;
  gaussian_augment_into(augmented, images, rng, 1.0f);
  EXPECT_GE(min_value(augmented), kPixelMin);
  EXPECT_LE(max_value(augmented), kPixelMax);
  EXPECT_FALSE(augmented.equals(images));
  // sigma = 0 is the identity and draws nothing.
  const std::string before = rng.state();
  gaussian_augment_into(augmented, images, rng, 0.0f);
  EXPECT_TRUE(augmented.equals(images));
  EXPECT_EQ(rng.state(), before);
  // ... and still projects into the valid range.
  const Tensor wild({3}, std::vector<float>{-3.0f, 0.25f, 3.0f});
  gaussian_augment_into(augmented, wild, rng, 0.0f);
  EXPECT_TRUE(augmented.equals(
      Tensor({3}, std::vector<float>{kPixelMin, 0.25f, kPixelMax})));
  EXPECT_THROW(gaussian_augment_into(augmented, images, rng, -1.0f),
               InvalidArgument);
}

// The noise of one training batch (64 MNIST-sized images of mid-grey
// pixels) has mean 0 and standard deviation sigma. At n = 50,176 draws the
// standard errors are 0.0045 sigma (mean) and 0.0032 sigma (deviation);
// the tolerances are five of them. Adjacent draws, which share one
// polar-method pair half the time, must be uncorrelated within five
// standard errors (1 / sqrt(n) = 0.0045). sigma stays small enough that no
// draw reaches the clamp at +-1, so the moments are those of the raw noise.
TEST(Preprocess, GaussianAugmentNoiseMoments) {
  const Tensor grey({64, 1, 28, 28}, 0.0f);
  const double n = static_cast<double>(grey.numel());
  for (const float sigma : {0.1f, 0.2f}) {
    SCOPED_TRACE("sigma " + std::to_string(sigma));
    Rng rng(2019);
    Tensor noisy;
    gaussian_augment_into(noisy, grey, rng, sigma);
    ASSERT_GT(min_value(noisy), kPixelMin);
    ASSERT_LT(max_value(noisy), kPixelMax);
    double sum = 0.0;
    for (std::int64_t i = 0; i < noisy.numel(); ++i) sum += noisy[i];
    const double mean = sum / n;
    double squares = 0.0;
    double lag_products = 0.0;
    for (std::int64_t i = 0; i < noisy.numel(); ++i) {
      const double d = noisy[i] - mean;
      squares += d * d;
      if (i + 1 < noisy.numel()) lag_products += d * (noisy[i + 1] - mean);
    }
    const double stddev = std::sqrt(squares / (n - 1.0));
    EXPECT_NEAR(mean, 0.0, 5.0 * 0.0045 * sigma);
    EXPECT_NEAR(stddev, sigma, 5.0 * 0.0032 * sigma);
    EXPECT_NEAR(lag_products / squares, 0.0, 5.0 * 0.0045);
  }
}

TEST(Preprocess, ProjectValid) {
  const Tensor wild({3}, std::vector<float>{-5.0f, 0.2f, 5.0f});
  const Tensor projected = project_valid(wild);
  EXPECT_TRUE(projected.equals(Tensor({3}, std::vector<float>{-1.0f, 0.2f, 1.0f})));
}

TEST(Batcher, CoversEveryExampleOncePerEpoch) {
  Rng rng(7);
  const Dataset ds = make_synth_digits(25, rng);
  Batcher batcher(ds, 8, rng);
  std::int64_t seen = 0;
  std::int64_t batches = 0;
  Batch batch;
  while (batcher.next_into(batch)) {
    seen += batch.size();
    ++batches;
    EXPECT_LE(batch.size(), 8);
  }
  EXPECT_EQ(seen, 25);
  EXPECT_EQ(batches, batcher.batches_per_epoch());
  EXPECT_EQ(batcher.batches_per_epoch(), 4);
}

TEST(Batcher, ShuffleChangesOrderAcrossEpochs) {
  Rng rng(8);
  const Dataset ds = make_synth_digits(64, rng);
  Batcher batcher(ds, 64, rng);
  Batch first, second;
  ASSERT_TRUE(batcher.next_into(first));
  batcher.start_epoch();
  ASSERT_TRUE(batcher.next_into(second));
  EXPECT_NE(first.labels, second.labels);  // overwhelmingly likely
}

TEST(Batcher, NoShuffleIsSequential) {
  Rng rng(9);
  const Dataset ds = make_synth_digits(10, rng);
  Batcher batcher(ds, 4, rng, /*shuffle=*/false);
  Batch batch;
  ASSERT_TRUE(batcher.next_into(batch));
  for (std::int64_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.labels[static_cast<std::size_t>(i)], ds.label(i));
  }
}

TEST(Batcher, LabelsTravelWithImages) {
  Rng rng(10);
  const Dataset ds = make_synth_digits(40, rng);
  Batcher batcher(ds, 16, rng);
  Batch batch;
  while (batcher.next_into(batch)) {
    // Each image in the batch must carry its own label: verify by matching
    // checksums back to the source dataset.
    for (std::int64_t i = 0; i < batch.size(); ++i) {
      const float checksum = sum(batch.images.slice_rows(i, i + 1));
      bool matched = false;
      for (std::int64_t j = 0; j < ds.size(); ++j) {
        if (sum(ds.image(j)) == checksum) {
          EXPECT_EQ(batch.labels[static_cast<std::size_t>(i)], ds.label(j));
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched);
    }
  }
}

}  // namespace
}  // namespace zkg::data
