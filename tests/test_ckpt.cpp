// Fault-tolerance tests (DESIGN.md §11): CRC32 known answers, crash-safe
// atomic writes, checkpoint naming/rotation, RNG and Batcher snapshots, the
// ZKGC encode/decode round-trip with a corruption matrix, a pinned encoding,
// crafted counts and a seeded mutation fuzz, the ZKGT tensor framing inside
// it, each defense's checkpoint layout, bit-identical interrupt+resume for
// all seven defenses on LeNet and allCNN, and the NaN rollback policy.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ckpt/crc32.hpp"
#include "ckpt/io.hpp"
#include "ckpt/signal.hpp"
#include "ckpt/train_state.hpp"
#include "common/rng.hpp"
#include "data/batcher.hpp"
#include "data/preprocess.hpp"
#include "defense/checkpointing.hpp"
#include "defense/cls.hpp"
#include "defense/registry.hpp"
#include "defense/vanilla.hpp"
#include "defense/zk_gandef.hpp"
#include "models/allcnn.hpp"
#include "models/lenet.hpp"
#include "nn/dropout.hpp"
#include "nn/sequential.hpp"
#include "obs/telemetry.hpp"
#include "tensor/random.hpp"

namespace zkg::ckpt {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test; removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("zkg_ckpt_" + tag + "_" + std::to_string(::getpid())))
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Crc32, KnownAnswerAndChaining) {
  // The standard zlib/IEEE CRC32 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  // Chaining two halves equals the one-shot digest.
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t half = crc32(data.data(), 20);
  EXPECT_EQ(crc32(data.data() + 20, data.size() - 20, half),
            crc32(data.data(), data.size()));
  // Sensitivity: one flipped bit changes the digest.
  std::string flipped = data;
  flipped[7] ^= 1;
  EXPECT_NE(crc32(flipped.data(), flipped.size()),
            crc32(data.data(), data.size()));
}

TEST(AtomicWrite, RoundTripOverwriteAndNesting) {
  TempDir dir("atomic");
  const std::string path = dir.path() + "/sub/dir/file.bin";
  atomic_write_file(path, "first");
  EXPECT_EQ(slurp(path), "first");
  atomic_write_file(path, "second, longer payload");
  EXPECT_EQ(slurp(path), "second, longer payload");
  // The tmp staging file never outlives a successful write.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(CheckpointFiles, NamingListingAndRotation) {
  TempDir dir("rotate");
  // Write out of order; zero-padded names must sort into training order.
  // Payloads are real encoded states: latest_checkpoint() validates
  // candidates and would (correctly) skip garbage bytes.
  TrainState state;
  state.defense = "test";
  state.model_params.push_back(Tensor({2, 2}));
  for (const auto& [e, b] : std::vector<std::pair<int, int>>{
           {1, 0}, {0, 5}, {0, 0}, {2, 3}}) {
    state.epoch = e;
    state.batch = b;
    atomic_write_file(checkpoint_path(dir.path(), e, b),
                      encode_train_state(state));
  }
  // Unrelated files and stale .tmp partials are not checkpoints.
  atomic_write_file(dir.path() + "/notes.txt", "y");
  std::ofstream(dir.path() + "/zkg-ckpt-e000009-b000000000.zkgc.tmp")
      << "partial";

  const std::vector<std::string> all = list_checkpoints(dir.path());
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(fs::path(all.front()).filename(), "zkg-ckpt-e000000-b000000000.zkgc");
  EXPECT_EQ(fs::path(all.back()).filename(), "zkg-ckpt-e000002-b000000003.zkgc");
  EXPECT_EQ(latest_checkpoint(dir.path()), all.back());

  rotate_checkpoints(dir.path(), 2);
  const std::vector<std::string> kept = list_checkpoints(dir.path());
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept.back(), all.back());
  EXPECT_EQ(kept.front(), all[2]);
  // Rotation also sweeps crash leftovers, but not unrelated files.
  EXPECT_FALSE(
      fs::exists(dir.path() + "/zkg-ckpt-e000009-b000000000.zkgc.tmp"));
  EXPECT_TRUE(fs::exists(dir.path() + "/notes.txt"));
}

TEST(RngState, RoundTripContinuesBitIdentically) {
  Rng a(7);
  for (int i = 0; i < 100; ++i) a.normal();
  const std::string snapshot = a.state();
  Rng b(999);
  b.set_state(snapshot);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.randint(0, 1u << 30), b.randint(0, 1u << 30)) << "draw " << i;
  }
  EXPECT_THROW(b.set_state("not an mt19937_64 state"), SerializationError);
}

TEST(BatcherState, RestoredBatcherYieldsTheSameRemainingSequence) {
  Rng data_rng(42);
  const data::Dataset ds =
      data::scale_pixels(data::make_synth_digits(64, data_rng));

  auto drain_labels = [](data::Batcher& b) {
    std::vector<std::int64_t> labels;
    data::Batch batch;
    while (b.next_into(batch)) {
      labels.insert(labels.end(), batch.labels.begin(), batch.labels.end());
    }
    return labels;
  };

  Rng r1(5);
  data::Batcher b1(ds, 16, r1);
  b1.start_epoch();
  data::Batch consumed;
  b1.next_into(consumed);
  b1.next_into(consumed);
  const data::BatcherState snap = b1.state();

  Rng r2(999);  // deliberately different stream; load_state overrides it
  data::Batcher b2(ds, 16, r2);
  b2.load_state(snap);
  EXPECT_EQ(drain_labels(b1), drain_labels(b2));

  // The restored shuffle stream also reproduces the NEXT epoch's order.
  b1.start_epoch();
  b2.start_epoch();
  EXPECT_EQ(drain_labels(b1), drain_labels(b2));

  // Validation: wrong permutation length, out-of-range index, bad cursor.
  data::BatcherState bad = snap;
  bad.order.push_back(0);
  EXPECT_THROW(b2.load_state(bad), SerializationError);
  bad = snap;
  bad.order[0] = 64;
  EXPECT_THROW(b2.load_state(bad), SerializationError);
  bad = snap;
  bad.cursor = 1000;
  EXPECT_THROW(b2.load_state(bad), SerializationError);
  // A duplicated index keeps the right length and range but drops a sample:
  // order must be a permutation, not merely in-bounds.
  bad = snap;
  bad.order[0] = bad.order[1];
  EXPECT_THROW(b2.load_state(bad), SerializationError);
  bad = snap;
  bad.order[0] = -1;
  EXPECT_THROW(b2.load_state(bad), SerializationError);
}

TEST(ModelRngs, DropoutStreamsAreDiscoverable) {
  Rng rng(3);
  nn::Sequential net;
  net.emplace<nn::Dropout>(0.5f, rng);
  net.emplace<nn::Dropout>(0.25f, rng);
  std::vector<Rng*> streams;
  net.collect_rngs(streams);
  ASSERT_EQ(streams.size(), 2u);
  EXPECT_NE(streams[0], streams[1]);
}

// --- ZKGC encode/decode ---

TrainState sample_state() {
  Rng rng(11);
  TrainState s;
  s.defense = "Vanilla";
  s.seed = 42;
  s.epoch = 3;
  s.batch = 7;
  s.loss_sum = 1.5;
  s.disc_sum = 0.25;
  s.completed_epochs = {{0, 2.0f, 0.5f, 0.75, 10}, {1, 1.0f, 0.25f, 0.5, 10}};
  s.counters = {{"rollbacks", 2}, {"skipped_batches", 1}};
  s.model_params = {randn({2, 3}, rng), Tensor({4}, 0.5f)};
  optim::OptimizerState opt;
  opt.kind = "adam";
  opt.step_count = 37;
  opt.learning_rate = 0.001f;
  opt.slots = {randn({2, 3}, rng), randn({4}, rng)};
  s.optimizers = {opt};
  Rng stream(9);
  s.rng_streams = {{"trainer", stream.state()}, {"noise", stream.state()}};
  s.has_batcher = true;
  s.batcher.rng = stream.state();
  s.batcher.order = {3, 1, 2, 0};
  s.batcher.cursor = 2;
  s.extra_tensors = {{"discriminator", {randn({3}, rng)}}};
  return s;
}

void expect_states_equal(const TrainState& a, const TrainState& b) {
  EXPECT_EQ(a.defense, b.defense);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.batch, b.batch);
  EXPECT_EQ(a.loss_sum, b.loss_sum);
  EXPECT_EQ(a.disc_sum, b.disc_sum);
  ASSERT_EQ(a.completed_epochs.size(), b.completed_epochs.size());
  for (std::size_t i = 0; i < a.completed_epochs.size(); ++i) {
    EXPECT_EQ(a.completed_epochs[i].epoch, b.completed_epochs[i].epoch);
    EXPECT_EQ(a.completed_epochs[i].classifier_loss,
              b.completed_epochs[i].classifier_loss);
    EXPECT_EQ(a.completed_epochs[i].batches, b.completed_epochs[i].batches);
  }
  EXPECT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.model_params.size(), b.model_params.size());
  for (std::size_t i = 0; i < a.model_params.size(); ++i) {
    EXPECT_TRUE(a.model_params[i].equals(b.model_params[i]));
  }
  ASSERT_EQ(a.optimizers.size(), b.optimizers.size());
  for (std::size_t i = 0; i < a.optimizers.size(); ++i) {
    EXPECT_EQ(a.optimizers[i].kind, b.optimizers[i].kind);
    EXPECT_EQ(a.optimizers[i].step_count, b.optimizers[i].step_count);
    EXPECT_EQ(a.optimizers[i].learning_rate, b.optimizers[i].learning_rate);
    ASSERT_EQ(a.optimizers[i].slots.size(), b.optimizers[i].slots.size());
    for (std::size_t j = 0; j < a.optimizers[i].slots.size(); ++j) {
      EXPECT_TRUE(a.optimizers[i].slots[j].equals(b.optimizers[i].slots[j]));
    }
  }
  EXPECT_EQ(a.rng_streams, b.rng_streams);
  EXPECT_EQ(a.has_batcher, b.has_batcher);
  EXPECT_EQ(a.batcher.rng, b.batcher.rng);
  EXPECT_EQ(a.batcher.order, b.batcher.order);
  EXPECT_EQ(a.batcher.cursor, b.batcher.cursor);
  ASSERT_EQ(a.extra_tensors.size(), b.extra_tensors.size());
  for (std::size_t i = 0; i < a.extra_tensors.size(); ++i) {
    EXPECT_EQ(a.extra_tensors[i].first, b.extra_tensors[i].first);
    ASSERT_EQ(a.extra_tensors[i].second.size(),
              b.extra_tensors[i].second.size());
    for (std::size_t j = 0; j < a.extra_tensors[i].second.size(); ++j) {
      EXPECT_TRUE(
          a.extra_tensors[i].second[j].equals(b.extra_tensors[i].second[j]));
    }
  }
}

TEST(TrainStateCodec, RoundTrip) {
  const TrainState original = sample_state();
  const TrainState decoded = decode_train_state(encode_train_state(original));
  expect_states_equal(original, decoded);
  EXPECT_EQ(decoded.counter_or("rollbacks"), 2);
  EXPECT_EQ(decoded.counter_or("absent", -1), -1);
  EXPECT_EQ(decoded.rng_stream("noise"), original.rng_streams[1].second);
  EXPECT_THROW(decoded.rng_stream("missing"), SerializationError);
  EXPECT_THROW(decoded.tensor_group("missing"), SerializationError);
}

TEST(TrainStateCodec, EveryTruncationThrows) {
  const std::string bytes = encode_train_state(sample_state());
  for (std::size_t n = 0; n < bytes.size(); n += 3) {
    EXPECT_THROW(decode_train_state(bytes.substr(0, n)), SerializationError)
        << "no error when truncated to " << n << " of " << bytes.size();
  }
  EXPECT_THROW(decode_train_state(bytes.substr(0, bytes.size() - 1)),
               SerializationError);
}

TEST(TrainStateCodec, CorruptionIsNeverSilent) {
  const TrainState original = sample_state();
  const std::string bytes = encode_train_state(original);
  std::int64_t rejected = 0;
  for (std::size_t i = 0; i < bytes.size(); i += 3) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x55);
    try {
      // A flipped section tag downgrades that section to "unknown, skipped"
      // (its CRC still matches), so decode may succeed — but then the result
      // must visibly differ from the original; corruption never no-ops.
      const TrainState decoded = decode_train_state(corrupted);
      EXPECT_NE(encode_train_state(decoded), bytes)
          << "flip at byte " << i << " was silently ignored";
    } catch (const SerializationError&) {
      ++rejected;
    }
  }
  // The vast majority of flips must be caught by CRC/structure checks.
  EXPECT_GT(rejected, static_cast<std::int64_t>(bytes.size() / 3 / 2));
}

void expect_decode_error(const std::string& bytes, const std::string& needle) {
  try {
    decode_train_state(bytes);
    ADD_FAILURE() << "expected SerializationError mentioning '" << needle
                  << "'";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(TrainStateCodec, HeaderCorruptionMessages) {
  const std::string bytes = encode_train_state(sample_state());
  std::string bad_magic = bytes;
  bad_magic[0] = 'Q';
  expect_decode_error(bad_magic, "magic");
  std::string bad_version = bytes;
  bad_version[4] = 77;
  expect_decode_error(bad_version, "version");
  std::string bad_sections = bytes;
  bad_sections[8] = static_cast<char>(0xFF);
  expect_decode_error(bad_sections, "section count");
  std::string bad_crc = bytes;
  bad_crc[bytes.size() / 2] ^= 0x01;  // deep inside a payload
  expect_decode_error(bad_crc, "");   // any typed error is fine
}

// Every envelope violation reads the same whether the file is decoded or
// only validated: both run one walk over header, bounds and CRCs.
TEST(TrainStateCodec, ValidateAndDecodeReportTheSameEnvelopeError) {
  const std::string bytes = encode_train_state(sample_state());
  auto message = [](const std::function<void()>& parse) {
    try {
      parse();
    } catch (const SerializationError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  std::vector<std::string> broken{bytes.substr(0, 7), bytes.substr(0, 20),
                                  bytes.substr(0, bytes.size() - 2)};
  for (const std::size_t at : {std::size_t{0}, std::size_t{4}, std::size_t{8},
                               std::size_t{12}, std::size_t{20},
                               bytes.size() / 2}) {
    std::string flipped = bytes;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x7F);
    broken.push_back(flipped);
  }
  for (const std::string& b : broken) {
    const std::string from_validate =
        message([&] { validate_train_state_bytes(b); });
    EXPECT_NE(from_validate, "no error");
    EXPECT_EQ(message([&] { decode_train_state(b); }), from_validate);
  }
}

// --- Section surgery for the payload-level tests below ---
//
// A mutated payload is resealed (size and CRC rewritten) so the mutation
// reaches the payload parsers instead of being caught by the CRC.

struct SectionSpan {
  std::size_t header = 0;   // offset of the fourcc tag
  std::size_t payload = 0;  // offset of the first payload byte
  std::uint64_t size = 0;
};

SectionSpan find_section(const std::string& bytes, const std::string& tag) {
  std::uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 8, 4);
  std::size_t pos = 12;
  for (std::uint32_t s = 0; s < count; ++s) {
    std::uint64_t size = 0;
    std::memcpy(&size, bytes.data() + pos + 4, 8);
    if (bytes.compare(pos, 4, tag) == 0) return {pos, pos + 12, size};
    pos += 12 + size + 4;
  }
  ADD_FAILURE() << "no section " << tag;
  return {};
}

std::string section_payload(const std::string& bytes, const std::string& tag) {
  const SectionSpan s = find_section(bytes, tag);
  return bytes.substr(s.payload, s.size);
}

template <typename T>
std::string le(T value) {
  return std::string(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// `bytes` with the payload of section `tag` replaced by `payload`.
std::string with_payload(const std::string& bytes, const std::string& tag,
                         const std::string& payload) {
  const SectionSpan s = find_section(bytes, tag);
  return bytes.substr(0, s.header + 4) +
         le(static_cast<std::uint64_t>(payload.size())) + payload +
         le(crc32(payload)) + bytes.substr(s.payload + s.size + 4);
}

// Every section present and every value a constant, so the encoding is a
// fixed byte string.
TrainState pinned_state() {
  TrainState s;
  s.defense = "ZK-GanDef";
  s.seed = 7;
  s.epoch = 2;
  s.batch = 5;
  s.loss_sum = 1.5;
  s.disc_sum = 0.25;
  s.completed_epochs = {{0, 2.0f, 0.5f, 0.75, 10}, {1, 1.0f, 0.25f, 0.5, 10}};
  s.counters = {{"rollbacks", 2}, {"skipped_batches", 1}};
  s.model_params = {Tensor({2, 3}, 0.5f), Tensor({4}, -1.0f)};
  optim::OptimizerState opt;
  opt.kind = "adam";
  opt.step_count = 37;
  opt.learning_rate = 0.001f;
  opt.slots = {Tensor({2, 3}, 0.125f), Tensor({4}, 2.0f)};
  s.optimizers = {opt};
  s.rng_streams = {{"trainer", "1 2 3"}, {"noise", "4 5 6"}};
  s.has_batcher = true;
  s.batcher.rng = "7 8 9";
  s.batcher.order = {3, 1, 2, 0};
  s.batcher.cursor = 2;
  s.extra_tensors = {{"discriminator", {Tensor({3}, 0.75f)}}};
  return s;
}

// .zkgc files already on disk must keep loading: the encoding of a fixed
// state is pinned to the bytes the format has always produced.
TEST(TrainStateCodec, FormatIsPinned) {
  const std::string bytes = encode_train_state(pinned_state());
  EXPECT_EQ(bytes.size(), 717u);
  EXPECT_EQ(crc32(bytes), 0x24D97E57u);
  expect_states_equal(decode_train_state(bytes), pinned_state());
}

// A small file with valid CRCs must not be able to make the decoder
// allocate for a count or a tensor size the section's bytes cannot hold.
// Each claim is rejected by name before any allocation.
TEST(TrainStateCodec, CraftedCountsAreBoundedByTheSection) {
  const std::string bytes = encode_train_state(pinned_state());
  const auto u32 = [](std::uint32_t v) { return le(v); };
  const auto u64 = [](std::uint64_t v) { return le(v); };
  const std::string meta_head = u64(3) + "Zkg" + u64(7) + le<std::int64_t>(0) +
                                le<std::int64_t>(0) + le(0.0) + le(0.0);

  // META: 2^24 epoch records (the count limit) in an empty remainder.
  expect_decode_error(with_payload(bytes, "META", meta_head + u64(1u << 24)),
                      "epoch history");
  // META: no epochs, 2^16 counters.
  expect_decode_error(
      with_payload(bytes, "META", meta_head + u64(0) + u64(1u << 16)),
      "counters");
  // MODL: 2^20 tensors claimed, none present.
  expect_decode_error(with_payload(bytes, "MODL", u64(1u << 20)),
                      "model parameters at byte");
  // MODL: one tensor of shape [2^32] (16 GiB of floats), no data.
  expect_decode_error(
      with_payload(bytes, "MODL",
                   u64(1) + "ZKGT" + u32(1) + u32(1) + u64(1ull << 32)),
      "model parameters, tensor 0 of 1");
  // OPTS: 64 optimizers claimed, none present.
  expect_decode_error(with_payload(bytes, "OPTS", u64(64)), "optimizers");
  // RNGS: 2^16 streams claimed, none present.
  expect_decode_error(with_payload(bytes, "RNGS", u64(1u << 16)),
                      "rng streams");
  // BATC: 2^31 order entries (16 GiB) claimed, none present.
  expect_decode_error(
      with_payload(bytes, "BATC",
                   u64(1) + "r" + le<std::int64_t>(0) + u64(1ull << 31)),
      "batcher order");
  // XTRA: 2^10 groups claimed; then one group claiming 2^20 tensors.
  expect_decode_error(with_payload(bytes, "XTRA", u64(1u << 10)),
                      "tensor groups");
  expect_decode_error(
      with_payload(bytes, "XTRA", u64(1) + u64(1) + "d" + u64(1u << 20)),
      "tensor group at byte");
}

// Seeded mutation fuzz over the whole decoder: byte flips, truncated
// payloads and rewritten count/length fields, each resealed so it reaches
// the section parsers, plus unsealed flips that stop at the envelope.
// Every outcome is a clean decode or a SerializationError: never a crash,
// never another exception type, never an allocation the file cannot back.
// About 3000 decodes of a ~700-byte file: well under a second even under
// ASan.
TEST(TrainStateCodec, SeededMutationFuzz) {
  const std::string bytes = encode_train_state(pinned_state());
  const std::vector<std::string> tags{"META", "MODL", "OPTS",
                                      "RNGS", "BATC", "XTRA"};
  constexpr std::uint64_t kValues[] = {
      0, 1, 2, 255, 1u << 16, 1u << 20, 1u << 24, 1ull << 31, 1ull << 32,
      1ull << 40, 1ull << 62, ~0ull};
  // Length/count-like fields: 8-byte windows holding a small value.
  std::vector<std::vector<std::size_t>> windows;
  for (const std::string& tag : tags) {
    const std::string payload = section_payload(bytes, tag);
    std::vector<std::size_t> small;
    for (std::size_t at = 0; at + 8 <= payload.size(); ++at) {
      std::uint64_t v = 0;
      std::memcpy(&v, payload.data() + at, 8);
      if (v <= 64) small.push_back(at);
    }
    ASSERT_FALSE(small.empty()) << tag;
    windows.push_back(small);
  }

  std::mt19937_64 gen(20190326);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(gen() % std::max<std::size_t>(n, 1));
  };
  std::int64_t decoded = 0, rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const int kind = static_cast<int>(gen() % 4);
    const std::size_t t = pick(tags.size());
    std::string payload = section_payload(bytes, tags[t]);
    std::string mutated;
    if (kind == 0) {  // flip bits in one payload byte
      payload[pick(payload.size())] ^= static_cast<char>(1 + pick(255));
      mutated = with_payload(bytes, tags[t], payload);
    } else if (kind == 1) {  // truncate the payload
      mutated = with_payload(bytes, tags[t],
                             payload.substr(0, pick(payload.size())));
    } else if (kind == 2) {  // rewrite a count/length field
      const std::uint64_t v = kValues[pick(std::size(kValues))];
      std::memcpy(payload.data() + windows[t][pick(windows[t].size())], &v, 8);
      mutated = with_payload(bytes, tags[t], payload);
    } else {  // unsealed flip anywhere: the envelope must catch it
      mutated = bytes;
      mutated[pick(mutated.size())] ^= static_cast<char>(1 + pick(255));
    }
    try {
      decode_train_state(mutated);
      ++decoded;
    } catch (const SerializationError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << iter << " (mutation " << kind
                    << " in " << tags[t] << ") threw " << e.what();
    }
  }
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(decoded, 0);
}

// --- ZKGT tensor framing inside a section ---
//
// Each tensor is magic "ZKGT", u32 version, u32 rank, i64 dims[rank],
// f32 data[numel], after a u64 count per group. These cases reach the
// tensor parser through a resealed MODL payload.

std::string encode_with_params(std::vector<Tensor> params) {
  TrainState s = pinned_state();
  s.model_params = std::move(params);
  return encode_train_state(s);
}

TEST(TensorFraming, RoundTripAndLayout) {
  Rng rng(8);
  const std::vector<Tensor> params{randn({3, 4, 5}, rng), randn({2, 2}, rng),
                                   Tensor({7}, 1.0f)};
  const std::string bytes = encode_with_params(params);
  const TrainState back = decode_train_state(bytes);
  ASSERT_EQ(back.model_params.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(back.model_params[i].equals(params[i]));
  }
  const std::string modl = section_payload(bytes, "MODL");
  EXPECT_EQ(modl.substr(0, 8), le<std::uint64_t>(3));
  EXPECT_EQ(modl.substr(8, 12), "ZKGT" + le<std::uint32_t>(1) +
                                    le<std::uint32_t>(3));
  EXPECT_EQ(modl.size(), 8 + (12 + 3 * 8 + 60 * 4) + (12 + 2 * 8 + 4 * 4) +
                             (12 + 1 * 8 + 7 * 4));
}

// Every truncation of the tensor stream throws, with size and CRC patched
// so only the tensor parser can object.
TEST(TensorFraming, TruncationAtEveryByteThrows) {
  Rng rng(11);
  const std::string bytes = encode_with_params({randn({2, 3}, rng)});
  const std::string modl = section_payload(bytes, "MODL");
  for (std::size_t n = 0; n < modl.size(); ++n) {
    EXPECT_THROW(
        decode_train_state(with_payload(bytes, "MODL", modl.substr(0, n))),
        SerializationError)
        << "no error when truncated to " << n << " of " << modl.size()
        << " bytes";
  }
  EXPECT_NO_THROW(decode_train_state(with_payload(bytes, "MODL", modl)));
}

TEST(TensorFraming, CorruptHeaderFieldsThrowWithContext) {
  Rng rng(12);
  const std::string bytes = encode_with_params({randn({2, 3}, rng)});
  const std::string good = section_payload(bytes, "MODL");
  // Payload offsets: count 0, magic 8, version 12, rank 16, dims 20.
  auto corrupt = [&](std::size_t at, char value) {
    std::string payload = good;
    payload[at] = value;
    return with_payload(bytes, "MODL", payload);
  };
  // The offset in the message is absolute within the file.
  const std::size_t tensor_at = find_section(bytes, "MODL").payload + 8;
  expect_decode_error(corrupt(8, 'X'),
                      "at byte " + std::to_string(tensor_at) +
                          ": bad tensor magic");
  expect_decode_error(corrupt(12, 9), "unsupported tensor version 9");
  expect_decode_error(corrupt(16, 100), "implausible tensor rank 100");
  expect_decode_error(corrupt(20 + 7, static_cast<char>(0xFF)),
                      "negative dimension");
  // dims[0] ~ 2^46: overflows the element limit.
  expect_decode_error(corrupt(20 + 5, 0x7F), "implausible tensor size");
  expect_decode_error(
      with_payload(bytes, "MODL", good.substr(0, good.size() - 3)), "at byte");
}

TEST(TensorFraming, ErrorsNameTheFailingTensor) {
  Rng rng(13);
  const std::string bytes =
      encode_with_params({randn({2}, rng), randn({3}, rng)});
  const std::string modl = section_payload(bytes, "MODL");
  // Cut into tensor 1's data.
  expect_decode_error(
      with_payload(bytes, "MODL", modl.substr(0, modl.size() - 4)),
      "tensor 1 of 2");
}

TEST(TrainStateCodec, SaveLoadAndResumePointFallback) {
  TempDir dir("resume");
  TrainState s = sample_state();
  s.epoch = 0;
  const TrainState saved_older = s;
  const std::string older = checkpoint_path(dir.path(), 0, 7);
  save_train_state(older, s);
  s.epoch = 1;
  const std::string newer = checkpoint_path(dir.path(), 1, 2);
  save_train_state(newer, s);

  // A file path loads directly; a directory resolves to the newest.
  expect_states_equal(load_train_state(older), saved_older);
  EXPECT_EQ(load_resume_point(dir.path()).epoch, 1);

  // Corrupt the newest: resume falls back to the older good snapshot.
  std::string corrupted = slurp(newer);
  corrupted[corrupted.size() / 2] ^= 0x20;
  std::ofstream(newer, std::ios::binary) << corrupted;
  EXPECT_EQ(load_resume_point(dir.path()).epoch, 0);

  // Nothing loadable at all: typed error naming the directory.
  TempDir empty("resume_empty");
  EXPECT_THROW(load_resume_point(empty.path()), SerializationError);
  EXPECT_THROW(load_train_state(empty.path() + "/absent.zkgc"),
               SerializationError);
}

}  // namespace
}  // namespace zkg::ckpt

// --- Trainer-level fault tolerance ---

namespace zkg::defense {
namespace {

namespace fs = std::filesystem;
using zkg::ckpt::TempDir;

data::Dataset small_train_set(std::int64_t n = 256) {
  Rng rng(42);
  return data::scale_pixels(data::make_synth_digits(n, rng));
}

/// The two bench classifiers: LeNet on synth digits, and allCNN on synth
/// objects with its 0.2 input dropout, whose mask stream is "model.rng.0".
enum class Arch { kLeNet, kAllCnn };

models::Classifier fresh_model(Arch arch = Arch::kLeNet) {
  Rng rng(7);
  if (arch == Arch::kAllCnn) {
    return models::build_allcnn({3, 32, 32, 10}, models::Preset::kBench, rng,
                                /*input_dropout=*/0.2f);
  }
  return models::build_lenet({1, 28, 28, 10}, models::Preset::kBench, rng);
}

TrainConfig quick_config(std::int64_t epochs = 3) {
  TrainConfig config;
  config.epochs = epochs;
  config.batch_size = 32;
  config.gamma = 0.05f;
  return config;
}

/// Requests a graceful stop after `batches` completed batches.
class StopAfter : public TrainObserver {
 public:
  explicit StopAfter(std::int64_t batches) : remaining_(batches) {}
  void on_batch_end(const Trainer&, std::int64_t, std::int64_t,
                    const BatchStats&) override {
    if (--remaining_ == 0) ckpt::request_stop();
  }

 private:
  std::int64_t remaining_;
};

std::vector<Tensor> params_of(models::Classifier& model) {
  return model.net().state();
}

void expect_params_identical(std::vector<Tensor> a, std::vector<Tensor> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].equals(b[i])) << "parameter tensor " << i << " differs";
  }
}

void run_interrupt_resume_case(const std::string& tag, DefenseId id,
                               Arch arch, const data::Dataset& train,
                               const TrainConfig& config,
                               std::int64_t stop_after_batches) {
  // Reference: one uninterrupted run.
  models::Classifier ref_model = fresh_model(arch);
  const TrainerPtr reference = make_trainer(id, ref_model, config);
  const TrainResult ref_result = reference->fit(train);

  // Interrupted run: same seeds, auto-checkpointing on, stop mid-epoch.
  TempDir dir(tag);
  TrainConfig interrupted_config = config;
  interrupted_config.checkpoint.dir = dir.path();
  models::Classifier mid_model = fresh_model(arch);
  {
    const TrainerPtr trainer = make_trainer(id, mid_model, interrupted_config);
    StopAfter stopper(stop_after_batches);
    trainer->add_observer(&stopper);
    const TrainResult partial = trainer->fit(train);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_LT(partial.epochs.size(), ref_result.epochs.size());
  }
  ckpt::clear_stop();
  ASSERT_FALSE(ckpt::list_checkpoints(dir.path()).empty());

  // Resumed run: fresh model + trainer, restored from the directory.
  TrainConfig resume_config = interrupted_config;
  resume_config.resume_from = dir.path();
  models::Classifier resumed_model = fresh_model(arch);
  const TrainerPtr resumed = make_trainer(id, resumed_model, resume_config);
  const TrainResult result = resumed->fit(train);

  EXPECT_FALSE(result.interrupted);
  ASSERT_EQ(result.epochs.size(), ref_result.epochs.size());
  for (std::size_t i = 0; i < result.epochs.size(); ++i) {
    EXPECT_EQ(result.epochs[i].classifier_loss,
              ref_result.epochs[i].classifier_loss)
        << "epoch " << i << " loss diverged";
    EXPECT_EQ(result.epochs[i].discriminator_loss,
              ref_result.epochs[i].discriminator_loss)
        << "epoch " << i << " discriminator loss diverged";
    EXPECT_EQ(result.epochs[i].batches, ref_result.epochs[i].batches);
  }
  expect_params_identical(params_of(resumed_model), params_of(ref_model));
}

TEST(InterruptResume, VanillaIsBitIdentical) {
  // 256 examples / 32 = 8 batches per epoch; stop inside epoch 1.
  run_interrupt_resume_case("vanilla", DefenseId::kVanilla, Arch::kLeNet,
                            small_train_set(), quick_config(3), 11);
}

TEST(InterruptResume, VanillaAtEpochBoundaryIsBitIdentical) {
  run_interrupt_resume_case("vanilla_edge", DefenseId::kVanilla, Arch::kLeNet,
                            small_train_set(), quick_config(3), 8);
}

using DefenseOnArch = std::tuple<DefenseId, Arch>;

/// "ZKGanDef_AllCnn": the defense's display name without its hyphens.
std::string case_label(DefenseId id, Arch arch) {
  std::string name;
  for (const char c : defense_name(id)) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) name += c;
  }
  return name + (arch == Arch::kAllCnn ? "_AllCnn" : "_LeNet");
}

std::string case_name(const ::testing::TestParamInfo<DefenseOnArch>& info) {
  return case_label(std::get<0>(info.param), std::get<1>(info.param));
}

const auto kEveryDefenseOnBothArchs = ::testing::Combine(
    ::testing::ValuesIn(all_defenses()),
    ::testing::Values(Arch::kLeNet, Arch::kAllCnn));

// Every stream a defense checkpoints goes through a real resume: the
// classifier's Adam, the discriminator and its Adam (GanDef), the noise
// stream (CLP, CLS, ZK-GanDef), the PGD random starts (PGD-Adv,
// PGD-GanDef) and allCNN's input-dropout masks.
class InterruptResumeAll : public ::testing::TestWithParam<DefenseOnArch> {};

TEST_P(InterruptResumeAll, MidEpochResumeIsBitIdentical) {
  const auto [id, arch] = GetParam();
  TrainConfig config = quick_config(2);
  config.batch_size = 16;
  config.attack.iterations = 3;
  config.attack.restarts = 2;
  Rng data_rng(42);
  const data::Dataset train =
      arch == Arch::kAllCnn
          ? data::scale_pixels(data::make_synth_objects(48, data_rng))
          : small_train_set(64);
  // Stop one batch into the second epoch, so the batcher, the partial-epoch
  // accumulators and every RNG stream resume mid-permutation.
  const std::int64_t batches_per_epoch = train.size() / config.batch_size;
  run_interrupt_resume_case(case_label(id, arch), id, arch, train, config,
                            batches_per_epoch + 1);
}

INSTANTIATE_TEST_SUITE_P(Defenses, InterruptResumeAll,
                         kEveryDefenseOnBothArchs, case_name);

// What each defense checkpoints, on a fresh trainer: the RNG stream names
// in order, the optimizer count and the XTRA tensor groups. The names and
// their order are part of the ZKGC files already written, so a change here
// breaks resuming them.
class CheckpointLayout : public ::testing::TestWithParam<DefenseOnArch> {};

TEST_P(CheckpointLayout, FreshTrainerCapturesItsDefenseState) {
  const auto [id, arch] = GetParam();
  models::Classifier model = fresh_model(arch);
  const TrainerPtr trainer = make_trainer(id, model, quick_config(1));
  const ckpt::TrainState state = trainer->capture_state();

  std::vector<std::string> streams = {"trainer"};
  if (arch == Arch::kAllCnn) streams.push_back("model.rng.0");
  std::size_t optimizers = 1;
  std::vector<std::string> groups;
  switch (id) {
    case DefenseId::kVanilla:
    case DefenseId::kFgsmAdv:
      break;
    case DefenseId::kClp:
    case DefenseId::kCls:
      streams.push_back("noise");
      break;
    case DefenseId::kZkGanDef:
      streams.push_back("noise");
      optimizers = 2;
      groups = {"discriminator"};
      break;
    case DefenseId::kPgdAdv:
      streams.push_back("attack.rng.0");
      break;
    case DefenseId::kPgdGanDef:
      streams.push_back("attack.rng.0");
      optimizers = 2;
      groups = {"discriminator"};
      break;
  }

  std::vector<std::string> captured_streams;
  for (const auto& stream : state.rng_streams) {
    captured_streams.push_back(stream.first);
  }
  EXPECT_EQ(captured_streams, streams);
  EXPECT_EQ(state.optimizers.size(), optimizers);
  std::vector<std::string> captured_groups;
  for (const auto& group : state.extra_tensors) {
    captured_groups.push_back(group.first);
  }
  EXPECT_EQ(captured_groups, groups);
}

INSTANTIATE_TEST_SUITE_P(Defenses, CheckpointLayout, kEveryDefenseOnBothArchs,
                         case_name);

TEST(StateValidation, MismatchedDefenseOrSeedIsRejected) {
  const data::Dataset train = small_train_set(64);
  models::Classifier model_a = fresh_model();
  VanillaTrainer vanilla(model_a, quick_config(1));
  const ckpt::TrainState snapshot = vanilla.capture_state();

  models::Classifier model_b = fresh_model();
  ClsTrainer cls(model_b, quick_config(1));
  EXPECT_THROW(cls.restore_state(snapshot), SerializationError);

  TrainConfig other_seed = quick_config(1);
  other_seed.seed = 2;
  models::Classifier model_c = fresh_model();
  VanillaTrainer reseeded(model_c, other_seed);
  EXPECT_THROW(reseeded.restore_state(snapshot), SerializationError);
}

TEST(CheckpointObserverCadence, BatchCadenceRotatesToKeepLast) {
  TempDir dir("cadence");
  TrainConfig config = quick_config(2);
  config.checkpoint.dir = dir.path();
  config.checkpoint.every_batches = 2;
  config.checkpoint.keep_last = 2;
  models::Classifier model = fresh_model();
  VanillaTrainer trainer(model, config);
  trainer.fit(small_train_set(128));
  const std::vector<std::string> kept = ckpt::list_checkpoints(dir.path());
  EXPECT_LE(kept.size(), 2u);
  ASSERT_FALSE(kept.empty());
  // The newest checkpoint is the terminal one: cursor at (epochs, 0).
  const ckpt::TrainState final_state = ckpt::load_resume_point(dir.path());
  EXPECT_EQ(final_state.epoch, 2);
  EXPECT_EQ(final_state.batch, 0);
  EXPECT_EQ(final_state.completed_epochs.size(), 2u);
}

// --- NaN rollback ---

/// A trainer that poisons a parameter and raises NonFiniteError on one
/// specific train_batch call, simulating a divergent optimizer step.
template <typename TrainerT>
class Flaky : public TrainerT {
 public:
  Flaky(models::Classifier& model, TrainConfig config,
        std::int64_t fail_on_call)
      : TrainerT(model, config), fail_on_call_(fail_on_call) {}

 protected:
  BatchStats train_batch(const data::Batch& batch) override {
    const BatchStats stats = TrainerT::train_batch(batch);
    if (++calls_ == fail_on_call_) {
      this->model().parameters().front()->value()[0] =
          std::numeric_limits<float>::quiet_NaN();
      throw NonFiniteError("injected non-finite parameter", "test",
                           "optimizer-step");
    }
    return stats;
  }

 private:
  std::int64_t fail_on_call_ = 0;
  std::int64_t calls_ = 0;
};

using FlakyTrainer = Flaky<VanillaTrainer>;

bool all_params_finite(models::Classifier& model) {
  for (const Tensor& t : model.net().state()) {
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      if (!std::isfinite(t[i])) return false;
    }
  }
  return true;
}

// A rollback policy must act in every build, not only where ZKG_CHECKED
// tripwires raise NonFiniteError: this trainer reports one NaN loss and
// throws nothing itself.
TEST(NanRollback, NanLossRollsBackWithoutCheckedBuild) {
  class NanLossOnce : public VanillaTrainer {
   public:
    NanLossOnce(models::Classifier& m, TrainConfig c) : VanillaTrainer(m, c) {}

   protected:
    BatchStats train_batch(const data::Batch& batch) override {
      BatchStats stats = VanillaTrainer::train_batch(batch);
      if (++calls_ == 2) {
        stats.classifier_loss = std::numeric_limits<float>::quiet_NaN();
      }
      return stats;
    }

   private:
    std::int64_t calls_ = 0;
  };
  TrainConfig config = quick_config(1);
  config.rollback.max_retries = 3;
  models::Classifier model = fresh_model();
  NanLossOnce trainer(model, config);
  const TrainResult result = trainer.fit(small_train_set(128));

  EXPECT_EQ(trainer.rollback_count(), 1);
  ASSERT_EQ(result.epochs.size(), 1u);
  EXPECT_TRUE(std::isfinite(result.epochs[0].classifier_loss));
}

TEST(NanRollback, DisabledPolicyRethrows) {
  models::Classifier model = fresh_model();
  FlakyTrainer trainer(model, quick_config(1), 3);
  EXPECT_THROW(trainer.fit(small_train_set(128)), NonFiniteError);
}

TEST(NanRollback, SkipBatchRecoversAndCompletes) {
  // ZKG_COUNT sites only record while telemetry is enabled.
  obs::Telemetry::global().set_enabled(true);
  const std::uint64_t rollbacks_before =
      obs::Telemetry::global().counter("train.rollbacks").value();
  TrainConfig config = quick_config(2);
  config.rollback.max_retries = 3;  // skip_batch defaults to true
  models::Classifier model = fresh_model();
  FlakyTrainer trainer(model, config, 5);
  const TrainResult result = trainer.fit(small_train_set(128));
  obs::Telemetry::global().set_enabled(false);

  EXPECT_EQ(trainer.rollback_count(), 1);
  EXPECT_EQ(trainer.skipped_batch_count(), 1);
  EXPECT_TRUE(all_params_finite(model));
  ASSERT_EQ(result.epochs.size(), 2u);
  // 128/32 = 4 batches per epoch; the poisoned one was dropped in epoch 1.
  EXPECT_EQ(result.epochs[0].batches + result.epochs[1].batches, 7);
  // Recoveries are visible in telemetry.
  EXPECT_EQ(obs::Telemetry::global().counter("train.rollbacks").value(),
            rollbacks_before + 1);
}

TEST(NanRollback, RetryWithLrDecayShrinksTheStep) {
  TrainConfig config = quick_config(1);
  config.rollback.max_retries = 2;
  config.rollback.skip_batch = false;  // retry the batch instead
  config.rollback.lr_decay = 0.5f;
  models::Classifier model = fresh_model();
  FlakyTrainer trainer(model, config, 2);
  const TrainResult result = trainer.fit(small_train_set(128));

  EXPECT_EQ(trainer.rollback_count(), 1);
  EXPECT_EQ(trainer.skipped_batch_count(), 0);
  // The retried batch counts: no batch was lost.
  ASSERT_EQ(result.epochs.size(), 1u);
  EXPECT_EQ(result.epochs[0].batches, 4);
  // The decayed learning rate is part of the captured state.
  const ckpt::TrainState state = trainer.capture_state();
  ASSERT_FALSE(state.optimizers.empty());
  EXPECT_FLOAT_EQ(state.optimizers[0].learning_rate,
                  config.learning_rate * 0.5f);
  EXPECT_TRUE(all_params_finite(model));
}

TEST(NanRollback, LrDecayAppliesToBothGanDefPlayers) {
  TrainConfig config = quick_config(1);
  config.disc_learning_rate = 2e-3f;  // tell the two optimizers apart
  config.rollback.max_retries = 2;
  config.rollback.skip_batch = false;
  config.rollback.lr_decay = 0.5f;
  models::Classifier model = fresh_model();
  Flaky<ZkGanDefTrainer> trainer(model, config, 2);
  const TrainResult result = trainer.fit(small_train_set(128));

  EXPECT_EQ(trainer.rollback_count(), 1);
  ASSERT_EQ(result.epochs.size(), 1u);
  EXPECT_EQ(result.epochs[0].batches, 4);
  const ckpt::TrainState state = trainer.capture_state();
  ASSERT_EQ(state.optimizers.size(), 2u);
  EXPECT_FLOAT_EQ(state.optimizers[0].learning_rate,
                  config.learning_rate * 0.5f);
  EXPECT_FLOAT_EQ(state.optimizers[1].learning_rate,
                  config.disc_learning_rate * 0.5f);
  EXPECT_TRUE(all_params_finite(model));
}

TEST(NanRollback, BudgetExhaustionRethrows) {
  TrainConfig config = quick_config(1);
  config.rollback.max_retries = 1;
  config.rollback.skip_batch = false;
  config.rollback.lr_decay = 0.5f;
  models::Classifier model = fresh_model();
  // Fails on every call from the 2nd on: one recovery, then budget is gone.
  class AlwaysFlaky : public VanillaTrainer {
   public:
    AlwaysFlaky(models::Classifier& m, TrainConfig c) : VanillaTrainer(m, c) {}

   protected:
    BatchStats train_batch(const data::Batch& batch) override {
      const BatchStats stats = VanillaTrainer::train_batch(batch);
      if (++calls_ >= 2) {
        throw NonFiniteError("injected", "test", "loss");
      }
      return stats;
    }

   private:
    std::int64_t calls_ = 0;
  };
  AlwaysFlaky trainer(model, config);
  EXPECT_THROW(trainer.fit(small_train_set(128)), NonFiniteError);
  EXPECT_EQ(trainer.rollback_count(), 1);
}

}  // namespace
}  // namespace zkg::defense
