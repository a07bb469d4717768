#include "ckpt/train_state.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string_view>

#include "ckpt/crc32.hpp"
#include "ckpt/io.hpp"
#include "common/error.hpp"

namespace zkg::ckpt {
namespace {

constexpr char kMagic[4] = {'Z', 'K', 'G', 'C'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint64_t kMaxSectionBytes = std::uint64_t{1} << 40;

// ZKGT framing of one tensor inside a section payload.
constexpr char kTensorMagic[4] = {'Z', 'K', 'G', 'T'};
constexpr std::uint32_t kTensorVersion = 1;
constexpr std::uint32_t kMaxTensorRank = 8;
// Anything larger than 2^33 elements (32 GiB of f32) in one tensor is a
// corrupted header, not a checkpoint we ever wrote.
constexpr std::int64_t kMaxNumel = std::int64_t{1} << 33;

constexpr std::uint32_t fourcc(const char (&tag)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(tag[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[3])) << 24;
}

constexpr std::uint32_t kMeta = fourcc("META");
constexpr std::uint32_t kModl = fourcc("MODL");
constexpr std::uint32_t kOpts = fourcc("OPTS");
constexpr std::uint32_t kRngs = fourcc("RNGS");
constexpr std::uint32_t kBatc = fourcc("BATC");
constexpr std::uint32_t kXtra = fourcc("XTRA");

std::string tag_name(std::uint32_t tag) {
  std::string name(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xFF);
    name[static_cast<std::size_t>(i)] = (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return name;
}

std::string printable(std::string_view bytes) {
  std::string out;
  for (const char ch : bytes) {
    const auto c = static_cast<unsigned char>(ch);
    if (c >= 0x20 && c < 0x7f) {
      out += ch;
    } else {
      out += "\\x";
      out += "0123456789abcdef"[c >> 4];
      out += "0123456789abcdef"[c & 15];
    }
  }
  return out;
}

[[noreturn]] void fail(const std::string& detail) {
  throw SerializationError("ZKGC checkpoint: " + detail);
}

void put_bytes(std::string& out, const void* data, std::size_t size) {
  out.append(static_cast<const char*>(data), size);
}

template <typename T>
void put_pod(std::string& out, const T& value) {
  put_bytes(out, &value, sizeof(T));
}

void put_string(std::string& out, const std::string& s) {
  put_pod(out, static_cast<std::uint64_t>(s.size()));
  out += s;
}

// A u64 count, then each tensor as magic "ZKGT", u32 version, u32 rank,
// i64 dims[rank], f32 data[numel].
void put_tensors(std::string& out, const std::vector<Tensor>& tensors) {
  put_pod(out, static_cast<std::uint64_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    put_bytes(out, kTensorMagic, sizeof(kTensorMagic));
    put_pod(out, kTensorVersion);
    put_pod(out, static_cast<std::uint32_t>(t.ndim()));
    for (std::int64_t i = 0; i < t.ndim(); ++i) put_pod(out, t.dim(i));
    put_bytes(out, t.data(),
              static_cast<std::size_t>(t.numel()) * sizeof(float));
  }
}

void append_section(std::string& out, std::uint32_t tag,
                    const std::string& payload) {
  put_pod(out, tag);
  put_pod(out, static_cast<std::uint64_t>(payload.size()));
  out += payload;
  put_pod(out, crc32(payload));
}

// Section payload reader with bounds-checked primitives; `pos_` is
// absolute within the checkpoint file so error messages point at the file.
// `what` names the field being read; it only reaches the error message.
class Reader {
 public:
  Reader(const std::string& bytes, std::uint64_t base, std::uint64_t size,
         std::uint32_t tag)
      : bytes_(bytes), end_(base + size), pos_(base), tag_(tag) {}

  template <typename T>
  T pod(std::string_view what) {
    need(sizeof(T), what);
    T value{};
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string string(std::string_view what) {
    const auto n = pod<std::uint64_t>(what);
    if (n > kMaxSectionBytes) {
      fail_here("implausible string length " + std::to_string(n), what);
    }
    need(n, what);
    std::string s(bytes_.data() + pos_, n);
    pos_ += n;
    return s;
  }

  /// A u64 entry count, bounded by `limit` and by the bytes left in the
  /// section given that each entry takes at least `entry_bytes` on disk —
  /// so a crafted count can never size an allocation the file cannot back.
  std::uint64_t count(std::string_view what, std::uint64_t limit,
                      std::uint64_t entry_bytes) {
    const auto n = pod<std::uint64_t>(what);
    if (n > limit) {
      fail_here("implausible count " + std::to_string(n), what);
    }
    if (n * entry_bytes > end_ - pos_) {
      fail_here("count " + std::to_string(n) + " needs at least " +
                    std::to_string(n * entry_bytes) + " bytes, have " +
                    std::to_string(end_ - pos_),
                what);
    }
    return n;
  }

  /// A u64 count, then that many ZKGT-framed tensors (each at least its
  /// 12-byte magic, version and rank).
  std::vector<Tensor> tensors(std::string_view what) {
    const std::uint64_t n = count(what, std::uint64_t{1} << 20, 12);
    std::vector<Tensor> result;
    result.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      result.push_back(tensor(std::string(what) + ", tensor " +
                              std::to_string(i) + " of " + std::to_string(n)));
    }
    return result;
  }

  void expect_consumed() const {
    if (pos_ != end_) {
      fail_here(std::to_string(end_ - pos_) + " trailing bytes", "payload");
    }
  }

 private:
  Tensor tensor(const std::string& what) {
    const std::uint64_t start = pos_;
    need(sizeof(kTensorMagic), what);
    const std::string_view magic(bytes_.data() + pos_, sizeof(kTensorMagic));
    if (magic != std::string_view(kTensorMagic, sizeof(kTensorMagic))) {
      fail_here("bad tensor magic: expected \"ZKGT\", got \"" +
                    printable(magic) + "\"",
                what);
    }
    pos_ += sizeof(kTensorMagic);
    const auto version = pod<std::uint32_t>(what);
    if (version != kTensorVersion) {
      fail_at(start + 4,
              "unsupported tensor version " + std::to_string(version) +
                  ", expected " + std::to_string(kTensorVersion),
              what);
    }
    const auto rank = pod<std::uint32_t>(what);
    if (rank > kMaxTensorRank) {
      fail_at(start + 8,
              "implausible tensor rank " + std::to_string(rank) + " (max " +
                  std::to_string(kMaxTensorRank) + ")",
              what);
    }
    Shape shape(rank);
    std::int64_t numel = 1;
    for (std::uint32_t i = 0; i < rank; ++i) {
      const std::uint64_t dim_at = pos_;
      shape[i] = pod<std::int64_t>(what);
      if (shape[i] < 0) {
        fail_at(dim_at,
                "negative dimension " + std::to_string(shape[i]) +
                    " at axis " + std::to_string(i),
                what);
      }
      if (shape[i] > kMaxNumel ||
          numel > kMaxNumel / std::max<std::int64_t>(shape[i], 1)) {
        fail_at(dim_at,
                "implausible tensor size: " + shape_to_string(shape) +
                    " overflows the element limit",
                what);
      }
      numel *= shape[i];
    }
    const auto data_bytes = static_cast<std::uint64_t>(numel) * sizeof(float);
    need(data_bytes, what);  // before the allocation, not after
    Tensor t(shape);
    // A zero-element tensor has a null data(), which memcpy may not take.
    if (data_bytes > 0) {
      std::memcpy(t.data(), bytes_.data() + pos_, data_bytes);
    }
    pos_ += data_bytes;
    return t;
  }

  void need(std::uint64_t n, std::string_view what) const {
    if (end_ - pos_ < n) {
      fail_here("truncated: need " + std::to_string(n) + " bytes, have " +
                    std::to_string(end_ - pos_),
                what);
    }
  }

  [[noreturn]] void fail_here(const std::string& detail,
                              std::string_view what) const {
    fail_at(pos_, detail, what);
  }

  [[noreturn]] void fail_at(std::uint64_t at, const std::string& detail,
                            std::string_view what) const {
    fail("section '" + tag_name(tag_) + "', " + std::string(what) +
         " at byte " + std::to_string(at) + ": " + detail);
  }

  const std::string& bytes_;
  std::uint64_t end_;
  std::uint64_t pos_;
  std::uint32_t tag_;
};

// Walks the ZKGC envelope (header, then every section's bounds and CRC)
// and hands each verified payload to visit(tag, offset, size). Decoding and
// validation share this walk, so both reject a file with the same message.
template <typename Visit>
void walk_sections(const std::string& bytes, Visit&& visit) {
  if (bytes.size() < 12) {
    fail("truncated header: " + std::to_string(bytes.size()) +
         " bytes, need 12");
  }
  if (bytes.compare(0, 4, kMagic, 4) != 0) {
    fail("bad magic: expected \"ZKGC\", got \"" + bytes.substr(0, 4) + "\"");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, 4);
  if (version != kVersion) {
    fail("unsupported version " + std::to_string(version) + ", expected " +
         std::to_string(kVersion));
  }
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 8, 4);
  if (section_count > 64) {
    fail("implausible section count " + std::to_string(section_count));
  }

  bool have_meta = false, have_modl = false;
  std::uint64_t pos = 12;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    if (bytes.size() - pos < 12) {
      fail("truncated section header at byte " + std::to_string(pos));
    }
    std::uint32_t tag = 0;
    std::uint64_t size = 0;
    std::memcpy(&tag, bytes.data() + pos, 4);
    std::memcpy(&size, bytes.data() + pos + 4, 8);
    pos += 12;
    if (size > kMaxSectionBytes || bytes.size() - pos < size + 4) {
      fail("section '" + tag_name(tag) + "' at byte " + std::to_string(pos) +
           " claims " + std::to_string(size) + " bytes, file has " +
           std::to_string(bytes.size() - pos) + " left");
    }
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, bytes.data() + pos + size, 4);
    const std::uint32_t actual_crc = crc32(bytes.data() + pos, size);
    if (stored_crc != actual_crc) {
      std::ostringstream hex;
      hex << std::hex << stored_crc << " vs computed " << std::hex
          << actual_crc;
      fail("section '" + tag_name(tag) + "' CRC mismatch at byte " +
           std::to_string(pos) + ": stored " + hex.str());
    }
    visit(tag, pos, size);
    have_meta = have_meta || tag == kMeta;
    have_modl = have_modl || tag == kModl;
    pos += size + 4;
  }
  if (!have_meta || !have_modl) {
    fail("missing required section: META and MODL must both be present");
  }
}

}  // namespace

std::int64_t TrainState::counter_or(const std::string& name,
                                    std::int64_t fallback) const {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return fallback;
}

const std::string& TrainState::rng_stream(const std::string& name) const {
  for (const auto& [key, value] : rng_streams) {
    if (key == name) return value;
  }
  fail("missing RNG stream '" + name + "' (checkpoint from an older layout?)");
}

const std::vector<Tensor>& TrainState::tensor_group(
    const std::string& name) const {
  for (const auto& [key, value] : extra_tensors) {
    if (key == name) return value;
  }
  fail("missing tensor group '" + name + "'");
}

std::string encode_train_state(const TrainState& state) {
  std::string out;
  put_bytes(out, kMagic, sizeof(kMagic));
  put_pod(out, kVersion);
  put_pod(out, static_cast<std::uint32_t>(state.has_batcher ? 6 : 5));
  {
    std::string meta;
    put_string(meta, state.defense);
    put_pod(meta, state.seed);
    put_pod(meta, state.epoch);
    put_pod(meta, state.batch);
    put_pod(meta, state.loss_sum);
    put_pod(meta, state.disc_sum);
    put_pod(meta, static_cast<std::uint64_t>(state.completed_epochs.size()));
    for (const EpochRecord& e : state.completed_epochs) {
      put_pod(meta, e.epoch);
      put_pod(meta, e.classifier_loss);
      put_pod(meta, e.discriminator_loss);
      put_pod(meta, e.seconds);
      put_pod(meta, e.batches);
    }
    put_pod(meta, static_cast<std::uint64_t>(state.counters.size()));
    for (const auto& [name, value] : state.counters) {
      put_string(meta, name);
      put_pod(meta, value);
    }
    append_section(out, kMeta, meta);
  }
  {
    std::string modl;
    put_tensors(modl, state.model_params);
    append_section(out, kModl, modl);
  }
  {
    std::string opts;
    put_pod(opts, static_cast<std::uint64_t>(state.optimizers.size()));
    for (const optim::OptimizerState& o : state.optimizers) {
      put_string(opts, o.kind);
      put_pod(opts, o.step_count);
      put_pod(opts, o.learning_rate);
      put_tensors(opts, o.slots);
    }
    append_section(out, kOpts, opts);
  }
  {
    std::string rngs;
    put_pod(rngs, static_cast<std::uint64_t>(state.rng_streams.size()));
    for (const auto& [name, stream] : state.rng_streams) {
      put_string(rngs, name);
      put_string(rngs, stream);
    }
    append_section(out, kRngs, rngs);
  }
  if (state.has_batcher) {
    std::string batc;
    put_string(batc, state.batcher.rng);
    put_pod(batc, state.batcher.cursor);
    put_pod(batc, static_cast<std::uint64_t>(state.batcher.order.size()));
    for (const std::int64_t i : state.batcher.order) put_pod(batc, i);
    append_section(out, kBatc, batc);
  }
  {
    std::string xtra;
    put_pod(xtra, static_cast<std::uint64_t>(state.extra_tensors.size()));
    for (const auto& [name, tensors] : state.extra_tensors) {
      put_string(xtra, name);
      put_tensors(xtra, tensors);
    }
    append_section(out, kXtra, xtra);
  }
  return out;
}

// Counts below are bounded by the smallest on-disk entry: an epoch record
// is 32 bytes; a counter, RNG stream or tensor group at least 16; an
// optimizer at least 28; a batcher order entry 8.
TrainState decode_train_state(const std::string& bytes) {
  TrainState state;
  walk_sections(bytes, [&](std::uint32_t tag, std::uint64_t pos,
                           std::uint64_t size) {
    Reader r(bytes, pos, size, tag);
    if (tag == kMeta) {
      state.defense = r.string("defense");
      state.seed = r.pod<std::uint64_t>("seed");
      state.epoch = r.pod<std::int64_t>("epoch");
      state.batch = r.pod<std::int64_t>("batch");
      state.loss_sum = r.pod<double>("loss_sum");
      state.disc_sum = r.pod<double>("disc_sum");
      state.completed_epochs.resize(r.count("epoch history", 1u << 24, 32));
      for (EpochRecord& e : state.completed_epochs) {
        e.epoch = r.pod<std::int64_t>("epoch record");
        e.classifier_loss = r.pod<float>("epoch record");
        e.discriminator_loss = r.pod<float>("epoch record");
        e.seconds = r.pod<double>("epoch record");
        e.batches = r.pod<std::int64_t>("epoch record");
      }
      state.counters.resize(r.count("counters", 1u << 16, 16));
      for (auto& [name, value] : state.counters) {
        name = r.string("counter name");
        value = r.pod<std::int64_t>("counter value");
      }
    } else if (tag == kModl) {
      state.model_params = r.tensors("model parameters");
    } else if (tag == kOpts) {
      state.optimizers.resize(r.count("optimizers", 64, 28));
      for (optim::OptimizerState& o : state.optimizers) {
        o.kind = r.string("optimizer kind");
        o.step_count = r.pod<std::int64_t>("optimizer step count");
        o.learning_rate = r.pod<float>("optimizer learning rate");
        o.slots = r.tensors("optimizer slots");
      }
    } else if (tag == kRngs) {
      state.rng_streams.resize(r.count("rng streams", 1u << 16, 16));
      for (auto& [name, stream] : state.rng_streams) {
        name = r.string("rng name");
        stream = r.string("rng state");
      }
    } else if (tag == kBatc) {
      state.has_batcher = true;
      state.batcher.rng = r.string("batcher rng");
      state.batcher.cursor = r.pod<std::int64_t>("batcher cursor");
      state.batcher.order.resize(
          r.count("batcher order", std::uint64_t{1} << 32, 8));
      for (std::int64_t& i : state.batcher.order) {
        i = r.pod<std::int64_t>("batcher order entry");
      }
    } else if (tag == kXtra) {
      state.extra_tensors.resize(r.count("tensor groups", 1u << 10, 16));
      for (auto& [name, tensors] : state.extra_tensors) {
        name = r.string("tensor group name");
        tensors = r.tensors("tensor group");
      }
    } else {
      // Unknown tags are skipped (CRC already verified): room for forward-
      // compatible additions without a version bump.
      return;
    }
    r.expect_consumed();
  });
  return state;
}

void validate_train_state_bytes(const std::string& bytes) {
  walk_sections(bytes, [](std::uint32_t, std::uint64_t, std::uint64_t) {});
}

void save_train_state(const std::string& path, const TrainState& state) {
  atomic_write_file(path, encode_train_state(state));
}

TrainState load_train_state(const std::string& path) {
  try {
    return decode_train_state(read_file(path));
  } catch (const SerializationError& e) {
    throw SerializationError(path + ": " + e.what());
  }
}

TrainState load_resume_point(const std::string& path_or_dir) {
  if (!std::filesystem::is_directory(path_or_dir)) {
    return load_train_state(path_or_dir);
  }
  std::vector<std::string> candidates = list_checkpoints(path_or_dir);
  std::string last_error = "no checkpoint files in " + path_or_dir;
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    try {
      return load_train_state(*it);
    } catch (const SerializationError& e) {
      // A crash can leave the newest file unreadable; fall back in order.
      last_error = e.what();
    }
  }
  throw SerializationError("no resumable checkpoint in " + path_or_dir +
                           " (last error: " + last_error + ")");
}

}  // namespace zkg::ckpt
