// TrainState: the complete, versioned snapshot of a training run at a batch
// boundary (DESIGN.md §11). Restoring one makes the resumed run
// bit-identical to an uninterrupted one — every source of mutability is
// captured: model parameters, optimizer moments, every RNG stream (batcher
// shuffle, Gaussian-noise augmentation, PGD random starts, dropout masks),
// the epoch/batch cursor with its partial-epoch loss accumulators, the
// per-epoch history and the fault-tolerance counters.
//
// On-disk format ("ZKGC"):
//   magic "ZKGC", u32 version, u32 section_count, then per section
//   u32 fourcc tag, u64 payload_size, payload bytes, u32 CRC32(payload).
// Sections: META (cursor, accumulators, history, counters), MODL (model
// parameters), OPTS (optimizer snapshots), RNGS (named mt19937_64 state
// strings), BATC (batcher permutation + cursor), XTRA (named auxiliary
// tensor groups, e.g. the GanDef discriminator). A tensor group is a u64
// count, then per tensor magic "ZKGT", u32 version, u32 rank,
// i64 dims[rank], f32 data[numel]. ZKGC is the only on-disk tensor format.
// Every section is CRC-checked before parsing, and every count and tensor
// size is checked against the bytes left in its section before anything
// is allocated; any mismatch, truncation or unknown required structure
// throws zkg::SerializationError with the byte offset — a corrupted or
// crafted checkpoint is never read as garbage.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/batcher.hpp"
#include "optim/adam.hpp"
#include "tensor/tensor.hpp"

namespace zkg::ckpt {

/// One finished epoch, mirrored from defense::EpochStats so resumed runs
/// report a complete TrainResult history.
struct EpochRecord {
  std::int64_t epoch = 0;
  float classifier_loss = 0.0f;
  float discriminator_loss = 0.0f;
  double seconds = 0.0;
  std::int64_t batches = 0;
};

struct TrainState {
  // --- META ---
  std::string defense;         // Trainer::name(); cross-checked on resume
  std::uint64_t seed = 0;      // TrainConfig::seed; cross-checked on resume
  std::int64_t epoch = 0;      // epoch the cursor sits in
  std::int64_t batch = 0;      // batches completed within that epoch
  double loss_sum = 0.0;       // partial-epoch classifier-loss accumulator
  double disc_sum = 0.0;       // partial-epoch discriminator-loss accumulator
  std::vector<EpochRecord> completed_epochs;
  std::vector<std::pair<std::string, std::int64_t>> counters;

  // --- MODL ---
  std::vector<Tensor> model_params;

  // --- OPTS --- ([0] = classifier optimizer, [1] = discriminator's, ...)
  std::vector<optim::OptimizerState> optimizers;

  // --- RNGS --- (unique names: "trainer", "noise", "model.rng.0", ...)
  std::vector<std::pair<std::string, std::string>> rng_streams;

  // --- BATC ---
  bool has_batcher = false;    // in-memory rollback snapshots skip it
  data::BatcherState batcher;

  // --- XTRA --- (named tensor groups, e.g. {"discriminator", params})
  std::vector<std::pair<std::string, std::vector<Tensor>>> extra_tensors;

  /// Value of counter `name`, or 0 when absent.
  std::int64_t counter_or(const std::string& name,
                          std::int64_t fallback = 0) const;
  /// RNG stream `name`; throws zkg::SerializationError when missing.
  const std::string& rng_stream(const std::string& name) const;
  /// Tensor group `name`; throws zkg::SerializationError when missing.
  const std::vector<Tensor>& tensor_group(const std::string& name) const;
};

/// Serializes `state` into the ZKGC byte format (no file IO).
std::string encode_train_state(const TrainState& state);
/// Parses bytes produced by encode_train_state; throws SerializationError
/// on any corruption, truncation or CRC mismatch.
TrainState decode_train_state(const std::string& bytes);

/// Integrity check without materializing tensors: walks the ZKGC envelope
/// (magic, version, section headers, bounds) and verifies every section's
/// CRC plus the presence of the required META/MODL sections. Throws
/// SerializationError on the first violation. latest_checkpoint() uses
/// this to skip corrupt files cheaply.
void validate_train_state_bytes(const std::string& bytes);

/// encode + crash-safe atomic_write_file.
void save_train_state(const std::string& path, const TrainState& state);
/// Whole-file read + decode. Throws zkg::SerializationError.
TrainState load_train_state(const std::string& path);

/// Resolves a resume source: a checkpoint file loads directly; a directory
/// is scanned newest-to-oldest, skipping unreadable/corrupt files, so the
/// survivor of a mid-checkpoint crash is found automatically. Throws
/// zkg::SerializationError when nothing loadable exists.
TrainState load_resume_point(const std::string& path_or_dir);

}  // namespace zkg::ckpt
