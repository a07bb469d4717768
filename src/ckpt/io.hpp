// Crash-safe checkpoint file IO (DESIGN.md §11).
//
// The durability contract: a kill -9 (or power loss, modulo disk cache) at
// ANY instant leaves the newest previously-published checkpoint intact.
// atomic_write_file() never touches the destination path directly — bytes
// land in `<path>.tmp`, are fsync()ed, and an atomic rename() publishes
// them; a crash mid-write leaves only a stray .tmp that rotation sweeps up.
//
// File naming groups a training run's checkpoints in one directory as
// `zkg-ckpt-e<epoch>-b<batch>.zkgc`, zero-padded so lexicographic order is
// training order; rotate_checkpoints() keeps the newest K.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace zkg::ckpt {

/// Cadence and retention of automatic checkpointing. A default-constructed
/// config (empty `dir`) disables it.
struct CheckpointConfig {
  std::string dir;                  // empty = auto-checkpointing off
  std::int64_t every_batches = 0;   // 0 = no batch-cadence checkpoints
  std::int64_t every_epochs = 1;    // 0 = no epoch-cadence checkpoints
  std::int64_t keep_last = 3;       // rotation depth (>= 1)
};

/// Writes `payload` to `path` crash-safely: tmp file + fsync + atomic
/// rename + directory fsync. Creates missing parent directories. Throws
/// zkg::SerializationError on any IO failure.
///
/// Failpoint sites (DESIGN.md §16): ckpt.write (before the payload lands in
/// the tmp file), ckpt.fsync (before the tmp fsync), ckpt.rename (before
/// the publishing rename). A throw at any of them must leave the published
/// checkpoint set untouched — the chaos suite proves it.
void atomic_write_file(const std::string& path, const std::string& payload);

/// Whole-file read into a byte string. Throws zkg::SerializationError when
/// the file cannot be opened or read. Failpoint site: ckpt.read.
std::string read_file(const std::string& path);

/// Canonical checkpoint filename inside `dir` for a (epoch, batch) cursor.
std::string checkpoint_path(const std::string& dir, std::int64_t epoch,
                            std::int64_t batch);

/// All published checkpoints in `dir` (absolute paths), sorted oldest to
/// newest. Ignores .tmp leftovers and unrelated files.
std::vector<std::string> list_checkpoints(const std::string& dir);

/// Newest VALID checkpoint path, or "" when the directory holds none.
/// Validity means the ZKGC envelope and every section CRC check out
/// (validate_train_state_bytes); a truncated or corrupt newest file is
/// logged and skipped in favour of the next-older one, so a torn write
/// that somehow got published never wedges resume.
std::string latest_checkpoint(const std::string& dir);

/// Deletes all but the newest `keep_last` checkpoints, plus any stale .tmp
/// partial writes left behind by a crash.
void rotate_checkpoints(const std::string& dir, std::int64_t keep_last);

}  // namespace zkg::ckpt
