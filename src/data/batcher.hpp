// Batcher: shuffled mini-batch iteration over a Dataset.
#pragma once

#include "common/rng.hpp"
#include "data/dataset.hpp"

namespace zkg::data {

struct Batch {
  Tensor images;                     // [b, C, H, W]
  std::vector<std::int64_t> labels;  // b entries
  std::int64_t size() const { return images.dim(0); }
};

/// Mid-epoch iteration snapshot for training checkpoints: the shuffle
/// stream, the current epoch's permutation and the read cursor. A Batcher
/// restored from this yields the exact remaining batch sequence.
struct BatcherState {
  std::string rng;                   // Rng::state() text
  std::vector<std::int64_t> order;   // this epoch's permutation
  std::int64_t cursor = 0;           // next unread position in `order`
};

/// The mini-batch stream a Trainer consumes. Batcher is the synchronous
/// reference implementation; PrefetchBatcher (data/prefetch_batcher.hpp)
/// produces the bit-identical sequence with the gather overlapped against
/// the consumer. The state()/load_state() pair makes any implementation
/// checkpointable mid-epoch (DESIGN.md §11, §12).
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  /// Starts a new epoch (reshuffles when enabled).
  virtual void start_epoch() = 0;

  /// Writes the next batch into `out` (storage reused via ensure_shape);
  /// returns false at the end of the epoch, leaving `out` untouched. The
  /// final batch may be smaller than batch_size.
  virtual bool next_into(Batch& out) = 0;

  virtual std::int64_t batch_size() const = 0;
  virtual std::int64_t batches_per_epoch() const = 0;

  /// Snapshot / restore of the iteration state (checkpoint/resume). The
  /// snapshot always reflects the *consumed* cursor: restoring it replays
  /// exactly the batches the consumer has not yet seen, regardless of any
  /// read-ahead the implementation keeps. load_state throws
  /// zkg::SerializationError when the state does not fit the dataset.
  virtual BatcherState state() const = 0;
  virtual void load_state(const BatcherState& state) = 0;
};

class Batcher : public BatchSource {
 public:
  /// Holds a reference to `dataset`; the dataset must outlive the batcher.
  /// When `shuffle` is set, each epoch() call draws a fresh permutation.
  Batcher(const Dataset& dataset, std::int64_t batch_size, Rng& rng,
          bool shuffle = true);

  void start_epoch() override;

  bool next_into(Batch& out) override;

  std::int64_t batch_size() const override { return batch_size_; }
  std::int64_t batches_per_epoch() const override;

  /// The restored batcher must wrap the same dataset: load_state throws
  /// zkg::SerializationError when the permutation length does not match,
  /// any index is out of range, the order is not a permutation (duplicate
  /// indices double-sample some examples and silently skip others), or the
  /// cursor is out of range.
  BatcherState state() const override;
  void load_state(const BatcherState& state) override;

 private:
  const Dataset& dataset_;
  std::int64_t batch_size_;
  Rng rng_;
  bool shuffle_;
  std::vector<std::int64_t> order_;
  std::int64_t cursor_ = 0;
  std::vector<std::int64_t> batch_indices_;  // reused by next_into
};

}  // namespace zkg::data
