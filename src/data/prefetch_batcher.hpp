// PrefetchBatcher: the asynchronous arm of the data pipeline (DESIGN.md
// §12). A worker task on the zkg::ThreadPool gathers batch N+1 into pooled
// buffers while the trainer consumes batch N, so the per-batch gather cost
// disappears from the training critical path.
//
// Contract:
//  * Bit-identical stream. The prefetcher owns a synchronous Batcher built
//    from the same Rng& the caller would have handed to Batcher directly
//    (one fork, same shuffle stream), so the sequence of batches — order,
//    contents, sizes — is exactly the synchronous sequence.
//  * Double buffering. Exactly two Batch buffers circulate: the consumer
//    always holds one, the producer fills the other. next_into hands the
//    ready batch over by O(1) storage swap (never a copy) and immediately
//    resubmits the returned buffer for batch N+2. Steady state is
//    allocation-free: both buffers stabilise at batch shape after warmup.
//  * Checkpoint-exact state. state() reports the *consumed* cursor, not the
//    producer's read-ahead cursor, so a snapshot taken between batches
//    resumes with exactly the batches the trainer has not yet seen —
//    PR 5's mid-epoch resume bit-identity holds unchanged.
//  * Single consumer. start_epoch / next_into / state / load_state must be
//    called from one thread (the training thread). The producer side is
//    internal and joined before any state the consumer touches is mutated.
#pragma once

#include "common/lockrank.hpp"
#include "common/threadpool.hpp"
#include "data/batcher.hpp"
#include "tensor/pool.hpp"

namespace zkg::data {

class PrefetchBatcher : public BatchSource {
 public:
  /// Same signature and RNG semantics as Batcher (one rng.fork()). Worker
  /// tasks run on `pool` (default: the process-wide shared pool). Gathers
  /// nothing until the first next_into() or start_epoch().
  PrefetchBatcher(const Dataset& dataset, std::int64_t batch_size, Rng& rng,
                  bool shuffle = true, ThreadPool* pool = nullptr);
  /// Joins any in-flight fill, then returns the slot buffer to the pool.
  ~PrefetchBatcher() override;

  PrefetchBatcher(const PrefetchBatcher&) = delete;
  PrefetchBatcher& operator=(const PrefetchBatcher&) = delete;

  void start_epoch() override;
  bool next_into(Batch& out) override;

  std::int64_t batch_size() const override { return inner_.batch_size(); }
  std::int64_t batches_per_epoch() const override {
    return inner_.batches_per_epoch();
  }

  BatcherState state() const override;
  void load_state(const BatcherState& state) override;

 private:
  enum class SlotState { kIdle, kFilling, kReady };

  /// Submits a fill of `slot_` for the producer; caller must hold no lock
  /// and the slot must be kIdle.
  void submit_fill();
  /// Producer body: one inner_.next_into into the slot, errors captured.
  void fill();
  /// Blocks until no fill is in flight (slot is kIdle or kReady).
  void drain() const;

  Batcher inner_;            // producer-owned between submit_fill and kReady
  ThreadPool* pool_;
  // Where the slot buffer returns at destruction. Resolved in the
  // constructor so the global pool, like the shared ThreadPool, finishes
  // construction first and outlives a static-duration batcher.
  BufferPool& buffers_;

  // The handoff slot. `batch`/`end`/`error` are written by the producer
  // while `state == kFilling` and read by the consumer once `kReady`; the
  // mutex acquire/release on the state transition publishes the payload.
  mutable debug::Mutex<debug::LockRank::kPrefetchSlot> mutex_;
  mutable debug::CondVar ready_cv_;
  Batch slot_;
  bool slot_end_ = false;
  std::exception_ptr slot_error_;
  SlotState slot_state_ = SlotState::kIdle;

  // Consumer-side view of the stream, used by state(): the shuffle stream
  // and permutation are fixed for the whole epoch, so the consumed cursor
  // is the only part that moves between batches.
  BatcherState epoch_state_;
  std::int64_t consumed_cursor_ = 0;
  bool epoch_done_ = false;
};

}  // namespace zkg::data
