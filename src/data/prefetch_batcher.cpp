#include "data/prefetch_batcher.hpp"

#include <utility>

#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "obs/telemetry.hpp"

namespace zkg::data {

PrefetchBatcher::PrefetchBatcher(const Dataset& dataset,
                                 std::int64_t batch_size, Rng& rng,
                                 bool shuffle, ThreadPool* pool)
    : inner_(dataset, batch_size, rng, shuffle),
      pool_(pool != nullptr ? pool : &ThreadPool::shared()),
      buffers_(BufferPool::global()) {
  // The inner Batcher's constructor already ran its first start_epoch (same
  // as the synchronous path). Nothing is gathered yet: a trainer calls
  // start_epoch() first, which would discard a batch primed here, so the
  // first next_into() primes the pipeline instead.
  epoch_state_ = inner_.state();
}

PrefetchBatcher::~PrefetchBatcher() {
  // Destructors are implicitly noexcept; drain()'s condvar wait can in
  // principle throw std::system_error, which would terminate the process
  // mid-teardown. Log and swallow — the producer's own error (if any) is
  // already captured in slot_error_ and dies with the slot.
  try {
    drain();
    // The slot buffer came from the global pool (Batcher::next_into grows
    // it through ensure_shape); hand it back so the next fit()'s batcher
    // acquires it as a hit instead of a fresh allocation.
    if (slot_.images.storage().capacity() > 0) {
      buffers_.release(std::move(slot_.images.storage()));
    }
  } catch (const std::exception& error) {
    log::error() << "data: exception draining prefetch at destruction: "
                 << error.what();
  } catch (...) {
    log::error() << "data: unknown exception draining prefetch";
  }
}

void PrefetchBatcher::drain() const {
  std::unique_lock lock(mutex_);
  ready_cv_.wait(lock, [this] { return slot_state_ != SlotState::kFilling; });
}

void PrefetchBatcher::submit_fill() {
  {
    std::lock_guard lock(mutex_);
    slot_state_ = SlotState::kFilling;
    slot_end_ = false;
    slot_error_ = nullptr;
  }
  pool_->submit([this] { fill(); });
}

void PrefetchBatcher::fill() {
  // Producer side: sole owner of inner_ and slot_ while the slot is
  // kFilling. The kReady transition under the mutex publishes the payload
  // to the consumer.
  bool end = false;
  std::exception_ptr error;
  try {
    ZKG_SPAN("data.prefetch_fill");
    ZKG_FAILPOINT("data.prefetch_fill");
    end = !inner_.next_into(slot_);
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard lock(mutex_);
    slot_end_ = end;
    slot_error_ = error;
    slot_state_ = SlotState::kReady;
    // Notify under the mutex: a waiter (possibly ~PrefetchBatcher's drain)
    // can only return from wait() after we release it, so the condvar is
    // guaranteed to outlive this notify call.
    ready_cv_.notify_all();
  }
}

void PrefetchBatcher::start_epoch() {
  drain();  // join the producer before touching inner_
  {
    std::lock_guard lock(mutex_);
    slot_state_ = SlotState::kIdle;  // discard any read-ahead batch
  }
  inner_.start_epoch();
  epoch_state_ = inner_.state();
  consumed_cursor_ = 0;
  epoch_done_ = false;
  submit_fill();
}

bool PrefetchBatcher::next_into(Batch& out) {
  if (epoch_done_) return false;
  {
    std::unique_lock lock(mutex_);
    if (slot_state_ == SlotState::kIdle) {
      // Nothing in flight: the first call after construction, or the
      // call after a fill() error was rethrown. Prime the slot.
      lock.unlock();
      submit_fill();
      lock.lock();
    }
    {
      ZKG_SPAN("data.prefetch_wait");
      ready_cv_.wait(lock,
                     [this] { return slot_state_ == SlotState::kReady; });
    }
    if (slot_error_ != nullptr) {
      const std::exception_ptr error = slot_error_;
      slot_error_ = nullptr;
      slot_state_ = SlotState::kIdle;
      std::rethrow_exception(error);
    }
    if (slot_end_) {
      // Keep the slot parked at kReady/end so repeated calls stay cheap;
      // start_epoch resets it.
      epoch_done_ = true;
      return false;
    }
    // O(1) handoff: the consumer's previous buffer becomes the producer's
    // next destination, the gathered batch becomes the consumer's.
    std::swap(out.images, slot_.images);
    out.labels.swap(slot_.labels);
    slot_state_ = SlotState::kIdle;
  }
  consumed_cursor_ = std::min(
      consumed_cursor_ + inner_.batch_size(),
      static_cast<std::int64_t>(epoch_state_.order.size()));
  submit_fill();  // overlap batch N+1 with the consumer's work on batch N
  return true;
}

BatcherState PrefetchBatcher::state() const {
  // Consumer-side snapshot: the shuffle stream and permutation are frozen
  // for the epoch; only the consumed cursor moves. The producer's
  // read-ahead is deliberately invisible — restoring this state replays
  // exactly the batches the consumer has not yet received.
  BatcherState state;
  state.rng = epoch_state_.rng;
  state.order = epoch_state_.order;
  state.cursor = consumed_cursor_;
  return state;
}

void PrefetchBatcher::load_state(const BatcherState& state) {
  drain();
  {
    std::lock_guard lock(mutex_);
    slot_state_ = SlotState::kIdle;  // discard stale read-ahead
  }
  inner_.load_state(state);  // validates permutation/cursor, may throw
  epoch_state_.rng = state.rng;
  epoch_state_.order = state.order;
  epoch_state_.cursor = 0;
  consumed_cursor_ = state.cursor;
  epoch_done_ =
      state.cursor >= static_cast<std::int64_t>(state.order.size());
  if (!epoch_done_) submit_fill();
}

}  // namespace zkg::data
