#include "data/batcher.hpp"

#include <numeric>

#include "tensor/ops.hpp"

namespace zkg::data {

Batcher::Batcher(const Dataset& dataset, std::int64_t batch_size, Rng& rng,
                 bool shuffle)
    : dataset_(dataset),
      batch_size_(batch_size),
      rng_(rng.fork()),
      shuffle_(shuffle) {
  dataset.validate();
  ZKG_CHECK(batch_size > 0) << " batch_size " << batch_size;
  order_.resize(static_cast<std::size_t>(dataset.size()));
  std::iota(order_.begin(), order_.end(), 0);
  start_epoch();
}

void Batcher::start_epoch() {
  if (shuffle_) rng_.shuffle(order_);
  cursor_ = 0;
}

bool Batcher::next_into(Batch& out) {
  const auto total = static_cast<std::int64_t>(order_.size());
  if (cursor_ >= total) return false;
  const std::int64_t end = std::min(cursor_ + batch_size_, total);
  batch_indices_.assign(order_.begin() + cursor_, order_.begin() + end);
  cursor_ = end;

  gather_rows_into(out.images, dataset_.images, batch_indices_);
  out.labels.clear();
  out.labels.reserve(batch_indices_.size());
  for (const std::int64_t i : batch_indices_) {
    out.labels.push_back(dataset_.labels[static_cast<std::size_t>(i)]);
  }
  return true;
}

std::int64_t Batcher::batches_per_epoch() const {
  const auto total = static_cast<std::int64_t>(order_.size());
  return (total + batch_size_ - 1) / batch_size_;
}

BatcherState Batcher::state() const {
  BatcherState state;
  state.rng = rng_.state();
  state.order = order_;
  state.cursor = cursor_;
  return state;
}

void Batcher::load_state(const BatcherState& state) {
  const auto n = static_cast<std::int64_t>(order_.size());
  if (static_cast<std::int64_t>(state.order.size()) != n) {
    throw SerializationError(
        "Batcher::load_state: permutation of " +
        std::to_string(state.order.size()) + " entries for a dataset of " +
        std::to_string(n));
  }
  // The order must be a true permutation of [0, n): a corrupted or forged
  // snapshot with duplicate indices would otherwise resume silently,
  // double-sampling some examples and never visiting others.
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (const std::int64_t i : state.order) {
    if (i < 0 || i >= n) {
      throw SerializationError("Batcher::load_state: index " +
                               std::to_string(i) + " outside dataset of " +
                               std::to_string(n));
    }
    if (seen[static_cast<std::size_t>(i)]) {
      throw SerializationError(
          "Batcher::load_state: order is not a permutation — index " +
          std::to_string(i) + " appears more than once");
    }
    seen[static_cast<std::size_t>(i)] = true;
  }
  if (state.cursor < 0 || state.cursor > n) {
    throw SerializationError("Batcher::load_state: cursor " +
                             std::to_string(state.cursor) +
                             " outside [0, " + std::to_string(n) + "]");
  }
  rng_.set_state(state.rng);
  order_ = state.order;
  cursor_ = state.cursor;
}

}  // namespace zkg::data
